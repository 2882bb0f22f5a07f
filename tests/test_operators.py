import math
import random
from fractions import Fraction

import pytest

from fsemcalc.differentiation import gateaux_residual
from fsemcalc.gausspoly import GaussPolyFn
from fsemcalc.operators import (
    Diagonal,
    IdentityScaled,
    MultiplyBy,
    Operator,
    analytic_frechet,
    analytic_gateaux,
    bound_monomial,
    bound_power,
    bound_product,
    linear_bound_check,
    linmap_add,
    linmap_scale,
    seminorm_bound,
)
from fsemcalc.seminorms import family_max
from fsemcalc.spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace

SIGMA = SigmaRhoSpace(0.5)
S = SSpace()
SCH = SchwartzSpace(1)
GAUSS = GaussPolyFn.gaussian((Fraction(1),))
XGAUSS = GAUSS.monomial_mul((1,))


def op(kind, params=None, dom=SIGMA, cod=None):
    return Operator(kind, params or {}, dom, cod or dom)


# -- apply --------------------------------------------------------------------


def test_apply_examples():
    assert op("power", {"m": 2}).apply(SeqElement([4, 1])) == SeqElement([16, 1])
    assert op("power", {"m": 2}, SCH).apply(GAUSS) == GAUSS.mul(GAUSS)
    lam3 = Operator("cross_power", {"m": 3}, SIGMA, S)
    assert lam3.apply(SeqElement([2])) == SeqElement([8], tail=0)


def test_apply_tail_power():
    r2 = op("power", {"m": 2}, S)
    assert r2.apply(SeqElement([3], tail=2)) == SeqElement([9], tail=4)


def test_kind_space_compatibility():
    with pytest.raises(ValueError):
        Operator("fourier", {}, SIGMA, SIGMA)
    with pytest.raises(ValueError):
        Operator("cross_power", {"m": 2}, S, S)
    with pytest.raises(ValueError):
        Operator("power", {"m": 0}, SIGMA, SIGMA)
    with pytest.raises(ValueError):
        Operator("poly", {"coeffs": []}, SIGMA, SIGMA)


def test_operator_json_roundtrip():
    o = Operator("mult", {"g": GAUSS}, SCH, SCH)
    o2 = Operator.from_json(o.to_json())
    assert o2.kind == "mult" and o2.apply(XGAUSS) == o.apply(XGAUSS)
    q = op("power", {"m": 3})
    assert Operator.from_json(q.to_json()).apply(SeqElement([2])) == SeqElement([8])


# -- analytic derivatives ------------------------------------------------------


def test_frechet_power_schwartz():
    L = analytic_frechet(op("power", {"m": 2}, SCH), GAUSS)
    assert isinstance(L, MultiplyBy)
    assert L.apply(XGAUSS) == XGAUSS.mul(GAUSS).scale(2)


def test_frechet_power_schwartz_origin_is_zero_map():
    L = analytic_frechet(op("power", {"m": 2}, SCH), GaussPolyFn.zero(1))
    assert L.apply(GAUSS).is_zero()
    assert L.apply(XGAUSS).is_zero()
    # distinct from the m = 1 identity
    L1 = analytic_frechet(op("power", {"m": 1}, SCH), GaussPolyFn.zero(1))
    assert L1.apply(XGAUSS) == XGAUSS


def test_frechet_power_sigma_diagonal():
    L = analytic_frechet(op("power", {"m": 2}), SeqElement([4, 1]))
    assert isinstance(L, Diagonal) and L.prefix == (8, 2) and L.tail == 0
    assert L.apply(SeqElement([1, 1])) == SeqElement([8, 2])


def test_frechet_power_s_tail():
    L = analytic_frechet(op("power", {"m": 3}, S), SeqElement([3], tail=1))
    assert L.entry(1) == 27 and L.tail == 3


def test_frechet_linear_kinds_are_themselves():
    d = Operator("diff", {"gamma": (1,)}, SCH, SCH)
    L = analytic_frechet(d, GAUSS)
    assert L.apply(GAUSS) == GAUSS.diff((1,))
    assert L.apply(XGAUSS) == XGAUSS.diff((1,))
    f = Operator("fourier", {}, SCH, SCH)
    assert analytic_frechet(f, GAUSS).apply(XGAUSS).approx_eq(XGAUSS.fourier(), 0)
    m = op("scale", {"a": 3})
    assert analytic_frechet(m, SeqElement([1])).apply(SeqElement([2])) == SeqElement([6])


def test_frechet_of_a_non_scalar_linear_kind_is_the_operator():
    for kind, params in [
        ("diff", {"gamma": (1,)}),
        ("mult", {"g": GAUSS}),
        ("monomial", {"lam": (2,)}),
        ("fourier", {}),
        ("inv_fourier", {}),
    ]:
        o = Operator(kind, params, SCH, SCH)
        assert analytic_frechet(o, XGAUSS) is o


def test_frechet_poly_sequences():
    o = op("poly", {"coeffs": (2, 0, 1)})  # 2t + t^3
    L = analytic_frechet(o, SeqElement([2]))
    assert isinstance(L, Diagonal)
    assert L.prefix == (2 + 3 * 4,) and L.tail == 2


def test_frechet_poly_schwartz():
    o = Operator("poly", {"coeffs": (2, 3)}, SCH, SCH)  # 2f + 3f^2
    L = analytic_frechet(o, GAUSS)
    u = XGAUSS
    want = u.scale(2).add(GAUSS.mul(u).scale(6))
    assert L.apply(u) == want
    # at the origin only the linear term survives
    L0 = analytic_frechet(o, GaussPolyFn.zero(1))
    assert L0.apply(u) == u.scale(2)


# -- closed-form Taylor remainders ---------------------------------------------


def _difference(o, xbar, u):
    """T(xbar + u) - T(xbar) - L* u, with L* = analytic_frechet(o, xbar)."""
    dom, cod = o.domain, o.codomain
    return cod.sub(cod.sub(o.apply(dom.add(xbar, u)), o.apply(xbar)), analytic_frechet(o, xbar).apply(u))


# Two-group Schwartz point and direction with exact coefficients.
XBAR2 = GaussPolyFn.from_term({(2,): Fraction(4)}, (Fraction(2),)).add(
    GaussPolyFn.from_term({(0,): Fraction(6), (2,): Fraction(6)}, (Fraction(1, 2),))
)
U2 = GaussPolyFn.from_term({(1,): Fraction(1, 3)}, (Fraction(1),)).add(
    GaussPolyFn.from_term({(0,): Fraction(-2), (3,): Fraction(1, 5)}, (Fraction(3, 2),))
)


def test_equal_functions_built_in_other_term_orders_give_one_seminorm():
    # the closed-form remainder and the three-term difference are the same
    # function, built with their decay groups in other orders; both keep
    # the groups in decay order, so every seminorm is the same float
    o = Operator("power", {"m": 2}, SCH, SCH)
    t = Fraction(1, 10)
    closed = SCH.scale(1 / t, o.taylor_remainder(XBAR2)(SCH.scale(t, U2)))
    summed = SCH.scale(1 / t, _difference(o, XBAR2, SCH.scale(t, U2)))
    assert closed == summed
    assert [g.decay for g in closed.terms] == [g.decay for g in summed.terms]
    assert closed.to_json() == summed.to_json()
    for sid in SCH.enum_ids(10):
        assert SCH.seminorm(sid, closed).hex() == SCH.seminorm(sid, summed).hex(), sid


def test_taylor_remainder_is_the_exact_difference():
    # exact data on both sides, so the closed form and the difference of
    # the three terms must agree exactly; this also checks analytic_frechet
    sig3 = SigmaRhoSpace(0.3)
    f = Fraction
    seq_cases = [
        (sig3, sig3, SeqElement([f(4), f(-1, 3)]), SeqElement([f(1, 7), 0, f(2, 5)])),
        (S, S, SeqElement([f(3)], tail=f(1, 2)), SeqElement([f(-1, 3), f(7, 2)], tail=f(5, 2))),
        (S, S, SeqElement([f(-2), f(5, 4), 1], tail=f(-3, 2)), SeqElement([f(1, 9)], tail=f(1, 4))),
    ]
    fn_cases = [(SCH, SCH, XBAR2, U2), (SCH, SCH, GaussPolyFn.zero(1), U2), (SCH, SCH, XBAR2, GaussPolyFn.zero(1))]
    poly = {"coeffs": (f(1, 2), 0, 3, f(-1, 4))}  # a zero coefficient
    cases = []
    for dom, cod, xbar, u in seq_cases + fn_cases:
        ops = [Operator("power", {"m": m}, dom, cod) for m in (1, 2, 3, 4)] + [Operator("poly", poly, dom, cod)]
        cases += [(o, xbar, u) for o in ops]
    for m in (1, 2, 3, 4):
        o = Operator("cross_power", {"m": m}, sig3, S)
        for xbar, u in ((SeqElement([f(2), f(-1, 2)]), SeqElement([f(1, 3), 0, f(-4)])), (SeqElement.zero(), SeqElement([f(1, 5)]))):
            cases.append((o, xbar, u))
    t = f(1, 10)
    for o, xbar, u in cases:
        expansion = o.taylor_remainder(xbar)
        assert expansion(u) == _difference(o, xbar, u), (o.describe(), xbar, u)
        # the increment T(xbar + u) - T(xbar) comes from the same expansion
        dom, cod = o.domain, o.codomain
        increment = cod.sub(o.apply(dom.add(xbar, u)), o.apply(xbar))
        assert expansion.increment(u) == increment, (o.describe(), xbar, u)
        # the Gateaux residual is built from the same closed form, and equal
        # functions keep their terms in one order, so the two agree exactly
        if not o.domain.is_zero(u):
            cod = o.codomain
            J = [((0,), (0,))] if isinstance(cod, SchwartzSpace) else [1, 2, 3]
            want = family_max(cod, cod.scale(1 / t, _difference(o, xbar, o.domain.scale(t, u))), J)
            got = gateaux_residual(o, xbar, u, analytic_frechet(o, xbar), t, J)
            assert got == want, o.describe()
    # a linear kind's remainder is the codomain origin
    x = SeqElement([f(3), f(-1, 2)], tail=f(1, 4))
    for o in (Operator("identity", {}, S, S), Operator("scale", {"a": 2}, S, S)):
        assert o.taylor_remainder(x)(SeqElement([5], tail=1)) == SeqElement.zero()
        # and its increment is T u
        assert o.taylor_remainder(x).increment(SeqElement([5], tail=1)) == o.apply(SeqElement([5], tail=1))
    sch_ops = [
        Operator("diff", {"gamma": (1,)}, SCH, SCH),
        Operator("mult", {"g": GAUSS}, SCH, SCH),
        Operator("monomial", {"lam": (2,)}, SCH, SCH),
        Operator("fourier", {}, SCH, SCH),
        Operator("inv_fourier", {}, SCH, SCH),
    ]
    for o in sch_ops:
        assert o.taylor_remainder(XBAR2)(U2).is_zero(), o.describe()
        assert o.taylor_remainder(XBAR2).increment(U2) == o.apply(U2), o.describe()


def _series_full_loop(o, xbar, u, first):
    """The expansion's terms i >= first read at every entry up to the longer
    of the two prefixes, which is how they were read before a tail-0 u
    stopped the loop at the end of its own prefix."""
    from fsemcalc.gausspoly import _is_exact
    from fsemcalc.operators import _series_entry

    a = o.coeffs
    m = len(a)
    rows = [
        [sum(a[j - 1] * math.comb(j, i) * t ** (j - i) for j in range(i, m + 1)) for i in range(m, 0, -1)]
        for t in (*xbar.prefix, xbar.tail)
    ]
    forms = [(cs if all(map(_is_exact, cs)) else None, [float(c) for c in cs]) for cs in (r[: m + 1 - first] for r in rows)]
    *prefix, tail = forms
    vals = [
        _series_entry(prefix[k] if k < len(prefix) else tail, u.entry(k + 1), first)
        for k in range(max(len(prefix), len(u.prefix)))
    ]
    return SeqElement(vals, _series_entry(tail, u.tail, first))


def _bits(x: SeqElement):
    return [(type(v), v.hex() if type(v) is float else v) for v in x.prefix + (x.tail,)]


def test_a_tail_zero_sample_stops_at_the_end_of_its_prefix():
    # every later entry is the series at 0, +-0 or an exact 0, which the
    # element trims: the remainder and the increment are the same bits
    rng = random.Random(31)
    f = Fraction
    sig3, sig7 = SigmaRhoSpace(0.3), SigmaRhoSpace(0.7)
    pairs = [(sig3, sig3), (SIGMA, SIGMA), (sig7, sig7), (S, S), (sig3, S)]
    checked = 0
    for dom, cod in pairs:
        kinds = [("power", {"m": m}) for m in (2, 3, 4)] + [("poly", {"coeffs": (f(1, 2), 0, 3, -1.25)})]
        if isinstance(cod, SSpace) and dom is not cod:
            kinds = [("cross_power", {"m": m}) for m in (2, 3)]
        for kind, params in kinds:
            o = Operator(kind, params, dom, cod)
            for _ in range(12):
                exact = rng.random() < 0.5
                xbar = SeqElement(
                    [f(rng.randint(-12, 12), 4) if exact else rng.uniform(-3, 3) for _ in range(rng.randint(0, 6))],
                    f(rng.randint(-4, 4), 2) if isinstance(dom, SSpace) and rng.random() < 0.5 else 0,
                )
                expansion = o.taylor_remainder(xbar)
                for tail in (0, 0.0, -0.0):
                    u = SeqElement(
                        [rng.choice([f(rng.randint(-9, 9), 8), rng.uniform(-1, 1), -0.0]) for _ in range(rng.randint(0, 3))],
                        tail,
                    )
                    assert _bits(expansion(u)) == _bits(_series_full_loop(o, xbar, u, 2)), (o.describe(), xbar, u)
                    assert _bits(expansion.increment(u)) == _bits(_series_full_loop(o, xbar, u, 1)), (o.describe(), xbar, u)
                    checked += 1
    assert checked == 648


def test_taylor_remainder_is_exact_only_on_exact_entries():
    o = Operator("power", {"m": 3}, S, S)
    r = o.taylor_remainder(SeqElement([Fraction(1, 3)], tail=Fraction(1, 2)))
    exact = r(SeqElement([Fraction(1, 5)], tail=Fraction(1, 7)))
    assert all(type(v) is Fraction for v in exact.prefix + (exact.tail,))
    assert exact.entry(1) == 3 * Fraction(1, 3) * Fraction(1, 25) + Fraction(1, 125)
    mixed = r(SeqElement([0.2], tail=Fraction(1, 7)))
    assert type(mixed.entry(1)) is float and type(mixed.tail) is Fraction


def test_gateaux_examples():
    assert analytic_gateaux(op("power", {"m": 3}), SeqElement([1]), SeqElement([1])) == SeqElement([3])
    fbar = GAUSS
    assert analytic_gateaux(op("power", {"m": 1}, SCH), fbar, XGAUSS) == XGAUSS
    out = analytic_gateaux(op("power", {"m": 2}, S), SeqElement.zero(), SeqElement([5], tail=1))
    assert out.is_zero()
    with pytest.raises(ValueError):
        analytic_gateaux(op("power", {"m": 2}), SeqElement([1]), SeqElement.zero())


def _catalogue():
    yield op("power", {"m": 2}), SeqElement([4, 1]), SIGMA
    yield op("power", {"m": 3}, S), SeqElement([3], tail=1), S
    yield Operator("cross_power", {"m": 2}, SIGMA, S), SeqElement([2]), SIGMA
    yield op("power", {"m": 2}, SCH), GAUSS, SCH
    yield Operator("mult", {"g": GAUSS}, SCH, SCH), XGAUSS, SCH
    yield Operator("diff", {"gamma": (2,)}, SCH, SCH), GAUSS, SCH
    yield op("poly", {"coeffs": (1, 2)}), SeqElement([1, 2]), SIGMA


def test_derivative_maps_are_linear():
    # exact rational samples: additivity/homogeneity must hold exactly
    rng = random.Random(5)
    for o, xbar, dom in _catalogue():
        L = analytic_frechet(o, xbar)
        for _ in range(500):
            u = dom.random_element(rng, exact=True)
            v = dom.random_element(rng, exact=True)
            a = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            assert L.apply(dom.add(u, v)) == dom.add(L.apply(u), L.apply(v))
            assert L.apply(dom.scale(a, u)) == dom.scale(a, L.apply(u))


def test_derivative_linearity_across_combination():
    # a1 T1 + a2 T2 with T_i powers equals the polynomial operator, and the
    # derivative is the matching combination of diagonals
    a1, a2 = 2, -3
    combo = op("poly", {"coeffs": (0, a1, a2)})  # a1 t^2 + a2 t^3
    xbar = SeqElement([1, 2])
    L = analytic_frechet(combo, xbar)
    L1 = analytic_frechet(op("power", {"m": 2}), xbar)
    L2 = analytic_frechet(op("power", {"m": 3}), xbar)
    want = linmap_add(linmap_scale(a1, L1), linmap_scale(a2, L2))
    for v in (SeqElement([1, 1]), SeqElement([0, 5]), SeqElement([2])):
        assert L.apply(v) == want.apply(v)


def test_gateaux_matches_frechet_on_catalogue():
    rng = random.Random(14)
    for o, xbar, dom in _catalogue():
        L = analytic_frechet(o, xbar)
        v = dom.random_direction(rng)
        assert analytic_gateaux(o, xbar, v) == L.apply(v)


# -- linear map algebra --------------------------------------------------------


def test_linmap_add_scale_compose():
    d1, d2 = Diagonal((8, 2)), Diagonal((1, 1), tail=1)
    s = linmap_add(d1, d2)
    assert isinstance(s, Diagonal) and s.prefix == (9, 3) and s.tail == 1
    m = linmap_scale(2, MultiplyBy(GAUSS))
    assert m.apply(XGAUSS) == GAUSS.mul(XGAUSS).scale(2)
    z = linmap_add(IdentityScaled(0, SIGMA), d1)
    assert isinstance(z, Diagonal) and z.prefix == d1.prefix and z.tail == d1.tail


def test_summap_applies():
    # a sum of maps: the IdentityScaled is absorbed into every entry and the tail
    s = linmap_add(IdentityScaled(2), Diagonal((1,)))
    assert isinstance(s, Diagonal) and s.apply(SeqElement([3, 4])) == SeqElement([9, 8])


def _multipliers():
    """(space, the multiplier forms on it) with exact data."""
    for space in (SIGMA, S):
        yield space, [Diagonal((3, Fraction(1, 2)), 2, space), Diagonal((-1,), 0, space), IdentityScaled(Fraction(5, 2), space)]
    yield SCH, [MultiplyBy(GAUSS, SCH), MultiplyBy(XGAUSS.scale(3), SCH, Fraction(-1, 3)), IdentityScaled(2, SCH)]


def test_multipliers_are_closed_under_add_and_scale():
    rng = random.Random(19)
    for space, forms in _multipliers():
        us = [space.random_element(rng, exact=True) for _ in range(5)]
        for a in forms:
            for b in forms:
                d = linmap_add(a, linmap_scale(-1, b))
                kinds = {type(a), type(b)}
                want = next((k for k in (Diagonal, MultiplyBy) if k in kinds), IdentityScaled)
                assert type(d) is want and d.codomain is space, (a, b, d)
                for u in us:
                    assert d.apply(u) == space.sub(a.apply(u), b.apply(u))


# -- explicit bounds -----------------------------------------------------------


def test_bound_power_frozen_example():
    lhs, rhs = bound_power(GAUSS, 2, 0, 1)
    assert abs(lhs - 2 * math.exp(-0.5)) < 1e-12
    assert abs(rhs - 4.0) < 1e-12
    assert lhs <= rhs


def test_bound_monomial_frozen_example():
    lhs, rhs = bound_monomial(GAUSS, 1, 0, 0)
    want = (2 * math.e) ** -0.5
    assert abs(lhs - want) < 1e-13 and abs(rhs - want) < 1e-13


def test_bounds_on_zero():
    z = GaussPolyFn.zero(1)
    assert bound_power(z, 3, 0, 2) == (0.0, 0.0)
    assert bound_product(z, GAUSS, 0, 1)[0] == 0.0


def test_bounds_hold_random():
    rng = random.Random(21)
    for _ in range(60):
        f = SCH.random_element(rng, max_degree=6)
        g = SCH.random_element(rng, max_degree=6)
        alpha, beta = rng.randint(0, 2), rng.randint(0, 3)
        lhs, rhs = bound_product(g, f, alpha, beta)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12
        lam = rng.randint(0, 3)
        lhs, rhs = bound_monomial(f, lam, alpha, beta)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12
        m = rng.randint(1, 4)
        lhs, rhs = bound_power(f, m, alpha, beta)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


# -- linear continuity certificates ---------------------------------------------


def test_diff_bound_is_exact_identity():
    d = Operator("diff", {"gamma": (1,)}, SCH, SCH)
    ids, c = seminorm_bound(d, ((1, ), (0,)))
    assert ids == [((1,), (1,))] and c == 1.0
    rng = random.Random(2)
    for _ in range(25):
        f = SCH.random_element(rng)
        assert SCH.seminorm(((1,), (0,)), f.diff((1,))) == pytest.approx(
            SCH.seminorm(((1,), (1,)), f), rel=1e-9, abs=1e-12
        )


def test_scale_bound_sigma():
    m = op("scale", {"a": 2.0})
    ids, c = seminorm_bound(m, 3)
    assert ids == [3] and c == pytest.approx(2**0.5)


def test_identity_bound():
    ids, c = seminorm_bound(op("identity"), 1)
    assert c == 1.0


def test_linear_bound_check_passes():
    rng = random.Random(31)
    cases = [
        (Operator("diff", {"gamma": (1,)}, SCH, SCH), [((1,), (0,))]),
        (Operator("mult", {"g": GAUSS}, SCH, SCH), [((0,), (1,))]),
        (Operator("monomial", {"lam": (2,)}, SCH, SCH), [((0,), (1,))]),
        (Operator("fourier", {}, SCH, SCH), [((0,), (0,)), ((1,), (1,))]),
        (op("scale", {"a": -1.5}), [1, 2]),
        (op("identity", {}, S), [1]),
    ]
    for o, J in cases:
        r = linear_bound_check(o, J, rng=rng, n_samples=60)
        assert r.passed, (o.kind, r.counterexample)


def test_linear_bound_check_rejects_nonlinear():
    with pytest.raises(ValueError):
        seminorm_bound(op("power", {"m": 2}), 1)

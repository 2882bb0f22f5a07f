import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fsemcalc
from fsemcalc.differentiation import (
    NoRecipeError,
    basis_independence_check,
    continuity_delta,
    continuity_verify,
    default_t_schedule,
    delta_constructor,
    dr_ratio,
    fnorm_translate_backward,
    fnorm_translate_forward,
    frechet_implies_continuity_check,
    gateaux_residual,
    scale_into,
    uniqueness_probe,
    verify_frechet,
    verify_gateaux,
)
from fsemcalc.gausspoly import GaussPolyFn
from fsemcalc.operators import (
    Diagonal,
    IdentityScaled,
    MultiplyBy,
    Operator,
    analytic_frechet,
    linmap_add,
)
from fsemcalc.seminorms import f_norm, family_max, index_set
from fsemcalc.spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace

SIGMA = SigmaRhoSpace(0.5)
S = SSpace()
SCH = SchwartzSpace(1)
GAUSS = GaussPolyFn.gaussian((Fraction(1),))
XGAUSS = GAUSS.monomial_mul((1,))

Q2 = Operator("power", {"m": 2}, SIGMA, SIGMA)
Q3 = Operator("power", {"m": 3}, SIGMA, SIGMA)
R2 = Operator("power", {"m": 2}, S, S)
P2 = Operator("power", {"m": 2}, SCH, SCH)
LAM2 = Operator("cross_power", {"m": 2}, SIGMA, S)

ONE = SeqElement([1])


# -- Gateaux residuals ---------------------------------------------------------


def test_residual_frozen_example_sigma():
    L = analytic_frechet(Q2, ONE)
    r = gateaux_residual(Q2, ONE, ONE, L, Fraction(1, 100), [1])
    assert float(r) == pytest.approx(0.1, abs=1e-15)


def test_residual_frozen_example_s():
    L = analytic_frechet(R2, ONE)
    r = gateaux_residual(R2, ONE, ONE, L, Fraction(1, 10), [1])
    assert r == pytest.approx(0.1 / 1.1, abs=1e-15)


def test_residual_linear_operator_identically_zero():
    d = Operator("diff", {"gamma": (1,)}, SCH, SCH)
    L = analytic_frechet(d, GAUSS)
    for t in default_t_schedule():
        assert gateaux_residual(d, GAUSS, XGAUSS, L, t, [((0,), (1,))]) == 0.0
        assert gateaux_residual(d, GAUSS, XGAUSS, L, -t, [((0,), (1,))]) == 0.0


def test_residual_rejects_zero_t_and_direction():
    L = analytic_frechet(Q2, ONE)
    with pytest.raises(ValueError):
        gateaux_residual(Q2, ONE, ONE, L, 0, [1])
    with pytest.raises(ValueError):
        gateaux_residual(Q2, ONE, SeqElement.zero(), L, 1, [1])


def test_verify_gateaux_power_schwartz():
    L = MultiplyBy(GAUSS.scale(2), SCH)
    w = verify_gateaux(P2, GAUSS, XGAUSS, L, [((0,), (0,))], 0.1)
    assert w.passed and w.delta > 0
    # residual at t is t * sup(x^2 e^{-2x^2}); check the first point
    r = [s.value for s in w.schedule if s.input == Fraction(1, 10)][0]
    want = 0.1 * XGAUSS.mul(XGAUSS).sup_abs()
    assert r == pytest.approx(want, rel=1e-12)


def test_verify_gateaux_wrong_candidate_fails():
    w = verify_gateaux(P2, GAUSS, XGAUSS, IdentityScaled(0, SCH), [((0,), (0,))], 0.1)
    assert not w.passed
    # the residual tends to |2 f v|, not 0
    tail = [s.value for s in w.schedule if abs(s.input) <= Fraction(1, 10**6)]
    want = GAUSS.mul(XGAUSS).scale(2).sup_abs()
    for r in tail:
        assert r == pytest.approx(want, rel=1e-4)


def test_verify_gateaux_residual_rate_sigma():
    # residual scales like t^rho: ratio per decade within 10% of 10^-rho
    L = analytic_frechet(Q2, ONE)
    vals = {}
    for k in range(4, 9):
        vals[k] = gateaux_residual(Q2, ONE, ONE, L, Fraction(1, 10**k), [1])
    for k in range(4, 8):
        ratio = vals[k + 1] / vals[k]
        assert 0.9 * 10**-0.5 <= ratio <= 1.1 * 10**-0.5


# -- (DR) / (DZ) ----------------------------------------------------------------


def _dr(op, xbar, u, L, I, J):
    """dr_ratio on the residual of u and c = max_I p(u), both built here."""
    dom, cod = op.domain, op.codomain
    residual = cod.sub(cod.sub(op.apply(dom.add(xbar, u)), op.apply(xbar)), L.apply(u))
    return dr_ratio(cod, residual, family_max(dom, u, index_set(dom, I)), J)


def test_dr_ratio_frozen_examples():
    L = analytic_frechet(Q2, ONE)
    r = _dr(Q2, ONE, SeqElement([Fraction(1, 100)]), L, [1], [1])
    assert r == pytest.approx(0.001**0.5, rel=1e-12)
    Ls = analytic_frechet(R2, ONE)
    r = _dr(R2, ONE, SeqElement([Fraction(1, 100)]), Ls, [1], [1])
    assert r == pytest.approx(0.01, rel=2e-2)
    # linear: zero for any u (exactly, on the exact-rational fast path)
    ident = Operator("identity", {}, SIGMA, SIGMA)
    r = _dr(ident, ONE, SeqElement([Fraction(3, 10)]), analytic_frechet(ident, ONE), [1], [1])
    assert r == 0.0


def test_dr_ratio_kernel_rejected():
    L = analytic_frechet(Q2, ONE)
    with pytest.raises(ValueError):
        _dr(Q2, ONE, SeqElement([0, 0, 5]), L, [1, 2], [1])


def test_delta_recipes_frozen_values():
    I, d, rec = delta_constructor(R2, ONE, [1], 0.1)
    assert d == pytest.approx(0.0125) and rec == "power-s"
    I, d, rec = delta_constructor(LAM2, ONE, [1], 0.1)
    assert d == pytest.approx(0.025) and rec == "power-cross"
    I, d, rec = delta_constructor(P2, GaussPolyFn.zero(1), [((0,), (1,))], 0.09)
    assert d == pytest.approx(0.0225) and rec == "schwartz-power-origin"
    I, d, rec = delta_constructor(Q2, ONE, [1], 0.1)
    assert d == pytest.approx(0.1 / 2.0) and rec == "power-sigma"
    assert I.ids == (1,)


def test_delta_recipe_schwartz_closure():
    I, d, rec = delta_constructor(P2, GAUSS, [((1,), (1,))], 0.1)
    assert rec == "schwartz-power"
    assert ((0,), (0,)) in I.ids and ((1,), (1,)) in I.ids and len(I.ids) == 4
    assert 0 < d < 1


def test_schwartz_recipe_bracket_is_the_max_over_powers_and_seminorms():
    # the bracket max_{1<=i<=m} max_{q in J} q(xbar^i), now a family maximum
    # per power, gives the delta of the old seminorm-by-seminorm loop
    rng = random.Random(29)
    for m in (2, 3, 4):
        op = Operator("power", {"m": m}, SCH, SCH)
        for _ in range(4):
            xbar = SCH.random_element(rng, max_degree=3)
            J = index_set(SCH, rng.sample(SCH.enum_ids(6), 3))
            eps = rng.choice([0.5, 0.1, 0.01])
            bracket = max(max(SCH.seminorm(sid, xbar.pow(i)) for sid in J.ids) for i in range(1, m + 1))
            abeta = max(sum(b) for _, b in J.ids)
            want = eps / ((m - 1) * math.factorial(m) * (bracket + 1.0) * 2.0 ** ((m + 1) * abeta))
            I, delta, rec = delta_constructor(op, xbar, J, eps)
            assert rec == "schwartz-power" and delta == want


def test_delta_constructor_no_recipe():
    poly = Operator("poly", {"coeffs": (1, 1)}, SIGMA, SIGMA)
    with pytest.raises(NoRecipeError):
        delta_constructor(poly, ONE, [1], 0.1)


def test_verify_frechet_passes_catalogue():
    rng = random.Random(3)
    for o, x in [
        (Q2, ONE),
        (R2, SeqElement([3], tail=1)),
        (LAM2, SeqElement([2])),
        (P2, GAUSS),
    ]:
        J = [((0,), (0,))] if isinstance(o.domain, SchwartzSpace) else [1]
        w = verify_frechet(o, x, J, 0.1, rng=rng, n_samples=80)
        assert w.passed, (o.describe(), w.recipe)
        assert w.delta_source == "constructive"


def test_verify_frechet_dz_exact_zero():
    rng = random.Random(4)
    w = verify_frechet(Q2, ONE, [1, 2], 0.1, rng=rng, n_samples=40)
    assert w.passed
    assert all(s.value == 0.0 for s in w.dz_samples)


def test_verify_frechet_wrong_candidate_fails():
    rng = random.Random(5)
    w = verify_frechet(Q2, ONE, [1], 0.1, L=Diagonal((3,), 0, SIGMA), rng=rng, n_samples=60)
    assert not w.passed
    assert max(r for _, _, r in w.dr_samples) > 0.1


def test_a_search_that_finds_no_delta_ends_in_a_fail():
    # a wrong candidate's ratio does not shrink with delta: the search gives
    # up below 1e-12 with a FAIL witness
    w = verify_frechet(R2, ONE, [1], 0.1, L=Diagonal((3,), 0, S), delta_source="searched", rng=random.Random(5), n_samples=5)
    assert not w.passed and w.delta < 1e-12 and w.sampled_delta is None


def test_verify_frechet_searched_fallback():
    rng = random.Random(6)
    poly = Operator("poly", {"coeffs": (1, 1)}, SIGMA, SIGMA)
    w = verify_frechet(poly, ONE, [1], 0.1, rng=rng, n_samples=40)
    assert w.passed and w.delta_source == "searched" and w.delta > 1e-12


def test_verdicts_apply_no_operator(monkeypatch):
    # the residual is the closed-form remainder (0 for a linear kind) and the
    # continuity increment comes from the same expansion, so no operator is
    # applied, neither to xbar nor in the sample loop, on any batch of the
    # searched fallback
    xbar = SeqElement([3], tail=1)
    apply = Operator.apply
    calls = []

    def counting(self, x):
        calls.append(x)
        return apply(self, x)

    monkeypatch.setattr(Operator, "apply", counting)
    scale = Operator("scale", {"a": 2}, S, S)
    for source in ("constructive", "searched"):
        w = verify_frechet(R2, xbar, [1, 2], 0.1, delta_source=source, rng=random.Random(7), n_samples=5)
        assert w.passed and len(w.dz_samples) == 20 and len(w.dr_samples) == 5
        w = verify_frechet(scale, xbar, [1, 2], 0.1, delta_source=source, rng=random.Random(7), n_samples=5)
        assert w.passed and len(w.dr_samples) == 5
        for o in (R2, scale):
            w = continuity_verify(o, xbar, [1, 2], 0.1, delta_source=source, rng=random.Random(7), n_samples=5)
            assert w.passed and len(w.samples) == 5
        assert calls == [], source


def test_verify_gateaux_prepares_its_residual_once(monkeypatch):
    # one Taylor expansion per verdict, read at all 16 values of t
    L = analytic_frechet(Q2, ONE)
    remainder = Operator.taylor_remainder
    calls = []

    def counting(self, xbar):
        calls.append(xbar)
        return remainder(self, xbar)

    monkeypatch.setattr(Operator, "taylor_remainder", counting)
    w = verify_gateaux(Q2, ONE, ONE, L, [1], 0.1)
    assert len(w.schedule) == 16 and len(calls) == 1


def _float_fn(rng):
    return SCH.random_element(rng, exact=False)


def test_linear_kinds_have_exactly_zero_frechet_residuals():
    # at float points the difference T(xbar+u) - T(xbar) - T u rounds to a
    # nonzero residual; the closed-form remainder of a linear kind is 0
    rng = random.Random(11)
    seq_ops = [Operator(k, p, sp, sp) for sp in (SIGMA, S) for k, p in (("identity", {}), ("scale", {"a": 2.7}))]
    sch_ops = [
        Operator("diff", {"gamma": (1,)}, SCH, SCH),
        Operator("mult", {"g": _float_fn(rng)}, SCH, SCH),
        Operator("monomial", {"lam": (2,)}, SCH, SCH),
        Operator("fourier", {}, SCH, SCH),
        Operator("inv_fourier", {}, SCH, SCH),
    ]
    for o in seq_ops + sch_ops:
        if isinstance(o.domain, SchwartzSpace):
            xbar, J = _float_fn(rng), [((0,), (0,)), ((1,), (1,))]
        else:
            xbar, J = o.domain.random_direction(rng), [1, 2, 3]
        w = verify_frechet(o, xbar, J, 0.1, rng=random.Random(3), n_samples=20)
        assert w.passed and w.recipe == "linear-exact"
        assert all(s.value == 0.0 for s in w.dz_samples), o.describe()
        assert all(r == 0.0 for _, _, r in w.dr_samples), o.describe()


def test_gateaux_residual_matches_the_exact_value_on_float_data():
    # the three-term difference cancels as t shrinks; the closed form keeps
    # the float residual within a few roundings of the exact one
    rng = random.Random(5)
    ts = default_t_schedule()
    for space in (SIGMA, S):
        for m in (2, 3, 4):
            o = Operator("power", {"m": m}, space, space)
            for _ in range(5):
                xbar, v = space.random_element(rng), space.random_direction(rng)
                xq, vq = xbar.entrywise_map(Fraction), v.entrywise_map(Fraction)
                for t in ts + [-t for t in ts]:
                    got = gateaux_residual(o, xbar, v, analytic_frechet(o, xbar), t, [1, 2, 3, 4])
                    want = gateaux_residual(o, xq, vq, analytic_frechet(o, xq), t, [1, 2, 3, 4])
                    assert abs(got - want) <= 1e-15 * want, (space.tag, m, xbar, v, t)


def _exact_seminorm(space, t: Fraction) -> float:
    t = abs(t)
    return float(t) ** space.rho if isinstance(space, SigmaRhoSpace) else float(t / (1 + t))


@pytest.mark.parametrize(
    "o, xbar",
    [
        (Operator("power", {"m": 2}, SigmaRhoSpace(0.3), SigmaRhoSpace(0.3)), SeqElement([4, 1])),
        (Q2, SeqElement([4, 1])),
        (Operator("cross_power", {"m": 2}, SigmaRhoSpace(0.3), S), SeqElement([2])),
    ],
)
def test_dr_ratios_are_the_exact_remainder_ratios(o, xbar):
    # the (DR) numerator of an m = 2 power is u^2 entrywise; every reported
    # ratio must be that value over the stored c, not subtraction rounding
    w = verify_frechet(o, xbar, [1, 2], 0.01, rng=random.Random(5), n_samples=200)
    assert w.passed and len(w.dr_samples) == 200
    for u, c, ratio in w.dr_samples:
        exact = max(_exact_seminorm(o.codomain, Fraction(u.entry(k)) ** 2 / Fraction(c)) for k in (1, 2))
        assert abs(ratio - exact) <= 1e-12 * exact, (u, c, ratio, exact)


def test_verify_frechet_wrong_candidate_fails_on_s_and_schwartz():
    # a wrong candidate L adds (L* - L) u to the closed-form remainder
    w = verify_frechet(R2, SeqElement([1]), [1], 0.1, L=Diagonal((3,), 0, S), rng=random.Random(5), n_samples=60)
    assert not w.passed and max(r for _, _, r in w.dr_samples) > 0.1
    J = [((0,), (0,))]
    wrong = MultiplyBy(GAUSS.scale(2.2), SCH)
    w = verify_frechet(P2, GAUSS, J, 0.1, L=wrong, rng=random.Random(5), n_samples=60)
    assert not w.passed and max(r for _, _, r in w.dr_samples) > 0.1
    right = MultiplyBy(GAUSS.scale(2), SCH)
    assert verify_frechet(P2, GAUSS, J, 0.1, L=right, rng=random.Random(5), n_samples=60).passed


def test_wrong_candidate_on_a_linear_kind_fails_both_verdicts():
    # the residual is T u - L u, exactly 0 for L = T
    fourier = Operator("fourier", {}, SCH, SCH)
    J = [((0,), (0,))]
    wrong = MultiplyBy(GAUSS, SCH)
    assert not verify_gateaux(fourier, GAUSS, XGAUSS, wrong, J, 0.1).passed
    w = verify_frechet(fourier, GAUSS, J, 0.1, L=wrong, rng=random.Random(5), n_samples=20)
    assert not w.passed and max(r for _, _, r in w.dr_samples) > 0.1
    g = verify_gateaux(fourier, GAUSS, XGAUSS, fourier, J, 0.1)
    assert g.passed and all(s.value == 0 for s in g.schedule)
    w = verify_frechet(fourier, GAUSS, J, 0.1, L=fourier, rng=random.Random(5), n_samples=20)
    assert w.passed and all(r == 0 for _, _, r in w.dr_samples)


def test_verify_frechet_power4_two_term_point_no_overflow():
    # here the difference T(xbar+u) - T(xbar) - L u carries cancellation
    # noise whose critical points reach |x| ~ 3.5e22, where evaluating |f|
    # can raise OverflowError inside sup_abs
    xbar = GaussPolyFn.from_term({(2,): Fraction(4)}, (Fraction(2),)).add(
        GaussPolyFn.from_term({(0,): Fraction(6), (2,): Fraction(6)}, (Fraction(1, 2),))
    )
    P4 = Operator("power", {"m": 4}, SCH, SCH)
    J = [((0,), (0,)), ((0,), (1,))]
    w = verify_frechet(P4, xbar, J, 0.5, delta_source="constructive", rng=random.Random(2143674208), n_samples=10)
    assert w.passed and w.recipe == "schwartz-power"


# Twelve Schwartz power verdicts (m = 2..4, two base points, two epsilons),
# each with its own seeded generator; argv[1] == "reversed" runs them last
# to first.  Prints one witness JSON per case, in case order.
RUN_ORDER_SCRIPT = """
import json, random, sys
from fractions import Fraction
from fsemcalc.differentiation import verify_frechet
from fsemcalc.gausspoly import GaussPolyFn
from fsemcalc.operators import Operator
from fsemcalc.spaces import SchwartzSpace

SCH = SchwartzSpace(1)
points = [
    GaussPolyFn.gaussian((Fraction(1),)),
    GaussPolyFn.from_term({(0,): Fraction(1), (1,): Fraction(1)}, (Fraction(1),)),
]
cases = [(m, x, eps) for m in (2, 3, 4) for x in points for eps in (0.1, 0.01)]
order = list(range(len(cases)))
if sys.argv[1] == "reversed":
    order.reverse()
out = {}
for k in order:
    m, x, eps = cases[k]
    w = verify_frechet(
        Operator("power", {"m": m}, SCH, SCH), x, [((0,), (0,)), ((0,), (1,))], eps,
        delta_source="constructive", rng=random.Random(1000 + k), n_samples=60,
    )
    out[k] = json.dumps(w.to_json(SCH), sort_keys=True)
print(json.dumps([out[k] for k in range(len(cases))]))
"""


@pytest.mark.slow
def test_schwartz_witnesses_do_not_depend_on_run_order():
    # each order runs in a fresh process, so nothing but the order differs
    env = dict(os.environ, PYTHONPATH=str(Path(fsemcalc.__file__).parent.parent))
    runs = []
    for order in ("forward", "reversed"):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ORDER_SCRIPT, order], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    forward, backward = runs
    assert len(forward) == 12
    assert all(json.loads(w)["passed"] for w in forward)
    differ = [k for k in range(12) if forward[k] != backward[k]]
    assert not differ, differ


def test_scale_into_lands_on_target():
    rng = random.Random(7)
    delta = 0.01
    cases = [(SigmaRhoSpace(0.3), [1, 2]), (SIGMA, [1, 2]), (S, [1, 2]), (SCH, [((0,), (0,)), ((1,), (0,))])]
    for space, ids in cases:
        I = index_set(space, ids)
        for _ in range(20):
            u0 = space.random_direction(rng)
            for target in (delta / 2, delta * (1 - 1e-6)):
                u, capped = scale_into(space, u0, I, target)
                if u is None:
                    continue
                assert not capped
                c = family_max(space, u, I)
                assert c == pytest.approx(target, rel=1e-12) and c < delta


def test_scale_into_on_s_caps_levels_at_or_above_one():
    # p < 1 on S; a delta of 2 or more (a linear operator at epsilon >= 2) asks for such levels
    I = index_set(S, [1, 2])
    for target in (1.0, 1.5):
        assert 0.99 < family_max(S, scale_into(S, SeqElement([2, -1]), I, target)[0], I) <= 1.0


def test_scale_into_on_sigma_caps_a_level_past_float_range():
    # (target/c)^(1/rho) overflows: u goes as far as float scaling takes it
    I = index_set(SIGMA, [1, 2])
    u, capped = scale_into(SIGMA, SeqElement([2, -1]), I, 1e308)
    assert capped and u.prefix == (sys.float_info.max, -sys.float_info.max / 2)
    assert family_max(SIGMA, u, I) < 1e308
    for x in (SeqElement([3, Fraction(1, 7)]), SeqElement([0.1, -1e300])):
        s = SIGMA.finite_scalar(x)
        top = max(abs(float(v)) for v in x.prefix)
        assert math.isfinite(s * top) and math.isinf(math.nextafter(s, math.inf) * top)


def test_scale_into_on_s_evaluates_each_seminorm_once(monkeypatch):
    calls = []
    seminorm = SSpace.seminorm

    def counted(self, sid, x):
        calls.append(sid)
        return seminorm(self, sid, x)

    monkeypatch.setattr(SSpace, "seminorm", counted)
    I = index_set(S, [1, 2])
    u, _ = scale_into(S, SeqElement([2, -1], Fraction(1, 2)), I, 0.01)
    assert len(calls) <= len(I.ids)
    monkeypatch.undo()
    assert family_max(S, u, I) == pytest.approx(0.01, rel=1e-12)


# -- continuity ------------------------------------------------------------------


def test_continuity_delta_frozen_values():
    I, d, rec = continuity_delta(Q2, ONE, [1], 0.1)
    assert d == pytest.approx(1 / 44)
    I, d, rec = continuity_delta(R2, ONE, [1], 0.1)
    assert d == pytest.approx(0.1 / (9 * 1.1))
    I, d, rec = continuity_delta(Operator("identity", {}, SIGMA, SIGMA), ONE, [1], 0.1)
    assert d <= 0.1 and rec == "linear-bound"


def test_continuity_verify_passes():
    rng = random.Random(8)
    for o, x in [(Q2, ONE), (R2, ONE), (Operator("identity", {}, SIGMA, SIGMA), ONE)]:
        w = continuity_verify(o, x, [1], 0.1, rng=rng, n_samples=80)
        assert w.passed, o.describe()


def test_continuity_samples_never_read_a_rounded_away_point():
    # at epsilon = 0.01 on sigma_0.3 the sampled |u| reaches ~1e-15, so a
    # float x0 + u can round back onto x0; the increment is read at u itself
    # and a sample never reports T x0 - T x0 = 0
    space = SigmaRhoSpace(0.3)
    for m in (2, 3, 4):
        o = Operator("power", {"m": m}, space, space)
        for x0 in (SeqElement([1]), SeqElement([4, 1])):
            for eps in (0.1, 0.01):
                w = continuity_verify(o, x0, [1, 2], eps, rng=random.Random(3), n_samples=400)
                zeros = [s.value for s in w.samples if s.value == 0.0]
                assert w.passed and not zeros, (m, x0, eps, len(zeros))


def _seq_element(rng, space, exact):
    num = (lambda: Fraction(rng.randint(-12, 12), 4)) if exact else (lambda: rng.choice([rng.uniform(-3, 3), -0.0]))
    tail = num() if isinstance(space, SSpace) and rng.random() < 0.5 else 0
    return SeqElement([num() for _ in range(rng.randint(0, 7))], tail)


def test_residual_and_increment_at_the_restriction_have_the_same_J_seminorms():
    # every map on the sequence spaces is entrywise, so reading u only up
    # to max J changes no J-seminorm of the (DZ)/(DR) residual, the (DR)
    # ratio or the continuity increment, bit for bit
    from fsemcalc.differentiation import _residual

    rng = random.Random(25)
    sig3, sig7 = SigmaRhoSpace(0.3), SigmaRhoSpace(0.7)
    ops = []
    for dom in (sig3, SIGMA, sig7, S):
        ops += [Operator("power", {"m": m}, dom, dom) for m in (2, 3)]
        ops += [Operator("poly", {"coeffs": (Fraction(1, 2), 0, -3)}, dom, dom), Operator("scale", {"a": 1.5}, dom, dom)]
    ops += [Operator("cross_power", {"m": m}, sp, S) for sp in (sig3, sig7) for m in (2, 3)]
    Js = [[1], [2], [1, 2], [3], [2, 5], [7, 1, 4]]
    checked = 0
    for o in ops:
        dom, cod = o.domain, o.codomain
        for exact in (True, False):
            xbar = _seq_element(rng, dom, exact)
            maps = [_residual(o, xbar, L) for L in (None, Diagonal((3, -0.5), 1, cod), IdentityScaled(2, cod))]
            maps.append(o.taylor_remainder(xbar).increment)
            for _ in range(6):
                u = _seq_element(rng, dom, rng.random() < 0.3)
                for J in Js:
                    cut = dom.restrict(u, J)
                    for fn in maps:
                        whole, part = fn(u), fn(cut)
                        for k in J:
                            assert cod.seminorm(k, part).hex() == cod.seminorm(k, whole).hex(), (o.describe(), xbar, u, J, k)
                        assert dr_ratio(cod, part, 0.37, J).hex() == dr_ratio(cod, whole, 0.37, J).hex()
                        checked += 1
    assert checked == len(ops) * 2 * 6 * len(Js) * 4


@pytest.mark.parametrize(
    "o, xbar, J, I",
    [
        (Q2, SeqElement([Fraction(1, 3), 2, -1]), [1, 3], [1]),
        (Operator("power", {"m": 3}, SigmaRhoSpace(0.3), SigmaRhoSpace(0.3)), SeqElement([4, 1, 0.5]), [2], [1, 2]),
        (R2, SeqElement([3, Fraction(-1, 2)], tail=Fraction(1, 2)), [1, 2], [2]),
        (Operator("power", {"m": 3}, S, S), SeqElement([1.5], tail=-2.0), [2, 4], [1]),
        (LAM2, SeqElement([2, -1, 3]), [1, 2], [3]),
    ],
    ids=["sigma-I-short", "sigma0.3-I-long", "s-tails", "s-float-tail", "cross-power"],
)
def test_verdicts_on_the_restriction_give_the_witness_of_the_whole_sample(monkeypatch, o, xbar, J, I):
    # an explicit I that does not cover J, S tails and a wrong candidate:
    # the whole verdict is the same JSON with u read whole
    dom = o.domain
    wrong = Diagonal((3,), 0, o.codomain)

    def witnesses():
        out = []
        for kw in ({}, {"L": wrong}):
            w = verify_frechet(o, xbar, J, 0.1, delta_source=(I, 0.05), rng=random.Random(5), n_samples=150, **kw)
            out.append(json.dumps(w.to_json(dom)))
        w = continuity_verify(o, xbar, J, 0.1, delta_source=(I, 0.05), rng=random.Random(5), n_samples=150)
        return out + [json.dumps(w.to_json(dom))]

    restricted = witnesses()
    monkeypatch.setattr(type(dom), "restrict", lambda self, x, J: x)
    assert restricted == witnesses()


def test_continuity_witness_writes_x0_plus_u_for_the_stored_samples():
    # the witness keeps u and forms the point x = x0 + u only when written
    f = Fraction
    for o, x0 in ((Q2, SeqElement([f(1, 3), 2])), (R2, SeqElement([f(3)], tail=f(1, 2))), (P2, GAUSS)):
        dom = o.domain
        J = [((0,), (0,))] if dom is SCH else [1, 2]
        w = continuity_verify(o, x0, J, 0.1, rng=random.Random(4), n_samples=130 if dom is not SCH else 12)
        doc = w.to_json(dom)
        stored = w.samples[:100]
        assert json.dumps([s["x"] for s in doc["samples"]]) == json.dumps([dom.element_to_json(dom.add(x0, s.input)) for s in stored])
        assert [s["image_residual"] for s in doc["samples"]] == [float(s.value) for s in stored]
        assert doc["n_samples"] == len(w.samples) and all(s["x"] is None for s in w.to_json()["samples"])


def test_continuity_searched_fallback():
    rng = random.Random(9)
    w = continuity_verify(P2, GAUSS, [((0,), (0,))], 0.1, delta_source="searched", rng=rng, n_samples=30)
    assert w.passed and w.recipe == "searched"


def test_both_verdicts_refuse_samples_outside_the_punctured_neighbourhood(monkeypatch):
    # every direction lies in the kernel of I = {1}: no draw can land in
    # 0 < max_I p(u) < delta, so neither verdict may pass on x0 itself
    space = SSpace()
    monkeypatch.setattr(space, "random_direction", lambda rng: SeqElement([0, 0, 5]))
    op = Operator("power", {"m": 2}, space, space)
    for verdict in (continuity_verify, verify_frechet):
        with pytest.raises(RuntimeError, match="punctured neighborhood"):
            verdict(op, SeqElement([1]), [1], 0.1, n_samples=20)


def test_continuity_of_linear_combinations():
    # a1 T1 + a2 T2 stays continuous when the parts are: the polynomial
    # operator realizes the combination (here 2 Q^2 - Q^3)
    rng = random.Random(19)
    combo = Operator("poly", {"coeffs": (0, 2, -1)}, SIGMA, SIGMA)
    w = continuity_verify(combo, ONE, [1, 2], 0.1, rng=rng, n_samples=60)
    assert w.passed and w.recipe == "searched"
    scaled = Operator("scale", {"a": -3.0}, SIGMA, SIGMA)
    w = continuity_verify(scaled, ONE, [1], 0.1, rng=rng, n_samples=60)
    assert w.passed and w.recipe == "linear-bound"


# -- F-norm translation -----------------------------------------------------------


def test_translate_forward_tail_cutoff():
    fwd = fnorm_translate_forward(Q2, ONE, 0.5)
    # smallest M with sum_{j>M} 2^-j < 0.25 strictly is 3
    assert fwd["M"] == 3
    assert fwd["eps1"] == pytest.approx(0.25)
    assert 0 < fwd["delta"] < fwd["delta1"]


def test_translate_forward_contract_on_samples():
    rng = random.Random(10)
    fwd = fnorm_translate_forward(Q2, ONE, 0.1)
    delta = fwd["delta"]
    hits = 0
    tx0 = Q2.apply(ONE)
    while hits < 200:
        u = SIGMA.random_element(rng).scale(rng.uniform(0, 0.1))
        if f_norm(SIGMA, u) < delta:
            hits += 1
            x = ONE.add(u)
            assert f_norm(SIGMA, Q2.apply(x).sub(tx0)) < 0.1


def test_translate_backward_recovers_witness():
    rng = random.Random(11)
    back = fnorm_translate_backward(Q2, ONE, [1, 2], 0.1)
    I, delta = back["I"], back["delta"]
    assert delta > 0
    J = index_set(SIGMA, [1, 2])
    tx0 = Q2.apply(ONE)
    for _ in range(200):
        u, _ = scale_into(SIGMA, SIGMA.random_direction(rng), I, rng.uniform(0, delta) or delta / 2)
        if u is None or family_max(SIGMA, u, I) >= delta:
            continue
        assert family_max(SIGMA, Q2.apply(ONE.add(u)).sub(tx0), J) < 0.1


def test_translate_epsilon_too_large():
    with pytest.raises(ValueError):
        fnorm_translate_forward(Q2, ONE, 2.5)


def test_translate_eps1_monotone():
    vals = [fnorm_translate_backward(Q2, ONE, [1], e)["eps1"] for e in (0.4, 0.2, 0.1, 0.05)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] > 0


# -- probes -----------------------------------------------------------------------


def test_uniqueness_probe():
    d82 = Diagonal((8, 2), 0, SIGMA)
    r = uniqueness_probe(SIGMA, d82, Diagonal((8, 2), 0, SIGMA), [1, 2], [ONE, SeqElement([0, 1])])
    assert r.passed and r.details["max_gap"] == 0.0
    r = uniqueness_probe(SIGMA, d82, Diagonal((8, 3), 0, SIGMA), [2], [SeqElement([0, 1])])
    assert not r.passed
    assert r.details["max_gap"] == pytest.approx(1.0)  # |2-3|^{1/2}
    m = MultiplyBy(GAUSS.scale(2), SCH)
    m2 = linmap_add(MultiplyBy(GAUSS.scale(2), SCH), IdentityScaled(0, SCH))
    r = uniqueness_probe(SCH, m, m2, [((0,), (0,))], [XGAUSS])
    assert r.passed


def test_basis_independence():
    r = basis_independence_check(Q2, ONE, ONE, lambda sid: 1.5, [1], 0.1)
    assert r.passed
    r = basis_independence_check(Q2, ONE, ONE, lambda sid: 1.0, [1], 0.1)
    assert r.passed


def test_rescaled_family_scales_the_residual_it_reports():
    # the family maximum is taken over the rescaled seminorms, not the base's
    from fsemcalc.differentiation import RescaledFamily

    rescaled = Operator("power", {"m": 2}, SIGMA, RescaledFamily(SIGMA, lambda sid: 1.5))
    for t in (Fraction(1, 10), Fraction(-1, 100)):
        assert gateaux_residual(rescaled, ONE, ONE, None, t, [1]) == 1.5 * gateaux_residual(Q2, ONE, ONE, None, t, [1])


def test_basis_independence_wrong_candidate_fails_both():
    from fsemcalc.differentiation import RescaledFamily

    wrong = Diagonal((3,), 0, SIGMA)
    w1 = verify_gateaux(Q2, ONE, ONE, wrong, [1], 0.1)
    rescaled = Operator("power", {"m": 2}, SIGMA, RescaledFamily(SIGMA, lambda sid: 1.5))
    w2 = verify_gateaux(rescaled, ONE, ONE, wrong, [1], 0.1)
    assert not w1.passed and not w2.passed


def test_frechet_implies_continuity():
    rng = random.Random(12)
    r = frechet_implies_continuity_check(Q2, ONE, [([1], 0.1), ([1, 2], 0.5)], rng=rng, n_samples=60)
    assert r.passed
    r = frechet_implies_continuity_check(P2, GAUSS, [([((0,), (0,))], 0.2)], rng=rng, n_samples=40)
    assert r.passed
    ident = Operator("identity", {}, SIGMA, SIGMA)
    r = frechet_implies_continuity_check(ident, ONE, [([1], 0.1)], rng=rng, n_samples=40)
    assert r.passed


def test_verified_derivative_linearity():
    # combination operator passes with the combined candidate whenever the
    # parts pass with theirs
    a1, a2 = 2, 1
    combo = Operator("poly", {"coeffs": (0, a1, a2)}, SIGMA, SIGMA)
    xbar = SeqElement([1])
    from fsemcalc.operators import linmap_scale

    L1 = analytic_frechet(Q2, xbar)
    L2 = analytic_frechet(Q3, xbar)
    for L, o in ((L1, Q2), (L2, Q3)):
        assert verify_gateaux(o, xbar, ONE, L, [1], 0.1).passed
    combined = linmap_add(linmap_scale(a1, L1), linmap_scale(a2, L2))
    assert verify_gateaux(combo, xbar, ONE, combined, [1], 0.1).passed


def test_witness_json_caps_samples():
    rng = random.Random(13)
    w = verify_frechet(Q2, ONE, [1], 0.1, rng=rng, n_samples=150)
    doc = w.to_json(SIGMA)
    assert doc["n_dr"] == 150
    assert len(doc["dr_samples"]) == 100
    assert doc["recipe"] == "power-sigma"
    assert {"max", "mean"} <= set(doc["dr_ratios"])
    cw = continuity_verify(Q2, ONE, [1], 0.1, rng=rng, n_samples=120)
    cdoc = cw.to_json(SIGMA)
    assert cdoc["n_samples"] == 120 and len(cdoc["samples"]) == 100
    assert cdoc["samples"][0]["x"]["prefix"] is not None

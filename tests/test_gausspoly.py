import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsemcalc import gausspoly
from fsemcalc.gausspoly import GaussPolyFn, GaussPolyTerm, SparsePoly, leibniz_expand, leibniz_summands
from fsemcalc.spaces import SchwartzSpace

GAUSS = GaussPolyFn.gaussian((Fraction(1),))
XGAUSS = GAUSS.monomial_mul((1,))


# -- independent oracle: evaluate straight from the JSON document -----------


def eval_json(doc, xs):
    out = np.zeros_like(xs, dtype=complex)
    for t in doc["terms"]:
        a = float(Fraction(t["decay"][0])) if isinstance(t["decay"][0], str) else float(t["decay"][0])
        p = np.zeros_like(xs, dtype=complex)
        for mono in t["poly"]:
            re = float(Fraction(mono["re"])) if isinstance(mono["re"], str) else mono["re"]
            im = float(Fraction(mono["im"])) if isinstance(mono["im"], str) else mono["im"]
            p = p + complex(re, im) * xs ** mono["exp"][0]
        out = out + p * np.exp(-a * xs * xs)
    return out


def grid_sup_oracle(f, half_width=10.0, n=200001):
    xs = np.linspace(-half_width, half_width, n)
    return float(np.abs(eval_json(f.to_json(), xs)).max())


def random_fn(rng, max_degree=4, max_terms=2):
    return SchwartzSpace(1).random_element(rng, max_degree=max_degree, max_terms=max_terms, exact=True)


def random_plane_fn(rng, max_degree):
    """A random exact function on R^2, drawn as SchwartzSpace(2) drew them:
    1-2 terms, decays in {1/2, 1, 2} per axis and 1-3 monomials."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        decay = tuple(rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]) for _ in range(2))
        poly = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, max_degree) for _ in range(2))
            c = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
            if c:
                poly[exp] = c
        if poly:
            terms.append(GaussPolyTerm(SparsePoly(2, poly), decay))
    f = GaussPolyFn(2, terms)
    return f if not f.is_zero() else GaussPolyFn.gaussian((Fraction(1), Fraction(1)))


def rows(f):
    """The Horner rows (a, re_desc, im_desc) of each term of an n = 1 f."""
    return [t.flat1() for t in f.terms]


# -- structure and algebra ---------------------------------------------------


def test_zero_and_closure():
    z = GaussPolyFn.zero(1)
    assert z.is_zero()
    assert z.diff((3,)).is_zero()
    assert z.fourier().is_zero()
    assert z.sup_abs() == 0.0
    assert GAUSS.add(GAUSS.scale(-1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
def test_sub_is_add_of_negation(seed, exact_f, exact_g):
    # sub negates each coefficient once; the result is the same function,
    # coefficient for coefficient, exact where both inputs are exact
    rng = random.Random(seed)
    sch = SchwartzSpace(1)
    f = sch.random_element(rng, exact=exact_f)
    g = sch.random_element(rng, exact=exact_g)

    def coeffs(h):
        return sorted((tuple(t.decay), e, type(c), c) for t in h.terms for e, c in t.poly.terms.items())

    assert coeffs(f.sub(g)) == coeffs(f.add(g.scale(-1)))
    assert f.sub(f).is_zero()


def test_decay_positive_required():
    with pytest.raises(ValueError):
        GaussPolyFn.gaussian((0,))
    with pytest.raises(ValueError):
        GaussPolyFn.gaussian((-1,))


def test_power_examples():
    assert GAUSS.pow(2) == GaussPolyFn.gaussian((Fraction(2),))
    assert GAUSS.monomial_mul((1,)) == XGAUSS
    assert GAUSS.mul(XGAUSS) == XGAUSS.monomial_mul((0,)).scale(1).mul(GAUSS)
    with pytest.raises(ValueError):
        GAUSS.pow(0)


def test_diff_example():
    # d/dx e^{-x^2} = -2x e^{-x^2}
    assert GAUSS.diff((1,)) == XGAUSS.scale(-2)


def test_diff_composition_exact():
    f = XGAUSS
    assert f.diff((1,)).diff((2,)) == f.diff((3,))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 3), st.integers(0, 3))
def test_diff_composition_random(seed, b, c):
    f = random_fn(random.Random(seed))
    assert f.diff((b,)).diff((c,)) == f.diff((b + c,))


def test_diff_chain_extends_a_cached_prefix(monkeypatch):
    f = random_fn(random.Random(5), max_terms=2)
    f.diff((2,))
    calls = []
    original = SparsePoly.diff

    def counted(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(SparsePoly, "diff", counted)
    d3 = f.diff((3,))
    assert len(calls) == f.diff((2,)).term_count()  # one more diff1, one SparsePoly.diff per term
    assert d3 == f.diff((1,)).diff((2,))
    assert len(calls) == f.diff((2,)).term_count()  # D^1 and D^2 were cached too


def _coeff_key(c):
    # value and type, floats bit for bit (repr round-trips a float exactly)
    return type(c).__name__, repr(c)


def _structure(f):
    # terms in decay order, as to_json writes them
    terms = [(t.decay, sorted((e, _coeff_key(c)) for e, c in t.poly.terms.items())) for t in f.terms]
    return sorted(terms, key=lambda t: [float(a) for a in t[0]])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["exact", "float", "fourier", "n2"]),
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
def test_cached_derivatives_equal_fresh_ones(seed, kind, orders):
    rng = random.Random(seed)
    if kind == "n2":
        f = random_plane_fn(rng, max_degree=2)
    else:
        f = random_fn(rng, max_degree=3, max_terms=2) if kind != "float" else SchwartzSpace(1).random_element(rng, exact=False)
        if kind == "fourier":
            f = f.fourier()
    doc = f.to_json()
    for b in orders:
        beta = (b,) if f.n == 1 else (b, orders[0])
        # JSON turns a complex coefficient with zero imaginary part into a
        # float, so a complex f is copied as a new instance over its terms
        copy = GaussPolyFn(f.n, f.terms) if kind == "fourier" else GaussPolyFn.from_json(doc)
        assert _structure(f.diff(beta)) == _structure(copy.diff(beta))


_SCALARS = [0, 3, -7, Fraction(0), Fraction(5, 3), Fraction(-2, 9), 0.0, 1.25, -1e-300, 0j, 1.5 - 2j, complex(-0.0, 3)]


@pytest.mark.parametrize("name", ["_cadd", "_cmul"])
def test_exact_helpers_keep_the_rule_they_replaced(name):
    op = {"_cadd": lambda a, b: a + b, "_cmul": lambda a, b: a * b}[name]

    def rule(a, b):
        if gausspoly._is_exact(a) and gausspoly._is_exact(b):
            return op(Fraction(a), Fraction(b))
        return op(gausspoly._inexact(a), gausspoly._inexact(b))

    fn = getattr(gausspoly, name)
    pairs = [(type(a).__name__, type(b).__name__) for a in _SCALARS for b in _SCALARS]
    assert len(set(pairs)) == 16  # every pair from {int, Fraction, float, complex}
    for a in _SCALARS:
        for b in _SCALARS:
            assert _coeff_key(fn(a, b)) == _coeff_key(rule(a, b)), (a, b)


def test_leibniz_example():
    # (e^{-x^2} * x e^{-x^2})' = (1 - 4x^2) e^{-2x^2}
    got = leibniz_expand(GAUSS, XGAUSS, (1,))
    want = GaussPolyFn.from_term({(0,): Fraction(1), (2,): Fraction(-4)}, (Fraction(2),))
    assert got == want
    assert got == GAUSS.mul(XGAUSS).diff((1,))


def test_leibniz_zero_order():
    assert leibniz_expand(GAUSS, XGAUSS, (0,)) == GAUSS.mul(XGAUSS)


def test_leibniz_term_budget():
    g, f = GAUSS, XGAUSS
    beta = (3,)
    summands = leibniz_summands(g, f, beta)
    raw = sum(s.term_count() for s in summands)
    assert raw <= (beta[0] + 1) * g.term_count() * f.term_count()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 4))
def test_leibniz_random(seed, border):
    rng = random.Random(seed)
    g, f = random_fn(rng, max_degree=6), random_fn(rng, max_degree=6)
    assert leibniz_expand(g, f, (border,)) == g.mul(f).diff((border,))


def test_pointwise_product_crosscheck():
    rng = random.Random(11)
    f, g = random_fn(rng), random_fn(rng)
    fg = f.mul(g)
    for _ in range(100):
        x = (rng.uniform(-4, 4),)
        assert abs(fg.eval(x) - f.eval(x) * g.eval(x)) <= 1e-12 * (1 + abs(fg.eval(x)))


# -- suprema -----------------------------------------------------------------


def test_sup_gaussian_is_one():
    assert GAUSS.sup_abs() == 1.0


def test_sup_xgaussian_frozen_value():
    # critical point 1/sqrt(2); sup = (2e)^{-1/2}
    want = (2 * math.e) ** -0.5
    assert abs(XGAUSS.sup_abs() - want) < 1e-13
    assert abs(XGAUSS.sup_abs() - grid_sup_oracle(XGAUSS)) < 1e-9


def test_sup_derivative_frozen_value():
    # sup |2x e^{-x^2}| = sqrt(2/e)
    assert abs(GAUSS.diff((1,)).sup_abs() - math.sqrt(2 / math.e)) < 1e-13


def oracle_sweep():
    # the 30 functions with two or three decay groups and degree <= 12 take
    # the guard-grid path of sup_abs and signed_range; the 15 powers p^m have
    # the clustered zeros of the power workloads
    rng = random.Random(23)
    fns = [random_fn(rng) for _ in range(25)]
    while len(fns) < 55:
        f = random_fn(rng, max_degree=12, max_terms=3)
        if f.term_count() >= 2:
            fns.append(f)
    return fns + [random_fn(rng, max_terms=3).pow(m) for m in (2, 3, 4) for _ in range(5)]


def fourier_sweep(rng):
    # complex functions, most of them with two or three decay groups
    return [random_fn(rng, max_degree=6, max_terms=3).fourier() for _ in range(15)]


def test_sup_matches_grid_oracle_random():
    # a 200001-point grid bounds both from below and above; signed_range
    # is checked on the real functions only
    xs = np.linspace(-10.0, 10.0, 200001)
    real = oracle_sweep()
    for f in real + fourier_sweep(random.Random(41)):
        vals = eval_json(f.to_json(), xs)
        grid = float(np.abs(vals).max())
        ours = f.sup_abs()
        assert ours >= grid - 1e-8 * (1 + grid)
        assert ours <= grid * (1 + 1e-6) + 1e-9
        if f not in real:
            continue
        lo, hi = f.signed_range()
        gl, gh = min(0.0, float(vals.real.min())), max(0.0, float(vals.real.max()))
        assert gl - 1e-6 * grid - 1e-9 <= lo <= gl + 1e-8 * (1 + grid)
        assert gh - 1e-8 * (1 + grid) <= hi <= gh + 1e-6 * grid + 1e-9


def test_several_group_sup_is_above_its_guard_grid_and_the_oracle():
    # the refined guard-grid peaks never lose what the grid itself saw,
    # on real and on complex (Fourier) functions with several groups; six
    # of the fifteen Fourier functions are complex with several groups, so
    # 24 more such functions are drawn
    xs = np.linspace(-10.0, 10.0, 200001)
    rng = random.Random(43)
    more = []
    while len(more) < 24:
        f = random_fn(rng, max_degree=6, max_terms=3).fourier()
        if f.term_count() > 1 and not f.has_real_coeffs():
            more.append(f)
    # a narrow group beside a wide one: the grid's spacing is set by the
    # wide group, so the parabola through three grid values starts on the
    # wrong side of the peak, and a refinement that stops where a Newton
    # step leaves its bracket reads 0.1-0.5% low on each of these
    narrow = [
        [({0: Fraction(-7, 3)}, Fraction(9, 64)), ({0: Fraction(1)}, Fraction(513))],
        [({0: Fraction(1)}, Fraction(1, 32)), ({0: Fraction(-1, 2), 3: Fraction(-7, 2), 5: Fraction(9, 4)}, Fraction(257, 2))],
        [({0: Fraction(1)}, Fraction(1, 64)), ({0: Fraction(1)}, Fraction(13)), ({0: Fraction(-9, 4), 1: Fraction(-8, 3)}, Fraction(257, 16))],
    ]
    for terms in narrow:
        f = GaussPolyFn.zero(1)
        for poly, a in terms:
            f = f.add(GaussPolyFn.from_term({(k,): c for k, c in poly.items()}, (a,)))
        more.append(f)
    fns = [f for f in oracle_sweep() + fourier_sweep(random.Random(41)) if f.term_count() > 1] + more
    for f in fns:
        ours = f.sup_abs()
        guard = gausspoly._guard_grid(f._norm_key())
        assert ours >= max(abs(f.eval((x,))) for x in guard.tolist())
        assert ours >= float(np.abs(eval_json(f.to_json(), xs)).max()) * (1.0 - 1e-13)


def grid_sup_oracle_2d(f, half_width=6.0, n=601):
    axis = np.linspace(-half_width, half_width, n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    out = np.zeros_like(x, dtype=complex)
    for t in f.terms:
        a, b = (float(d) for d in t.decay)
        p = sum(complex(c) * x ** e[0] * y ** e[1] for e, c in t.poly.terms.items())
        out = out + p * np.exp(-a * x * x - b * y * y)
    return float(np.abs(out).max())


def test_sup_bound_is_above_every_supremum():
    # B (1 + 1e-12), the margin the Schwartz family maximum skips with, is
    # above the computed supremum and above the grid oracle: on the oracle
    # sweep, on complex (Fourier) functions, and (the oracle only) on n = 2
    # functions
    xs = np.linspace(-10.0, 10.0, 200001)
    rng = random.Random(41)
    for f in oracle_sweep() + fourier_sweep(rng):
        bound = f.sup_bound() * (1.0 + 1e-12)
        assert bound >= f.sup_abs()
        assert bound >= float(np.abs(eval_json(f.to_json(), xs)).max())
    for _ in range(12):
        f = random_plane_fn(rng, max_degree=3)
        bound = f.sup_bound() * (1.0 + 1e-12)
        assert bound >= grid_sup_oracle_2d(f)
    # one monomial: the bound is the supremum itself
    assert abs(XGAUSS.sup_bound() - (2 * math.e) ** -0.5) <= 1e-16


def test_candidates_are_roots_of_each_group_derivative():
    # for a real term f_k = q e^{-a x^2} the candidates are the critical
    # points of f_k: roots of the polynomial part of f_k', not zeros of q
    rng = random.Random(29)
    checked = 0
    for m in (1, 2, 3):
        for _ in range(8):
            f = random_fn(rng, max_degree=6, max_terms=3).pow(m)
            for t in f.terms:
                group = GaussPolyFn(1, (t,))
                (dterm,) = group.diff1(0).terms
                coeffs = {e[0]: Fraction(c) for e, c in dterm.poly.terms.items()}
                for x in gausspoly._critical_points(rows(group))[1:]:
                    x = Fraction(x)
                    value = sum(c * x**k for k, c in coeffs.items())
                    size = sum(abs(c) * abs(x) ** k for k, c in coeffs.items())
                    assert abs(value) <= Fraction(1, 10**9) * size
                    checked += 1
    assert checked > 100


def test_sup_dominates_samples():
    rng = random.Random(5)
    f = random_fn(rng, max_terms=2)
    s = f.sup_abs()
    for _ in range(10_000):
        x = (rng.uniform(-8, 8),)
        assert abs(f.eval(x)) <= s * (1 + 1e-12) + 1e-15


def test_sup_scales_linearly():
    s = XGAUSS.sup_abs()
    assert abs(XGAUSS.scale(Fraction(3, 2)).sup_abs() - 1.5 * s) < 1e-13


def test_sup_of_a_multiple_is_the_same_on_a_cold_and_a_warm_memo():
    # scalar multiples share their candidate points, which are computed
    # from the function divided by its largest coefficient; so sup |c f|
    # cannot depend on whether f or c f reached the memo first
    rng = random.Random(43)
    space = SchwartzSpace(1)
    hits = 0
    for k in range(40):
        f = space.random_element(rng, max_degree=6, max_terms=rng.choice([1, 2, 3]), exact=k % 2 == 0)
        if rng.random() < 0.3:
            f = f.pow(2)
        for c in (-rng.randint(2, 9), rng.uniform(-5.0, 5.0), Fraction(rng.choice([-7, -3, 5, 11]), rng.randint(1, 13))):
            g = f.scale(c)
            gausspoly._unit_candidates.cache_clear()
            cold = g.sup_abs()
            gausspoly._unit_candidates.cache_clear()
            f.sup_abs()
            before = gausspoly._unit_candidates.cache_info().hits
            warm = g.sup_abs()
            hits += gausspoly._unit_candidates.cache_info().hits - before
            assert warm.hex() == cold.hex(), (f, c)
    assert hits > 0  # some multiples did reuse the points of f


def exact_coeff_top(f):
    """The largest |c| over f's exact coefficients, as the normalizing key
    once read it."""
    return max(max(abs(complex(gausspoly._inexact(c))) for c in t.poly.terms.values()) for t in f.terms)


def exact_coeff_radius(f):
    """The guard-grid radius as it was once read from f's exact
    coefficients: the envelope sum_k |c_k| |x|^k e^{-a x^2} over each
    term's monomials, in the order the term holds them."""
    groups = [(float(t.decay[0]), [(e[0], abs(complex(gausspoly._inexact(c)))) for e, c in t.poly.terms.items()]) for t in f.terms]

    def envelope(x):
        return sum(sum(m * abs(x) ** k for k, m in mags) * math.exp(-a * x * x) for a, mags in groups)

    r = max(1.0, math.sqrt((max(t.poly.degree(0) for t in f.terms) + 2.0) / (2.0 * min(a for a, _ in groups))))
    e0 = envelope(r)
    if e0 == 0.0:
        return r
    for _ in range(200):
        r *= 1.25
        if envelope(r) <= 1e-18 * e0:
            break
    return r


def function_of_key(key):
    """The normalized function that a candidate key spells out, built term
    by term from its rows in ascending powers."""
    terms = []
    for a, re, im in key:
        im = im or (0.0,) * len(re)
        coeffs = {(k,): complex(r, i) if i else r for k, (r, i) in enumerate(zip(re[::-1], im[::-1]))}
        terms.append(gausspoly.GaussPolyTerm(SparsePoly(1, coeffs), (a,)))
    return GaussPolyFn(1, terms)


def test_rows_read_the_exact_coefficient_magnitudes_bit_for_bit():
    # the key's top and the guard grid read |c| from the float rows; they
    # equal the reads from the exact coefficients, on f itself (signed
    # ranges) and on the normalized function its key spells out (suprema)
    rng = random.Random(71)
    space = SchwartzSpace(1)
    seen = set()
    for k in range(90):
        kind = ("exact", "float", "complex")[k % 3]
        f = space.random_element(rng, max_degree=6, max_terms=3, exact=kind != "float")
        if rng.random() < 0.3:
            f = f.pow(2)
        if kind == "complex":
            f = f.fourier()
        if len(f.terms) > 3:
            continue
        seen.add((kind, len(f.terms)))
        key = f._norm_key()
        top = max(max(gausspoly._magnitudes(re, im)) for _, re, im in rows(f))
        assert top.hex() == exact_coeff_top(f).hex()
        unit = function_of_key(key)
        assert [(a, tuple(re), tuple(im)) for a, re, im in rows(unit)] == list(key)
        for g, g_rows in ((f, rows(f)), (unit, key)):
            r = exact_coeff_radius(g)
            assert gausspoly._guard_grid(g_rows).tobytes() == np.linspace(-r, r, 513).tobytes(), g
    assert seen >= {(kind, n) for kind in ("exact", "float", "complex") for n in (1, 2, 3)}, seen


def test_signed_range():
    lo, hi = XGAUSS.signed_range()
    want = (2 * math.e) ** -0.5
    assert abs(lo + want) < 1e-12 and abs(hi - want) < 1e-12
    lo, hi = GAUSS.signed_range()
    assert lo == 0.0 and abs(hi - 1.0) < 1e-15


def test_vectorised_eval_matches_scalar():
    rng = random.Random(37)
    xs = np.linspace(-9.0, 9.0, 301)
    for _ in range(20):
        f = random_fn(rng, max_degree=12, max_terms=3).add(random_fn(rng, max_degree=12, max_terms=3).fourier())
        got = gausspoly._eval_rows(rows(f), xs)
        want = np.array([f._eval1(float(x)) for x in xs])
        envelope = max(float(np.abs(want).max()), 1e-300)
        assert np.abs(got - want).max() <= 1e-13 * envelope


def polyval_per_group(f, xs):
    """The evaluator that the stacked one replaced: np.polyval and np.exp
    once per decay group, summed in term order."""
    x2 = xs * xs
    out = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in f.terms:
            a, re_desc, im_desc = t.flat1()
            v = np.polyval(re_desc, xs)
            if im_desc:
                v = v + 1j * np.polyval(im_desc, xs)
            e = np.exp(-a * x2)
            out = out + np.where(e == 0.0, 0.0, v * e)
    return out


def test_stacked_eval_is_the_per_group_polyval_bit_for_bit():
    # real, complex and mixed functions, on the guard grid and far out
    # where Gaussian factors underflow
    rng = random.Random(43)
    fns = [random_fn(rng, max_degree=12, max_terms=3) for _ in range(15)]
    fns += [random_fn(rng, max_degree=6, max_terms=3).fourier() for _ in range(5)]
    fns += [f.add(random_fn(rng, max_degree=8, max_terms=2)) for f in fns[-5:]]
    fns += [random_fn(rng, max_terms=3).pow(m) for m in (2, 3, 4)]
    far = np.array([0.0, -0.0, 1e-300, 27.0, -40.0, 3.4809431553297174e22])
    for f in fns:
        for xs in (gausspoly._guard_grid(rows(f)), far):
            got, want = gausspoly._eval_rows(rows(f), xs), polyval_per_group(f, xs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_eval_far_out_is_zero_not_nan():
    # the polynomial factor overflows to inf at 3.5e22 while the Gaussian
    # factor underflows to 0; the term is 0 there, not inf * 0
    f = GaussPolyFn.from_term({(16,): Fraction(3)}, (Fraction(8),)).add(XGAUSS)
    x = 3.4809431553297174e22
    assert f.eval((x,)) == 0
    assert gausspoly._eval_rows(rows(f), np.array([x, -x])).tolist() == [0.0, 0.0]
    assert math.isfinite(f.sup_abs())


# -- Fourier transform -------------------------------------------------------


def quadrature_fourier_oracle(f, xi):
    ts = np.linspace(-14.0, 14.0, 28001)
    vals = eval_json(f.to_json(), ts) * np.exp(-2j * np.pi * ts * xi)
    return complex(np.trapezoid(vals, ts))


def test_fourier_gaussian_base_rule():
    fhat = GAUSS.fourier()
    # sqrt(pi) e^{-pi^2 xi^2}
    assert abs(fhat.eval((0.0,)) - math.sqrt(math.pi)) < 1e-14
    for xi in (0.0, 0.3, 0.75, -1.1):
        want = math.sqrt(math.pi) * math.exp(-math.pi**2 * xi * xi)
        assert abs(fhat.eval((xi,)) - want) < 1e-12


def test_fourier_vs_quadrature_oracle():
    rng = random.Random(17)
    for _ in range(6):
        f = random_fn(rng, max_degree=4)
        fhat = f.fourier()
        for xi in (0.0, 0.4, -0.9):
            want = quadrature_fourier_oracle(f, xi)
            assert abs(fhat.eval((xi,)) - want) < 1e-9 * (1 + abs(want))


def test_fourier_xf_recursion():
    # F[x f] = (i / 2 pi) d/dxi F[f]
    f = GAUSS
    lhs = f.monomial_mul((1,)).fourier()
    rhs = f.fourier().diff((1,)).scale(1j / (2 * math.pi))
    assert lhs.approx_eq(rhs, 1e-12)


def test_fourier_roundtrip():
    f = GaussPolyFn.from_term({(0,): Fraction(1), (2,): Fraction(1)}, (Fraction(1),))
    assert f.fourier().inv_fourier().approx_eq(f, 1e-12)


def test_fourier_zero_and_dim_guard():
    assert GaussPolyFn.zero(1).fourier().is_zero()
    with pytest.raises(NotImplementedError):
        GaussPolyFn.gaussian((Fraction(1), Fraction(1))).fourier()


# -- evaluation and serialization -------------------------------------------


def test_eval_examples():
    assert GAUSS.eval((0.0,)) == 1.0
    assert abs(XGAUSS.eval((1.0,)) - math.exp(-1)) < 1e-15
    assert GaussPolyFn.zero(1).eval((2.0,)) == 0.0


def test_json_roundtrip_exact():
    f = GaussPolyFn.from_term({(0,): Fraction(1, 3), (4,): Fraction(-7, 2)}, (Fraction(1, 2),))
    doc = f.to_json()
    assert GaussPolyFn.from_json(doc) == f
    # rationals are carried as exact strings
    assert doc["terms"][0]["poly"][0]["re"] == "1/3"


def test_json_roundtrip_complex():
    f = GAUSS.fourier()
    g = GaussPolyFn.from_json(f.to_json())
    assert g.approx_eq(f, 1e-15)


def test_merge_on_equal_decay():
    f = GAUSS.add(GAUSS.scale(2))
    assert f.term_count() == 1
    assert f == GAUSS.scale(3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.sampled_from("amdspx"), min_size=1, max_size=5))
def test_closure_under_operation_chains(seed, ops):
    # every chained operation stays in the class with positive decay rates
    rng = random.Random(seed)
    f = random_fn(rng)
    for o in ops:
        if o == "a":
            f = f.add(random_fn(rng))
        elif o == "m":
            f = f.mul(random_fn(rng, max_degree=2))
        elif o == "d":
            f = f.diff((rng.randint(0, 2),))
        elif o == "s":
            f = f.scale(Fraction(rng.randint(-3, 3), 2))
        elif o == "p":
            f = f.pow(rng.randint(1, 2)) if not f.is_zero() else f
        elif o == "x":
            f = f.monomial_mul((rng.randint(0, 2),))
    for t in f.terms:
        assert all(a > 0 for a in t.decay)
        assert not t.poly.is_zero()

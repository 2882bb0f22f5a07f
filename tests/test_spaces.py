import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsemcalc.gausspoly import GaussPolyFn
from fsemcalc.seminorms import f_norm, family_max
from fsemcalc.spaces import (
    SchwartzSpace,
    SeqElement,
    SigmaRhoSpace,
    SSpace,
    scaling_property_check,
    sigma_inclusion_check,
    space_from_json,
)

SIGMA = SigmaRhoSpace(0.5)
S = SSpace()
SCH = SchwartzSpace(1)

entries = st.lists(st.integers(-8, 8).map(lambda v: Fraction(v, 2)), max_size=5)


# -- SeqElement ---------------------------------------------------------------


def test_seq_element_trimming_and_entry():
    x = SeqElement([1, 2, 0, 0])
    assert x.prefix == (1, 2)
    assert x.entry(2) == 2 and x.entry(7) == 0
    w = SeqElement([1, 1], tail=1)
    assert w.prefix == ()  # fully constant
    assert w.entry(100) == 1


def test_seq_arithmetic():
    x, y = SeqElement([1, 2]), SeqElement([3], tail=1)
    assert x.add(y) == SeqElement([4, 3], tail=1)
    assert x.sub(x).is_zero()
    assert x.scale(2) == SeqElement([2, 4])
    assert y.power(2) == SeqElement([9], tail=1)
    assert SeqElement([2]).poly_apply([1, 3]) == SeqElement([2 + 12])


@settings(max_examples=60, deadline=None)
@given(entries, entries)
def test_seq_group_laws(a, b):
    x, y = SeqElement(a), SeqElement(b)
    assert x.add(y).sub(y) == x
    assert x.add(y) == y.add(x)


def test_seq_json_roundtrip():
    x = SeqElement([1.5, -2.0], tail=0.25)
    assert SeqElement.from_json(x.to_json()) == x


mixed = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


def _bit(v):
    """A value with its type; a float by its bits, signed zeros included."""
    return type(v), v.hex() if type(v) is float else v


def _bits(x: SeqElement):
    return [_bit(v) for v in x.prefix + (x.tail,)]


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed, max_size=5), mixed, st.lists(mixed, max_size=5), mixed)
@example([-0.0], 1, [], 0)  # -0.0 minus an exact zero
def test_seq_sub_is_add_of_negation(a, ta, b, tb):
    # one pass, same values: floats bitwise, exact entries exact
    x, y = SeqElement(a, ta), SeqElement(b, tb)
    assert _bits(x.sub(y)) == _bits(x.add(y.scale(-1)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6), max_size=6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
def test_seq_json_roundtrip_is_lossless_on_fractions(prefix, tail):
    x = SeqElement(prefix, tail)
    doc = json.loads(json.dumps(x.to_json()))
    assert all(isinstance(v, str) for v in doc["prefix"] + [doc["tail"]])
    y = SeqElement.from_json(doc)
    assert y == x and all(type(v) is Fraction for v in y.prefix + (y.tail,))


# -- one-pass family maxima and restriction -----------------------------------

signed = st.one_of(mixed, st.just(-0.0), st.just(0.0))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([0.3, 0.5, 0.7, None]),
    st.lists(signed, max_size=6),
    signed,
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
)
@example(0.5, [-0.0, 0.0], 0, [2, 1, 7])
@example(None, [Fraction(1, 3), -0.0], -0.0, [3, 2])
def test_sequence_family_max_is_the_max_of_its_seminorms_bit_for_bit(rho, prefix, tail, ids):
    # one pass over the coordinates, ids beyond the prefix reading the tail,
    # gives the float that one seminorm call per id gives, in the same order
    space = SSpace() if rho is None else SigmaRhoSpace(rho)
    x = SeqElement(prefix, tail if rho is None else 0)
    want = max(space.seminorm(k, x) for k in ids)
    assert space.family_max(x, ids).hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(st.lists(signed, max_size=8), signed, st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_restrict_keeps_every_coordinate_its_index_set_reads(prefix, tail, J):
    # entries up to max J are kept, each as it is or, when it is 0, as the
    # exact 0; each J-seminorm is the same float
    for space, x in ((S, SeqElement(prefix, tail)), (SIGMA, SeqElement(prefix, 0))):
        r = space.restrict(x, J)
        assert len(r.prefix) <= max(J) and r.tail == 0
        for k in range(1, max(J) + 1):
            assert _bit(r.entry(k)) == _bit(x.entry(k)) or r.entry(k) == x.entry(k) == 0
            assert space.seminorm(k, r).hex() == space.seminorm(k, x).hex()
    f = GaussPolyFn.gaussian((Fraction(1),))
    assert SCH.restrict(f, [((0,), (0,))]) is f


# -- sigma_rho ----------------------------------------------------------------


def test_sigma_seminorm_metric_sup_examples():
    x = SeqElement([4, 1])
    assert SIGMA.seminorm(1, x) == 2.0
    assert SIGMA.metric(x, SeqElement.zero()) == 3.0
    assert SIGMA.p_sup(x) == 4.0
    assert SIGMA.p_sup_prefix(x, 1) == 4.0
    assert all(SIGMA.seminorm(k, SeqElement.zero()) == 0.0 for k in range(1, 6))


def test_sigma_rejects_nonzero_tail():
    with pytest.raises(ValueError):
        SIGMA.seminorm(1, SeqElement([1], tail=2))
    with pytest.raises(ValueError):
        SIGMA.family_max(SeqElement([1], tail=2), [1])
    with pytest.raises(ValueError):
        SIGMA.metric(SeqElement([1], tail=1), SeqElement.zero())


def test_rho_range_strict():
    with pytest.raises(ValueError):
        SigmaRhoSpace(1)
    with pytest.raises(ValueError):
        SigmaRhoSpace(0)
    with pytest.raises(ValueError):
        SigmaRhoSpace(1.2)


def test_sigma_not_homogeneous_exact_factor():
    x = SeqElement([3])
    lhs = SIGMA.seminorm(1, x.scale(2))
    assert abs(lhs - 2**0.5 * SIGMA.seminorm(1, x)) < 1e-15
    assert lhs != 2 * SIGMA.seminorm(1, x)


def test_sigma_metric_translation_invariant():
    rng = random.Random(2)
    for _ in range(50):
        x, y, z = (SIGMA.random_element(rng) for _ in range(3))
        assert SIGMA.metric(x.add(z), y.add(z)) == pytest.approx(SIGMA.metric(x, y), abs=1e-12)
    # exact on the rational fast path
    for _ in range(50):
        x, y, z = (SIGMA.random_element(rng, exact=True) for _ in range(3))
        assert SIGMA.metric(x.add(z), y.add(z)) == SIGMA.metric(x, y)


def test_sigma_inclusion_check():
    r = sigma_inclusion_check(SeqElement([0.5, 0.25]), 0.3, 0.7)
    assert r["passed"] and r["member_rho"] and r["member_gamma"]
    assert sigma_inclusion_check(SeqElement.zero(), 0.3, 0.7)["passed"]
    r = sigma_inclusion_check(SeqElement([2]), 0.3, 0.7)
    assert r["entries_above_one"] == [1] and r["member_gamma"]
    with pytest.raises(ValueError):
        sigma_inclusion_check(SeqElement.zero(), 0.7, 0.3)


# -- S ------------------------------------------------------------------------


def test_s_seminorm_examples():
    x = SeqElement([3], tail=1)
    assert S.seminorm(1, x) == 0.75
    assert S.seminorm(5, x) == 0.5


def test_s_fnorm_and_metric():
    x = SeqElement([3], tail=1)
    assert abs(f_norm(S, x) - 5 / 8) < 1e-15
    assert S.metric(x, x) == 0.0


def test_s_metric_translation_invariant():
    rng = random.Random(6)
    for _ in range(50):
        x, y, z = (S.random_element(rng) for _ in range(3))
        assert S.metric(x.add(z), y.add(z)) == pytest.approx(S.metric(x, y), abs=1e-12)
    for _ in range(50):
        x, y, z = (S.random_element(rng, exact=True) for _ in range(3))
        assert S.metric(x.add(z), y.add(z)) == S.metric(x, y)


def test_scaling_property_check():
    x = SeqElement([1])
    assert scaling_property_check(x, 0.5)["passed"]
    assert scaling_property_check(x, 2.0)["passed"]
    assert scaling_property_check(x, 1.0)["passed"]
    # spot values from the formulas
    ax = x.scale(0.5)
    assert S.seminorm(1, ax) == pytest.approx(1 / 3)
    assert S.seminorm(1, x.scale(2)) == pytest.approx(2 / 3)


# -- Schwartz -----------------------------------------------------------------


def test_schwartz_seminorm_values():
    g = GaussPolyFn.gaussian((Fraction(1),))
    assert SCH.seminorm(((0,), (0,)), g) == 1.0
    assert abs(SCH.seminorm(((0,), (1,)), g) - math.sqrt(2 / math.e)) < 1e-13
    assert abs(SCH.seminorm((0, 1), g) - math.sqrt(2 / math.e)) < 1e-13  # int shorthand


def test_schwartz_seminorm_of_order_zero_builds_no_function(monkeypatch):
    g = GaussPolyFn.gaussian((Fraction(1),)).monomial_mul((2,))
    built = []
    original = GaussPolyFn.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GaussPolyFn, "__init__", counted)
    assert SCH.seminorm(((0,), (0,)), g) == pytest.approx(math.exp(-1))
    assert built == []


def test_schwartz_derivative_shift_identity():
    f = GaussPolyFn.gaussian((Fraction(1),)).monomial_mul((1,))
    lhs = SCH.seminorm(((1,), (0,)), f.diff((1,)))
    rhs = SCH.seminorm(((1,), (1,)), f)
    assert abs(lhs - rhs) < 1e-12 * (1 + rhs)


def test_schwartz_homogeneous():
    rng = random.Random(8)
    for _ in range(20):
        f = SCH.random_element(rng)
        s = rng.uniform(-3, 3)
        for sid in (((0,), (0,)), ((1,), (1,))):
            assert SCH.seminorm(sid, f.scale(s)) == pytest.approx(abs(s) * SCH.seminorm(sid, f), rel=1e-12)


def test_schwartz_family_max_is_the_max_of_its_seminorms_bit_for_bit(monkeypatch):
    # the members are taken in decreasing-bound order and the ones whose
    # bound is below the running maximum are skipped; the maximum is the
    # float that max over every seminorm gives
    taken = []
    sup_abs = GaussPolyFn.sup_abs

    def counting(self):
        taken.append(1)
        return sup_abs(self)

    monkeypatch.setattr(GaussPolyFn, "sup_abs", counting)

    def check(f, ids):
        taken.clear()
        got = family_max(SCH, f, ids)
        skipped = len(ids) - len(taken)
        want = max(SCH.seminorm(sid, f) for sid in ids)
        assert got.hex() == want.hex()
        return skipped

    # D e^{-x^2} = -2x e^{-x^2} is twice x e^{-x^2}: one-monomial bounds are
    # the suprema themselves, so the (1, 0) member is skipped
    gauss = GaussPolyFn.gaussian((Fraction(1),))
    assert check(gauss, [((0,), (1,)), ((1,), (0,))]) == 1
    assert check(gauss, [((1,), (0,)), ((0,), (1,))]) == 1
    rng = random.Random(19)
    pool = SCH.enum_ids(15)
    skipped = 0
    for _ in range(60):
        f = SCH.random_element(rng, max_degree=rng.choice([2, 4, 8]), max_terms=rng.choice([1, 2, 3]))
        if rng.random() < 0.3:
            f = f.pow(rng.choice([2, 3]))
        skipped += check(f, rng.sample(pool, rng.randint(1, 5)))
    assert skipped > 0


def test_schwartz_enum_order():
    ids = SCH.enum_ids(6)
    assert ids[0] == ((0,), (0,))
    orders = [sum(a) + sum(b) for a, b in ids]
    assert orders == sorted(orders)


def test_schwartz_enum_ids_keep_the_product_order():
    # the rule enum_ids had for every dimension n, taken at n = 1
    n, want, total = 1, [], 0
    while len(want) < 28:
        block = []
        for asum in range(total + 1):
            bsum = total - asum
            alphas = [a for a in itertools.product(range(asum + 1), repeat=n) if sum(a) == asum]
            betas = [b for b in itertools.product(range(bsum + 1), repeat=n) if sum(b) == bsum]
            block.extend((a, b) for a in alphas for b in betas)
        want.extend(sorted(block))
        total += 1
    assert SCH.enum_ids(28) == want[:28]


def test_space_from_json():
    assert space_from_json({"space": "sigma_rho", "rho": 0.5}).tag == "sigma_rho"
    assert space_from_json({"space": "s"}).tag == "s"
    assert space_from_json({"space": "schwartz", "n": 1}).tag == "schwartz"
    with pytest.raises(ValueError):
        space_from_json({"space": "banach"})
    # a Schwartz space of another dimension, or an n that is not the
    # integer 1, is refused rather than read as int(n)
    for n in (2, "1", 1.5, True):
        with pytest.raises(ValueError):
            space_from_json({"space": "schwartz", "n": n})

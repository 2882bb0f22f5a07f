import math
import random
from fractions import Fraction

import pytest

from fsemcalc.gausspoly import GaussPolyFn
from fsemcalc.seminorms import (
    FSeminorm,
    Neighborhood,
    axiom_report,
    f_norm,
    family_max,
    index_set,
    nbhd_algebra_check,
    separating_check,
)
from fsemcalc.spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace

SIGMA = SigmaRhoSpace(0.5)
S = SSpace()
SCH = SchwartzSpace(1)


def test_family_max_examples():
    assert family_max(SIGMA, SeqElement([4, 1]), [1, 2]) == 2.0
    assert family_max(SIGMA, SeqElement.zero(), [1, 2, 3]) == 0.0
    g = GaussPolyFn.gaussian((Fraction(1),))
    got = family_max(SCH, g, [((0,), (0,)), ((1,), (0,))])
    assert abs(got - 1.0) < 1e-14  # max(1, (2e)^{-1/2})


def test_index_set_dedup_and_nonempty():
    I = index_set(SIGMA, [2, 1, 2])
    assert I.ids == (2, 1)
    with pytest.raises(ValueError):
        index_set(SIGMA, [])


def test_nbhd_contains_strict():
    nb = Neighborhood(SIGMA, SeqElement.zero(), index_set(SIGMA, [1]), 0.5)
    assert nb.contains(SeqElement([0.2]))  # sqrt(0.2) ~ 0.447 < 0.5
    assert nb.contains(nb.center)
    assert not nb.contains(SeqElement([0.25]))  # exactly 0.5, strict


def test_nbhd_radius_positive():
    with pytest.raises(ValueError):
        Neighborhood(SIGMA, SeqElement.zero(), index_set(SIGMA, [1]), 0.0)


def test_f_norm_sigma_example():
    x = SeqElement([4, 1])
    assert abs(f_norm(SIGMA, x) - 11 / 24) < 1e-15
    assert f_norm(SIGMA, SeqElement.zero()) == 0.0


def test_f_norm_s_geometric_tail():
    x = SeqElement([3], tail=1)
    assert abs(f_norm(S, x) - 5 / 8) < 1e-15
    # agrees with the translation-invariant metric against the origin
    assert abs(f_norm(S, x) - S.metric(x, SeqElement.zero())) < 1e-15


def test_f_norm_requires_weights():
    with pytest.raises(ValueError):
        f_norm(SCH, GaussPolyFn.gaussian((Fraction(1),)))


def test_f_norm_definite_and_triangle():
    rng = random.Random(9)
    for space in (SIGMA, S):
        for _ in range(50):
            x = space.random_element(rng)
            assert (f_norm(space, x) == 0.0) == space.is_zero(x)
        for _ in range(50):
            x, y, z = (space.random_element(rng) for _ in range(3))
            dxy = f_norm(space, x.sub(y))
            dyz = f_norm(space, y.sub(z))
            dxz = f_norm(space, x.sub(z))
            assert dxz <= dxy + dyz + 1e-12


def test_family_max_subadditive():
    rng = random.Random(4)
    for space in (SIGMA, S):
        I = index_set(space, [1, 2, 3])
        for _ in range(100):
            x, y = space.random_element(rng), space.random_element(rng)
            lhs = family_max(space, space.add(x, y), I)
            assert lhs <= family_max(space, x, I) + family_max(space, y, I) + 1e-12


def test_axiom_report_passes_concrete_families():
    rng = random.Random(1)
    assert axiom_report(SIGMA, 1, rng=rng, n_samples=60).passed
    assert axiom_report(S, 2, rng=rng, n_samples=60).passed
    assert axiom_report(SCH, ((0,), (1,)), rng=rng, n_samples=10).passed


def test_axiom_report_subadditivity_spot_value():
    # concavity of t^rho: sqrt(2) <= 2 at a = b = 1
    assert abs(1 + 1) ** 0.5 <= 1 + 1


def test_axiom_report_rejects_shifted_seminorm():
    # p(x) = |t_1| + 1 violates p(theta) = 0
    p = FSeminorm("shifted", lambda x: abs(float(x.entry(1))) + 1.0)
    r = axiom_report(S, p, rng=random.Random(0), n_samples=20)
    assert not r.passed
    assert "(v)" in r.counterexample["axiom"]


def test_axiom_report_rejects_squared_modulus():
    # p(x) = |t_1|^2 violates subadditivity and the p(nx) <= n p(x) bound;
    # whichever the sampler hits first is a valid refutation
    p = FSeminorm("squared", lambda x: float(x.entry(1)) ** 2)
    r = axiom_report(S, p, rng=random.Random(0), n_samples=200)
    assert not r.passed
    assert r.counterexample["axiom"].startswith(("(ii)", "(vii)"))


def test_nbhd_algebra():
    rng = random.Random(7)
    assert nbhd_algebra_check(SIGMA, rng=rng, n_samples=120).passed
    assert nbhd_algebra_check(S, rng=rng, n_samples=120).passed


def test_additivity_specifically():
    # u, v in U_{I, lam/2} implies u + v in U_{I, lam}
    rng = random.Random(12)
    I = index_set(SIGMA, [1, 2])
    lam = 0.8
    hits = 0
    while hits < 50:
        u, v = SIGMA.random_element(rng), SIGMA.random_element(rng)
        if family_max(SIGMA, u, I) < lam / 2 and family_max(SIGMA, v, I) < lam / 2:
            hits += 1
            assert family_max(SIGMA, u.add(v), I) < lam


def test_separating():
    rng = random.Random(3)
    for space in (SIGMA, S, SCH):
        assert separating_check(space, rng=rng, n_samples=60).passed


def test_separating_witness_example():
    x = SeqElement([0, 0, 5])
    for sid in SIGMA.support_ids(x):
        if SIGMA.seminorm(sid, x) > 0:
            assert sid == 3
            assert SIGMA.seminorm(sid, x) == 5**0.5
            break
    else:
        pytest.fail("no witness found")


def test_separating_witness_schwartz():
    f = GaussPolyFn.gaussian((Fraction(1),)).monomial_mul((1,))
    sid = SCH.support_ids(f)[0]
    assert abs(SCH.seminorm(sid, f) - (2 * math.e) ** -0.5) < 1e-13


def test_report_json_shape():
    r = axiom_report(SIGMA, 1, rng=random.Random(0), n_samples=5)
    doc = r.to_json()
    assert set(doc) >= {"check", "passed", "counterexample", "samples", "tolerance"}

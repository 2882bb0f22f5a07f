"""The multi-index machinery at n = 2: exact algebra, approximate suprema."""

import random
from fractions import Fraction

import pytest

from fsemcalc.gausspoly import GaussPolyFn, leibniz_expand
from fsemcalc.spaces import SchwartzSpace

SCH2 = SchwartzSpace(2)
G2 = GaussPolyFn.gaussian((Fraction(1), Fraction(1)))


def test_algebra_is_exact_at_n2():
    f = G2.monomial_mul((1, 0))
    assert f.diff((1, 0)).diff((0, 2)) == f.diff((1, 2))
    g = G2.monomial_mul((0, 1))
    assert leibniz_expand(g, f, (1, 1)) == g.mul(f).diff((1, 1))
    assert f.mul(g) == G2.mul(G2).monomial_mul((1, 1))


def test_separable_eval():
    # e^{-x^2-y^2} at (1, 1) = e^{-2}
    import math

    assert abs(G2.eval((1.0, 1.0)) - math.exp(-2)) < 1e-15


def test_sup_n2_reports_tolerance():
    assert G2.sup_abs() == pytest.approx(1.0, abs=1e-6)
    f = G2.monomial_mul((1, 1))
    # sup |xy e^{-x^2-y^2}| = (2e)^{-1} at (1/sqrt 2, 1/sqrt 2)
    import math

    assert f.sup_abs() == pytest.approx(1 / (2 * math.e), rel=1e-4)


def test_seminorm_n2():
    got = SCH2.seminorm(((0, 0), (0, 0)), G2)
    assert got == pytest.approx(1.0, abs=1e-6)


def test_random_elements_n2():
    rng = random.Random(9)
    for _ in range(10):
        f = SCH2.random_element(rng)
        assert f.n == 2 and not f.is_zero()
        assert f.diff((1, 1)).n == 2


def test_enum_ids_n2_order():
    ids = SCH2.enum_ids(8)
    assert ids[0] == ((0, 0), (0, 0))
    orders = [sum(a) + sum(b) for a, b in ids]
    assert orders == sorted(orders)

"""The multi-index machinery at n = 2: the algebra is exact in any
dimension, while evaluation, suprema and Schwartz space are 1-dimensional
and refuse n = 2."""

from fractions import Fraction

import pytest

from fsemcalc.gausspoly import GaussPolyFn, leibniz_expand
from fsemcalc.spaces import SchwartzSpace

G2 = GaussPolyFn.gaussian((Fraction(1), Fraction(1)))


def test_algebra_is_exact_at_n2():
    f = G2.monomial_mul((1, 0))
    assert f.diff((1, 0)).diff((0, 2)) == f.diff((1, 2))
    g = G2.monomial_mul((0, 1))
    assert leibniz_expand(g, f, (1, 1)) == g.mul(f).diff((1, 1))
    assert f.mul(g) == G2.mul(G2).monomial_mul((1, 1))


@pytest.mark.parametrize("n", [2, 0, "1", 1.0, True])
def test_schwartz_space_is_one_dimensional(n):
    with pytest.raises(ValueError):
        SchwartzSpace(n)
    assert SchwartzSpace(1).n == 1


def test_sup_and_eval_refuse_n2():
    f = G2.monomial_mul((1, 1))
    with pytest.raises(NotImplementedError):
        f.sup_abs()
    with pytest.raises(NotImplementedError):
        f.eval((1.0, 1.0))
    with pytest.raises(NotImplementedError):
        f.seminorm((0, 0), (0, 0))

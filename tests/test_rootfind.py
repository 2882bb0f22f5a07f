import math
import random

import numpy as np

from fsemcalc.rootfind import poly_eval, real_roots, ternary_max, zoom_max


def test_linear_quadratic():
    assert real_roots([-2.0, 1.0]) == [2.0]
    r = real_roots([-1.0, 0.0, 1.0])  # x^2 - 1
    assert len(r) == 2
    assert abs(r[0] + 1) < 1e-12 and abs(r[1] - 1) < 1e-12
    assert real_roots([1.0, 0.0, 1.0]) == []  # x^2 + 1


def test_double_root_kept_as_candidate():
    # (x-1)^2: no sign change, Newton polish should still land near 1
    r = real_roots([1.0, -2.0, 1.0])
    assert any(abs(x - 1) < 1e-6 for x in r)


def test_known_cubic():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    r = real_roots([-6.0, 11.0, -6.0, 1.0])
    assert len(r) == 3
    for got, want in zip(r, (1, 2, 3)):
        assert abs(got - want) < 1e-11


def test_random_products_recovered():
    rng = random.Random(3)
    for _ in range(40):
        roots = sorted(rng.uniform(-4, 4) for _ in range(rng.randint(1, 6)))
        coeffs = [1.0]
        for r in roots:
            coeffs = [0.0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        got = real_roots(coeffs)
        for r in roots:
            assert min(abs(r - g) for g in got) < 1e-7 * (1 + abs(r))


def test_residual_small_at_roots():
    coeffs = [1.0, -3.0, 0.5, 2.0, 1.0]
    for r in real_roots(coeffs):
        assert abs(poly_eval(coeffs, r)) < 1e-9


def test_ternary_max():
    x = ternary_max(lambda t: -(t - 0.3) ** 2, -1.0, 1.0)
    assert abs(x - 0.3) < 1e-10
    x = ternary_max(lambda t: math.cos(t), -1.0, 1.0)
    assert abs(x) < 1e-6  # flat maximum: x-accuracy ~ sqrt(machine eps)


def test_zoom_max_several_brackets_match_ternary():
    # -sin(x)^2 peaks at every k*pi; asymmetric brackets around six of them
    # are refined together, each round evaluating every bracket in one call
    lo = [k * math.pi - 0.4 for k in range(-2, 4)]
    hi = [k * math.pi + 0.7 for k in range(-2, 4)]
    shapes = []

    def fn(xs):
        shapes.append(xs.shape)
        return -np.sin(xs) ** 2

    got = zoom_max(fn, lo, hi)
    assert all(shape[0] == len(lo) for shape in shapes)
    for x, a, b in zip(got, lo, hi):
        want = ternary_max(lambda t: -math.sin(t) ** 2, a, b)
        assert abs(x - want) < 1e-9

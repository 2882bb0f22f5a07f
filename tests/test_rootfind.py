import math
import random
import sys

import numpy as np

from fsemcalc import rootfind
from fsemcalc.rootfind import _XTOL, poly_diff, poly_eval, real_roots, real_roots_many, ternary_max


def poly_from_roots(roots):
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


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
        coeffs = poly_from_roots(roots)
        got = real_roots(coeffs)
        for r in roots:
            assert min(abs(r - g) for g in got) < 1e-7 * (1 + abs(r))


def test_residual_small_at_roots():
    coeffs = [1.0, -3.0, 0.5, 2.0, 1.0]
    for r in real_roots(coeffs):
        assert abs(poly_eval(coeffs, r)) < 1e-9


def test_simple_roots_change_sign_within_tolerance():
    # a bisected root lies in a bracket of width <= _XTOL * (1 + |r|) with a
    # float sign change; wherever the float sign at r -/+ that width is not
    # lost in Horner rounding, the sign change shows there
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        degree = rng.randint(3, 8)
        roots = []
        while len(roots) < degree:
            r = rng.uniform(-4, 4)
            if all(abs(r - q) > 0.3 for q in roots):
                roots.append(r)
        coeffs = poly_from_roots(roots)
        got = real_roots(coeffs)
        assert len(got) == len(roots)
        for r in got:
            h = _XTOL * (1.0 + abs(r))
            rounding = 2 * len(coeffs) * sys.float_info.epsilon * poly_eval([abs(c) for c in coeffs], abs(r) + h)
            if abs(poly_eval(poly_diff(coeffs), r)) * h <= 2 * rounding:
                continue
            checked += 1
            lo, hi = poly_eval(coeffs, r - h), poly_eval(coeffs, r + h)
            assert lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0)
    assert checked > 1000


def test_duplicate_seeds_refined_once_same_roots():
    # (x^2 + 1e-16)(x - 3)(x + 2): the companion matrix gives the pair
    # +-1e-8 i, near-real, so two seeds with the same real part; refining
    # every kept seed and deduplicating gives the same list
    coeffs = np.polynomial.polynomial.polymul([1e-16, 0.0, 1.0], poly_from_roots([3.0, -2.0])).tolist()
    seeds = [z for z in np.roots(coeffs[::-1]) if abs(z.imag) <= 1e-7 * (1.0 + abs(z.real))]
    assert len({z.real for z in seeds}) < len(seeds)
    scale = 1.0 + max(abs(z) for z in np.roots(coeffs[::-1]))
    every = sorted(rootfind._refine(coeffs, float(z.real), scale) for z in seeds)
    want = []
    for r in every:
        if not want or abs(r - want[-1]) > 1e-11 * (1.0 + abs(r)):
            want.append(r)
    assert real_roots(coeffs) == want


def roots_one_by_one(coeffs):
    """real_roots as it was before the batched core: np.roots per polynomial."""
    c = rootfind._strip(coeffs)
    if len(c) <= 3:
        return rootfind._low_degree_roots(c)
    seeds = np.roots(list(reversed(c)))
    scale = 1.0 + max(abs(s) for s in seeds)
    tol = rootfind._IMAG_TOL
    near_real = {float(z.real) for z in seeds if abs(z.imag) <= tol * (1.0 + abs(z.real))}
    out = sorted(rootfind._refine(c, x, scale) for x in near_real)
    dedup = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-11 * (1.0 + abs(r)):
            dedup.append(r)
    return dedup


def test_batched_roots_are_the_one_by_one_roots_bit_for_bit():
    # companions of one size share an eigvals call; every list of roots is
    # the one real_roots, and np.roots before it, gives for that polynomial
    rng = random.Random(17)
    polys = [
        [-2.0, 1.0],  # degree 1
        [1.0, 0.0, 1.0],  # degree 2, no real root
        [0.0, 0.0, 1.0],  # degree 2, double root at 0
        [0.0, 0.0, 0.0, 1.0],  # only zero roots: no companion at all
        [0.0, 0.0, 0.0, 0.0, -2.5, 0.0],  # the same after the top zero is cut
        [0.0, 0.0, 1.0, 1.0],  # two zero roots and a size-1 companion
        [0.0, -6.0, 11.0, -6.0, 1.0],  # a zero root beside 1, 2, 3
        [],
    ]
    for _ in range(300):
        degree = rng.randint(3, 14)
        c = [rng.choice([0.0, rng.uniform(-5.0, 5.0)]) for _ in range(degree)] + [rng.uniform(0.5, 5.0)]
        if rng.random() < 0.3:
            c = [0.0] * rng.randint(1, 4) + c
        polys.append(c)
    polys += [poly_from_roots(sorted(rng.uniform(-4, 4) for _ in range(rng.randint(3, 10)))) for _ in range(100)]

    def bits(roots):
        return [x.hex() for x in roots]

    want = [bits(roots_one_by_one(p)) for p in polys]
    assert [bits(r) for r in real_roots_many(polys)] == want
    assert [bits(real_roots(p)) for p in polys] == want
    assert want[3] == ["0x0.0p+0"]


def test_ternary_max():
    x = ternary_max(lambda t: -(t - 0.3) ** 2, -1.0, 1.0)
    assert abs(x - 0.3) < 1e-10
    x = ternary_max(lambda t: math.cos(t), -1.0, 1.0)
    assert abs(x) < 1e-6  # flat maximum: x-accuracy ~ sqrt(machine eps)

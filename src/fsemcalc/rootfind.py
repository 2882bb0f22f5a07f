"""Real roots of univariate real polynomials, refined by bisection.

:mod:`gausspoly` calls :func:`real_roots_many` once per function, on one
polynomial per decay group; the roots are that group's critical points, the
candidates of the 1-D supremum.  Seeds come from the companion-matrix
eigenvalues, one ``np.linalg.eigvals`` call per companion size;
:func:`real_roots` is the same computation for one polynomial.  Each
distinct near-real seed is polished once, to ~1e-13 x-accuracy, by
bisection when the float-evaluated polynomial changes sign across a bracket
of width at most 1e-13 * (1 + |x|) around it, by Newton steps otherwise
(even-multiplicity roots have no bracket, but they are still returned as
candidates).  The sign change is one of float values, so a root whose
bracket is narrower than the Horner rounding can be bracketed by rounding
alone: the result is a refined estimate, not a certified enclosure.

Coefficient lists are ascending: p(x) = c[0] + c[1] x + ... + c[d] x^d.

Maximization: :func:`ternary_max` is a scalar golden-section search for a
single bracket.  No supremum calls it; the benchmark tracer looks it up.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["real_roots", "real_roots_many", "poly_eval", "poly_diff", "ternary_max"]

_XTOL = 1e-13
# companion eigenvalues with |imag| <= _IMAG_TOL (1 + |real|) are kept as
# real seeds; a spurious candidate costs a caller only one evaluation
_IMAG_TOL = 1e-7


def poly_eval(coeffs, x: float) -> float:
    """Horner evaluation of an ascending coefficient list."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_diff(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _strip(coeffs):
    c = [float(v) for v in coeffs]
    top = max((abs(v) for v in c), default=0.0)
    if top == 0.0:
        return []
    while c and abs(c[-1]) <= 1e-300:
        c.pop()
    return c


def _bisect(coeffs, lo: float, hi: float, flo: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _XTOL * (1.0 + abs(mid)):
            return mid
        fmid = poly_eval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _newton_polish(coeffs, x: float) -> float:
    dcoeffs = poly_diff(coeffs)
    for _ in range(60):
        fx = poly_eval(coeffs, x)
        dfx = poly_eval(dcoeffs, x)
        if dfx == 0.0:
            break
        step = fx / dfx
        x -= step
        if abs(step) <= _XTOL * (1.0 + abs(x)):
            break
    return x


def _refine(coeffs, seed: float, scale: float) -> float:
    # Look for a float sign change across a bracket around the seed, widening
    # geometrically; fall back to Newton polish (even-multiplicity roots).
    # An eigenvalue seed of a simple root is usually already within the
    # target width, so the first bracket is that width and bisection is short.
    h = _XTOL * (1.0 + abs(seed))
    for _ in range(40):
        lo, hi = seed - h, seed + h
        flo, fhi = poly_eval(coeffs, lo), poly_eval(coeffs, hi)
        if (flo < 0.0) != (fhi < 0.0):
            return _bisect(coeffs, lo, hi, flo)
        h *= 4.0
        if h > 0.5 * scale:
            break
    return _newton_polish(coeffs, seed)


def _low_degree_roots(c):
    """Roots of a stripped list of at most three coefficients, closed form."""
    if len(c) <= 1:
        return []
    if len(c) == 2:
        return [-c[0] / c[1]]
    a2, a1, a0 = c[2], c[1], c[0]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    # numerically stable quadratic formula
    q = -0.5 * (a1 + math.copysign(s, a1))
    roots = {q / a2}
    if q != 0.0:
        roots.add(a0 / q)
    elif disc == 0.0:
        roots = {-a1 / (2.0 * a2)}
    return sorted(roots)


def _refined(c, seeds):
    """The sorted, deduplicated refinements of the near-real seeds of c
    (a list of Python numbers)."""
    scale = 1.0 + max(abs(z) for z in seeds)
    # a near-real conjugate pair gives the same real part twice: refine it once
    near_real = {z.real for z in seeds if abs(z.imag) <= _IMAG_TOL * (1.0 + abs(z.real))}
    out = sorted(_refine(c, x, scale) for x in near_real)
    dedup = []
    for r in out:
        if not dedup or abs(r - dedup[-1]) > 1e-11 * (1.0 + abs(r)):
            dedup.append(r)
    return dedup


def real_roots_many(polys):
    """:func:`real_roots` of every ascending coefficient list in polys.

    Each companion matrix is the one ``np.roots`` builds: the lowest zero
    coefficients become zero roots and are cut, and the rest, leading
    coefficient first, give a companion of the remaining degree (none when
    only zero roots remain).  Companions of one size are stacked and share
    one ``np.linalg.eigvals`` call, which runs LAPACK on each matrix as a
    call of its own would, so every list of roots is the one
    :func:`real_roots` returns for that polynomial alone.
    """
    out = [None] * len(polys)
    by_size = {}
    for k, coeffs in enumerate(polys):
        c = _strip(coeffs)
        if len(c) <= 3:
            out[k] = _low_degree_roots(c)
            continue
        zeros = next(i for i, v in enumerate(c) if v != 0.0)
        desc = c[zeros:][::-1]
        by_size.setdefault(len(desc) - 1, []).append((k, c, zeros, desc))
    for size, group in by_size.items():
        eigs = np.zeros((len(group), 0))
        if size:
            desc = np.array([d for _, _, _, d in group])
            companions = np.zeros((len(group), size, size))
            companions[:, 0, :] = -desc[:, 1:] / desc[:, :1]
            # the subdiagonal (i + 1, i) of each flattened matrix
            companions.reshape(len(group), -1)[:, size :: size + 1] = 1.0
            eigs = np.linalg.eigvals(companions)
        for (k, c, zeros, _), row in zip(group, eigs):
            out[k] = _refined(c, row.tolist() + [0.0] * zeros)
    return out


def real_roots(coeffs):
    """Real roots (refined, deduped, sorted) of an ascending-coefficient
    poly; near-real companion eigenvalues are kept as candidates."""
    return real_roots_many([coeffs])[0]


def ternary_max(fn, lo: float, hi: float) -> float:
    """Argmax of a unimodal fn on [lo, hi] by golden-section search, to 1e-12 relative."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12 * (1.0 + abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)

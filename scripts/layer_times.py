#!/usr/bin/env python3
"""Median per-call times of the supremum kernels on fixed inputs.

    python3 scripts/layer_times.py [--repeat N]

From the root of a checkout; the script imports fsemcalc from the
checkout's src/.  It prints one JSON object with the median of N timed
calls (time.perf_counter, seconds) of:

* ``GaussPolyFn.sup_abs`` on a one-, a two- and a twelve-group function,
  and on the Fourier transform of the two-group one (complex coefficients,
  two groups);
* ``rootfind.real_roots`` at degree 8, 16 and 24;
* one Schwartz ``seminorms.family_max`` over {(0,0), (0,1)}.

The candidate cache is emptied and each function rebuilt before every
timed supremum, so a call pays for the whole computation, as the first
supremum of a new function does.  The inputs are fixed, so two checkouts
can be compared on the same machine.
"""

import argparse
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fsemcalc import gausspoly, rootfind, seminorms  # noqa: E402
from fsemcalc.gausspoly import GaussPolyFn, GaussPolyTerm, SparsePoly  # noqa: E402
from fsemcalc.spaces import SchwartzSpace  # noqa: E402


def function(groups):
    """sum over (decay, {degree: coefficient}) of the polynomial times e^{-decay x^2}."""
    return GaussPolyFn(1, [GaussPolyTerm(SparsePoly(1, {(k,): c for k, c in poly.items()}), (a,)) for a, poly in groups])


def one_group():
    return function([(Fraction(1), {0: Fraction(1), 1: Fraction(2, 3), 3: Fraction(1, 3)})]).pow(3)


def two_groups():
    return function([(Fraction(1), {0: Fraction(1), 1: Fraction(2, 3)}), (Fraction(1, 2), {2: Fraction(-5, 2), 3: Fraction(1)})])


def two_groups_fourier():
    return two_groups().fourier()


def twelve_groups():
    return function([(Fraction(k, 4), {0: Fraction(1), k % 5: Fraction(k, 3)}) for k in range(1, 13)])


def poly_from_roots(roots):
    """Ascending coefficients of prod (x - r)."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def polynomial(degree):
    """Degree-many roots in [-3, 3], half of them as real pairs 0.01 apart."""
    roots = [-3.0 + 6.0 * k / (degree - 1) for k in range(degree)]
    return poly_from_roots([r + (0.01 if k % 4 == 1 else 0.0) for k, r in enumerate(roots)])


def median_time(call, prepare, repeat):
    times = []
    for _ in range(repeat):
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cold(build):
    def prepare():
        gausspoly._unit_candidates.cache_clear()
        return build()

    return prepare


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=200, help="timed calls per input (default 200)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    space = SchwartzSpace(1)
    family = seminorms.index_set(space, [((0,), (0,)), ((0,), (1,))])
    out = {
        "repeat": args.repeat,
        "sup_abs_s": {
            name: median_time(lambda f: f.sup_abs(), cold(build), args.repeat)
            for name, build in (
                ("1-group", one_group),
                ("2-group", two_groups),
                ("2-group-fourier", two_groups_fourier),
                ("12-group", twelve_groups),
            )
        },
        "real_roots_s": {
            f"degree-{d}": median_time(rootfind.real_roots, lambda d=d: polynomial(d), args.repeat) for d in (8, 16, 24)
        },
        "family_max_s": {
            "(0,0),(0,1)": median_time(lambda f: seminorms.family_max(space, f, family), cold(two_groups), args.repeat)
        },
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

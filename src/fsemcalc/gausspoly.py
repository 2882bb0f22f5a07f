"""Exact calculus on finite sums of (polynomial x anisotropic Gaussian) terms.

Functions of the form  sum_k q_k(x) * exp(-sum_i a_{k,i} x_i^2)  with every
decay rate a_{k,i} > 0 are rapidly decreasing, and the class is closed under
addition, scaling, multiplication, powers, monomial multiplication, partial
differentiation and (for n = 1) the Fourier transform.  That closure is what
makes exact seminorm evaluation possible downstream.

Coefficients are kept as exact rationals (Fraction/int) as long as every
input is rational; irrational constants (sqrt(pi), Fourier phases) switch the
affected coefficients to float/complex.  The algebra is exact in any
dimension n; evaluation and suprema are n = 1 only, computed in float at
the critical points of each decay group, plus a guard grid when there are
several groups; see :meth:`GaussPolyFn.sup_abs`.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import numpy as np

from . import multiindex as mi
from .rootfind import real_roots_many

__all__ = ["SparsePoly", "GaussPolyTerm", "GaussPolyFn", "leibniz_expand", "leibniz_summands"]

# Tolerance for merging float decay vectors and for approx-equality queries.
MERGE_TOL = 1e-12

# Largest exponent, multi-index entry or power m that a config may name, and
# largest decimal exponent of an exact string: they bound the work of a run.
MAX_ORDER = 16
MAX_DECIMAL_EXPONENT = 999
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


# Exact/inexact scalar helpers, shared with spaces.py.  Type tests, not
# isinstance: Fraction's ABC metaclass makes isinstance slow on every float.
def _is_exact(c) -> bool:
    return type(c) is int or type(c) is Fraction


def _inexact(c):
    return float(c) if type(c) is Fraction else c


def _is_number(v) -> bool:
    """v is an int, float or Fraction; a bool or a string is no number."""
    return not isinstance(v, bool) and isinstance(v, (int, float, Fraction))


# _cadd and _cmul: exact (a Fraction, also for int with int) when
# both operands are exact, else float/complex.  A Fraction operand is used
# as it is, and goes on the left, where Fraction's fast path takes an int.
# Two floats, the common case of sampled data, are tested for first.
def _cadd(a, b):
    ta, tb = type(a), type(b)
    if ta is float and tb is float:
        return a + b
    if ta is Fraction:
        if tb is Fraction or tb is int:
            return a + b
    elif ta is int:
        if tb is Fraction:
            return b + a
        if tb is int:
            return Fraction(a + b)
    return _inexact(a) + _inexact(b)


def _cmul(a, b):
    ta, tb = type(a), type(b)
    if ta is float and tb is float:
        return a * b
    if ta is Fraction:
        if tb is Fraction or tb is int:
            return a * b
    elif ta is int:
        if tb is Fraction:
            return b * a
        if tb is int:
            return Fraction(a * b)
    return _inexact(a) * _inexact(b)


def _json_num(v):
    """An exact value as its string ("1/3"), anything else as a float."""
    return str(Fraction(v)) if _is_exact(v) else float(v)


def _exact_from_json(s: str) -> Fraction:
    """An exact JSON string ("1/3", "2.5") as a Fraction, refused when it is
    too large for a float, as the config loader refuses such a JSON number:
    every seminorm reads the value as a float.  A zero denominator is
    refused, and so is a decimal exponent beyond MAX_DECIMAL_EXPONENT either
    way before Fraction(s) spends time on its digits."""
    e = _DECIMAL_EXPONENT.search(s)
    # length first: int() of a very long digit string takes time of its own
    if e and (len(e.group(1)) > 12 or abs(int(e.group(1))) > MAX_DECIMAL_EXPONENT):
        raise ValueError(f"exact number {s!r} has a decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    try:
        v = Fraction(s)
        float(v)
    except ZeroDivisionError:
        raise ValueError(f"exact number {s!r} has a zero denominator") from None
    except OverflowError:
        raise ValueError(f"exact number {s!r} is too large for a float") from None
    return v


def _config_int(v, what: str, lo: int, hi: int) -> int:
    """v as a config integer in [lo, hi]: a JSON integer, neither a bool nor
    2.0, within the limits that keep a run's work bounded."""
    if type(v) is not int or not lo <= v <= hi:
        raise ValueError(f"{what} must be a JSON integer in [{lo}, {hi}], got {v!r}")
    return v


def _config_number(v, what: str, inexact: bool = False):
    """v as a config number: an exact string as its Fraction, a JSON number
    as itself (a float when inexact); a bool or any other value is refused."""
    if isinstance(v, str):
        return _exact_from_json(v)
    if not _is_number(v):
        raise ValueError(f"{what} must be a number or an exact string, got {v!r:.80}")
    return float(v) if inexact else v


def _config_object(doc, what: str, keys) -> dict:
    """doc as a JSON object whose keys are among keys: a misspelt key is
    refused, not left to run as its default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r:.80}")
    for key in doc:
        if key not in keys:
            raise ValueError(f"{what} has the unknown key {key!r}; it takes {', '.join(keys) or 'none'}")
    return doc


def _config_choice(v, what: str, choices) -> str:
    """v when it is one of the names in choices, else refused."""
    if not isinstance(v, str) or v not in choices:
        raise ValueError(f"unknown {what} {v!r:.80}: expected one of {', '.join(choices)}")
    return v


def _creal(c):
    return c.real if isinstance(c, complex) else c


def _cimag(c):
    return c.imag if isinstance(c, complex) else 0


class SparsePoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for exp, c in terms.items():
                if c != 0:
                    if len(exp) != n:
                        raise ValueError(f"exponent {exp} has wrong dimension for n={n}")
                    self.terms[tuple(exp)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = _cadd(out.get(exp, 0), c)
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return SparsePoly(self.n, out)

    def neg(self) -> "SparsePoly":
        return SparsePoly(self.n, {e: -c for e, c in self.terms.items()})

    def scale(self, a) -> "SparsePoly":
        if a == 0:
            return SparsePoly(self.n)
        return SparsePoly(self.n, {e: _cmul(a, c) for e, c in self.terms.items()})

    def mul(self, other: "SparsePoly") -> "SparsePoly":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mi.add(e1, e2)
                s = _cadd(out.get(e, 0), _cmul(c1, c2))
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return SparsePoly(self.n, out)

    def monomial_mul(self, lam) -> "SparsePoly":
        return SparsePoly(self.n, {mi.add(e, lam): c for e, c in self.terms.items()})

    def diff(self, i: int) -> "SparsePoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = _cmul(e[i], c)
        return SparsePoly(self.n, out)

    def degree(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    def coeff_lists_1d(self):
        """Ascending real/imag float coefficient lists (n = 1 only)."""
        d = self.degree(0)
        re = [0.0] * (d + 1)
        im = [0.0] * (d + 1)
        for e, c in self.terms.items():
            v = _inexact(c)
            re[e[0]] = float(_creal(v))
            im[e[0]] = float(_cimag(v))
        return re, im

    def __repr__(self):
        return f"SparsePoly(n={self.n}, {self.terms!r})"


def _horner(rows, x):
    """Every descending coefficient row of rows at every point of x, by
    Horner, as ``np.polyval`` evaluates one row."""
    out = np.zeros((rows.shape[0], x.size))
    for k in range(rows.shape[1]):
        out *= x
        out += rows[:, k, None]
    return out


class GaussPolyTerm:
    """One summand q(x) * exp(-sum_i a_i x_i^2) with every a_i > 0."""

    __slots__ = ("poly", "decay", "_flat")

    def __init__(self, poly: SparsePoly, decay):
        decay = tuple(decay)
        if len(decay) != poly.n:
            raise ValueError("decay vector dimension mismatch")
        for a in decay:
            if not (a > 0):
                raise ValueError(f"decay rates must be > 0, got {decay}")
        self.poly = poly
        self.decay = decay
        self._flat = None

    def flat1(self):
        """(a, re_desc, im_desc) float Horner data, cached (n = 1 only);
        im_desc is empty when every coefficient is real."""
        if self._flat is None:
            re, im = self.poly.coeff_lists_1d()
            self._flat = (float(self.decay[0]), re[::-1], im[::-1] if any(im) else [])
        return self._flat

    def __repr__(self):
        return f"GaussPolyTerm({self.poly!r}, decay={self.decay!r})"


def _decay_close(a, b) -> bool:
    return all(
        (x == y) if (_is_exact(x) and _is_exact(y)) else abs(float(x) - float(y)) <= MERGE_TOL * (1.0 + abs(float(x)))
        for x, y in zip(a, b)
    )


def _decay_add(a, b):
    return tuple(_cadd(x, y) for x, y in zip(a, b))


class GaussPolyFn:
    """Finite sum of GaussPolyTerm, canonicalized by merging equal decays.

    The empty sum is the origin of the function space.  Instances are
    immutable by convention; every operation returns a new function (or
    the function itself when it would be an equal copy).  Each instance
    caches its first partial derivatives (:meth:`diff1`), so D^beta chains
    share their prefixes.
    """

    __slots__ = ("n", "terms", "_d1")

    def __init__(self, n: int, terms=()):
        self.n = n
        self._d1 = None
        merged: list[GaussPolyTerm] = []
        for t in terms:
            if t.poly.n != n:
                raise ValueError("term dimension mismatch")
            if t.poly.is_zero():
                continue
            for i, m in enumerate(merged):
                if _decay_close(m.decay, t.decay):
                    s = m.poly.add(t.poly)
                    if s.is_zero():
                        merged.pop(i)
                    else:
                        merged[i] = GaussPolyTerm(s, m.decay)
                    break
            else:
                merged.append(t)
        # one term order for evaluation, keys and JSON: equal functions
        # built in other orders sum their terms alike
        merged.sort(key=lambda t: t.decay)
        self.terms = tuple(merged)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int = 1) -> "GaussPolyFn":
        return cls(n, ())

    @classmethod
    def from_term(cls, poly_terms: dict, decay) -> "GaussPolyFn":
        decay = tuple(decay)
        n = len(decay)
        return cls(n, (GaussPolyTerm(SparsePoly(n, poly_terms), decay),))

    @classmethod
    def gaussian(cls, decay=(1,)) -> "GaussPolyFn":
        """exp(-sum a_i x_i^2)."""
        n = len(tuple(decay))
        return cls.from_term({mi.zero(n): Fraction(1)}, decay)

    # -- algebra ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "GaussPolyFn") -> "GaussPolyFn":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return GaussPolyFn(self.n, self.terms + other.terms)

    def sub(self, other: "GaussPolyFn") -> "GaussPolyFn":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return GaussPolyFn(self.n, self.terms + tuple(GaussPolyTerm(t.poly.neg(), t.decay) for t in other.terms))

    def scale(self, a) -> "GaussPolyFn":
        if a == 0:
            return GaussPolyFn.zero(self.n)
        return GaussPolyFn(self.n, tuple(GaussPolyTerm(t.poly.scale(a), t.decay) for t in self.terms))

    def mul(self, other: "GaussPolyFn") -> "GaussPolyFn":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(GaussPolyTerm(t1.poly.mul(t2.poly), _decay_add(t1.decay, t2.decay)))
        return GaussPolyFn(self.n, out)

    def pow(self, m: int) -> "GaussPolyFn":
        if m < 1:
            raise ValueError("power must be >= 1 (constants are not rapidly decreasing)")
        out = self
        for _ in range(m - 1):
            out = out.mul(self)
        return out

    def monomial_mul(self, lam) -> "GaussPolyFn":
        lam = mi.check(lam)
        if len(lam) != self.n:
            raise ValueError("dimension mismatch")
        if not any(lam):
            return self
        return GaussPolyFn(self.n, tuple(GaussPolyTerm(t.poly.monomial_mul(lam), t.decay) for t in self.terms))

    def diff1(self, i: int) -> "GaussPolyFn":
        """Single partial derivative d/dx_i; stays in class.  Computed once
        per instance and variable."""
        if self._d1 is None:
            self._d1 = [None] * self.n
        out = self._d1[i]
        if out is None:
            out = self._d1[i] = self._diff1(i)
        return out

    def _diff1(self, i: int) -> "GaussPolyFn":
        out = []
        for t in self.terms:
            # d/dx_i [q e^{-a x_i^2 - ...}] = (dq/dx_i - 2 a_i x_i q) e^{...}
            ai = t.decay[i]
            lam = [0] * self.n
            lam[i] = 1
            p = t.poly.diff(i).add(t.poly.monomial_mul(tuple(lam)).scale(_cmul(-2, ai)))
            out.append(GaussPolyTerm(p, t.decay))
        return GaussPolyFn(self.n, out)

    def diff(self, beta) -> "GaussPolyFn":
        beta = mi.check(beta)
        if len(beta) != self.n:
            raise ValueError("dimension mismatch")
        out = self
        for i, b in enumerate(beta):
            for _ in range(b):
                out = out.diff1(i)
        return out

    def seminorm(self, alpha, beta) -> float:
        """The Schwartz seminorm |f|_{alpha,beta} = sup |x^alpha D^beta f|."""
        return self.diff(beta).monomial_mul(alpha).sup_abs()

    def sup_bound(self) -> float:
        """B = sum over terms and monomials c x^j e^{-sum a_i x_i^2} of
        |c| prod_i (j_i / (2 a_i e))^(j_i / 2), a factor with j_i = 0 being 1.

        |x|^j e^{-a x^2} peaks at x^2 = j / (2a), where it is
        (j / (2 a e))^(j/2); the n-dimensional factor is the product of the
        one-dimensional ones, and the triangle inequality sums them, so
        sup |f| <= B.
        """
        out = 0.0
        for t in self.terms:
            scales = [2.0 * float(a) * math.e for a in t.decay]
            for e, c in t.poly.terms.items():
                v = abs(_inexact(c))
                for j, s in zip(e, scales):
                    if j:
                        v *= (j / s) ** (0.5 * j)
                out += v
        return out

    def reflect(self) -> "GaussPolyFn":
        """x -> -x (flips sign of odd-total-degree monomials)."""
        out = []
        for t in self.terms:
            p = SparsePoly(self.n, {e: c if mi.order(e) % 2 == 0 else -c for e, c in t.poly.terms.items()})
            out.append(GaussPolyTerm(p, t.decay))
        return GaussPolyFn(self.n, out)

    # -- analysis -----------------------------------------------------------

    def eval(self, x) -> complex:
        if self.n != 1:
            raise NotImplementedError("eval: n = 1 only")
        (x0,) = x
        return self._eval1(float(x0))

    def _eval1(self, x: float) -> complex:
        out_re = 0.0
        out_im = 0.0
        for t in self.terms:
            a, re_desc, im_desc = t.flat1()
            e = math.exp(-a * x * x)
            if e == 0.0:
                # far out the polynomial factor can overflow to inf, and
                # inf * 0 would poison the sum; the term is 0 there
                continue
            vr = 0.0
            vi = 0.0
            for c in re_desc:
                vr = vr * x + c
            for c in im_desc:
                vi = vi * x + c
            out_re += vr * e
            out_im += vi * e
        return complex(out_re, out_im)

    def has_real_coeffs(self, tol: float = 0.0) -> bool:
        return all(abs(_cimag(_inexact(c))) <= tol for t in self.terms for c in t.poly.terms.values())

    def term_count(self) -> int:
        return len(self.terms)

    def _norm_key(self):
        """Scale-invariant key (n = 1): each term's decay and float Horner
        rows divided by the largest coefficient magnitude.  Critical points
        of |c f| equal those of |f|, so candidate sets can be shared across
        scalar multiples; scaling by a power of two leaves the normalized
        mantissas bitwise identical."""
        rows = [t.flat1() for t in self.terms]
        top = max(max(_magnitudes(re, im)) for _, re, im in rows)
        return tuple((a, tuple(v / top for v in re), tuple(v / top for v in im)) for a, re, im in rows)

    def sup_abs(self) -> float:
        """sup over R of |f| (n = 1 only).

        |f| is evaluated at the critical points of each decay
        group's term f_k (real roots of one polynomial per group, refined by
        bisection; see :func:`_critical_points`) and at 0.  That is the
        whole computation for one group.  With several groups, cross terms
        can move the maximum off every per-group critical point, so a
        513-point guard grid over the region where the envelope is
        non-negligible (:func:`_guard_grid`) is evaluated in numpy and each
        of its local maxima is refined by scalar Newton steps
        (:func:`_newton_peak`); a grid point whose refined point is not
        clearly higher stays a candidate, so the value is at least the
        grid's.  The multi-group value is a grid-guarded estimate, not a
        certified bound.  The points come from
        f divided by its largest coefficient and are memoized on it
        (:func:`_unit_candidates`), so the value depends on f alone, not on
        which suprema ran before.
        """
        if self.n != 1:
            raise NotImplementedError("sup_abs: n = 1 only")
        if self.is_zero():
            return 0.0
        return max(abs(self._eval1(x)) for x in _unit_candidates(self._norm_key()))

    def signed_range(self):
        """(inf, sup) of the real part over R (n = 1, real coefficients).

        0 is always in the closure of the range (the function vanishes at
        infinity), so the returned interval contains 0.
        """
        if self.n != 1:
            raise NotImplementedError("signed_range: exact mode is n = 1 only")
        if self.is_zero():
            return 0.0, 0.0
        vals = [self._eval1(x).real for x in _unit_candidates(self._norm_key())]
        if len(self.terms) > 1:
            rows = [t.flat1() for t in self.terms]
            grid_vals = _eval_rows(rows, _guard_grid(rows)).real
            vals += [float(grid_vals.min()), float(grid_vals.max())]
        return min(0.0, min(vals)), max(0.0, max(vals))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for t in self.terms:
            poly = []
            for e, c in sorted(t.poly.terms.items()):
                v = _inexact(c)
                if _is_exact(c):
                    poly.append({"exp": list(e), "re": str(Fraction(c)), "im": "0"})
                else:
                    poly.append({"exp": list(e), "re": float(_creal(v)), "im": float(_cimag(v))})
            terms.append({"decay": [_json_num(a) for a in t.decay], "poly": poly})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, doc: dict) -> "GaussPolyFn":
        # int() would run n = 1.9 as 1 and x^1.5 as x, float() a decay of true as 1.0
        n = _config_int(doc["n"], "a function's n", 1, MAX_ORDER)
        terms = []
        for t in doc["terms"]:
            decay = tuple(_config_number(a, "a function's decay", True) for a in t["decay"])
            poly = {}
            for m in t["poly"]:
                re = _config_number(m["re"], "a function's coefficient", True)
                im = _config_number(m["im"], "a function's coefficient", True)
                if im == 0:
                    c = re
                else:
                    c = complex(float(re), float(im))
                poly[tuple(_config_int(e, "a function's exponent", 0, MAX_ORDER) for e in m["exp"])] = c
            terms.append(GaussPolyTerm(SparsePoly(n, poly), decay))
        return cls(n, terms)

    def approx_eq(self, other: "GaussPolyFn", tol: float = 1e-12) -> bool:
        d = self.sub(other)
        return all(abs(complex(_inexact(c))) <= tol for t in d.terms for c in t.poly.terms.values())

    def __eq__(self, other):
        if not isinstance(other, GaussPolyFn):
            return NotImplemented
        return self.n == other.n and self.sub(other).is_zero()

    def __hash__(self):
        return hash((self.n, len(self.terms)))

    # -- Fourier transform (n = 1) -----------------------------------------

    def fourier(self) -> "GaussPolyFn":
        """F[f](xi) = integral f(t) exp(-2 pi i t xi) dt, within the class.

        Built from F[exp(-a t^2)](xi) = sqrt(pi/a) exp(-pi^2 xi^2 / a) and
        F[t^k f] = (i / 2 pi)^k d^k/dxi^k F[f].  Coefficients go complex.
        """
        if self.n != 1:
            raise NotImplementedError("fourier: n >= 2 not supported in v1")
        out = GaussPolyFn.zero(1)
        for t in self.terms:
            a = float(t.decay[0])
            base = GaussPolyFn.from_term({(0,): math.sqrt(math.pi / a)}, (math.pi**2 / a,))
            for e, c in t.poly.terms.items():
                k = e[0]
                g = base.diff((k,))
                factor = _cmul(_inexact(c), (1j / (2 * math.pi)) ** k if k else 1.0)
                out = out.add(g.scale(factor))
        return out

    def inv_fourier(self) -> "GaussPolyFn":
        """Inverse transform via Finv[g](t) = F[g](-t)."""
        return self.fourier().reflect()

    def __repr__(self):
        return f"GaussPolyFn(n={self.n}, terms={len(self.terms)})"


def _magnitudes(re, im):
    """|c| of every entry of one term's Horner rows, as abs(complex(c)) of
    its coefficient c (0 for a missing power)."""
    return list(map(abs, map(complex, re, im))) if im else list(map(abs, re))


def _eval_rows(rows, xs):
    """f at every point of the 1-D float array xs, for the n = 1 function whose
    terms have the Horner rows ``rows`` (at least one (a, re_desc, im_desc),
    as :meth:`GaussPolyTerm.flat1` gives them): the vectorised
    :meth:`GaussPolyFn._eval1`, a real array when every coefficient is real.

    One Horner pass over a (terms x points) array and one ``np.exp``.  The
    rows are padded with leading zeros to one width, which leave the Horner
    value at 0, and the terms are summed in order, so each value is the one
    that a ``np.polyval`` and ``np.exp`` per term give.
    """
    width = max(len(re) for _, re, _ in rows)
    cplx = [k for k, (_, _, im) in enumerate(rows) if im]
    re = np.zeros((len(rows), width))
    im = np.zeros((len(cplx), width))
    for k, (_, r, _) in enumerate(rows):
        re[k, width - len(r):] = r
    for row, k in enumerate(cplx):
        im[row, width - len(rows[k][2]):] = rows[k][2]
    neg_a = -np.array([[a] for a, _, _ in rows])
    x = np.asarray(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(neg_a * (x * x))
        v = _horner(re, x)
        # as in _eval1: a term whose Gaussian factor underflows is 0
        terms = v * e
        if not e.all():
            terms = np.where(e == 0.0, 0.0, terms)
        if cplx:
            vc = v[cplx] + 1j * _horner(im, x)
            terms = terms.astype(complex)
            terms[cplx] = np.where(e[cplx] == 0.0, 0.0, vc * e[cplx])
        # a reduction over the first axis adds the rows in order
        return np.add.reduce(terms, axis=0)


def _guard_grid(rows):
    """The 513-point grid that multi-term suprema and signed ranges scan,
    out to the radius beyond which every term's envelope
    sum_k |c_k| |x|^k e^{-a x^2} is decreasing and the total envelope has
    dropped 1e18 below its value at the threshold."""
    # (k, |c_k|) in ascending powers, missing powers left out
    groups = [(a, [(k, m) for k, m in enumerate(_magnitudes(re, im)[::-1]) if m]) for a, re, im in rows]

    def envelope(x: float) -> float:
        out = 0.0
        for a, mags in groups:
            out += sum(m * abs(x) ** k for k, m in mags) * math.exp(-a * x * x)
        return out

    amin = min(a for a, _, _ in rows)
    dmax = max(len(re) for _, re, _ in rows) - 1
    r = max(1.0, math.sqrt((dmax + 2.0) / (2.0 * amin)))
    e0 = envelope(r)
    if e0 != 0.0:
        for _ in range(200):
            r *= 1.25
            if envelope(r) <= 1e-18 * e0:
                break
    return np.linspace(-r, r, 513)


def _gauss_diff(a, asc):
    """Ascending coefficients of q' - 2 a x q, the polynomial factor of
    (q e^{-a x^2})', from the ascending coefficients asc of q."""
    out = [i * v for i, v in enumerate(asc)][1:] + [0.0, 0.0]
    for i, v in enumerate(asc):
        out[i + 1] -= 2.0 * a * v
    return out


def _critical_points(rows):
    """0 and the critical points of each term f_k = q_k e^{-a_k x^2} of the
    n = 1 function with Horner rows ``rows``, from one polynomial per term;
    all terms' roots come from one :func:`rootfind.real_roots_many` call.

    Real q: the roots of q' - 2 a x q, the polynomial part of f_k'
    (:func:`_gauss_diff`).  Complex q: the roots of the polynomial factor of
    d/dx |f_k|^2.
    """

    def pad_add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return out

    def ascending_diff(a):
        return [i * v for i, v in enumerate(a)][1:] or [0.0]

    polys = []
    for a, re_desc, im_desc in rows:
        re = re_desc[::-1]
        if not im_desc:
            polys.append(_gauss_diff(a, re))
            continue
        # d/dx |q e^{-a x^2}|^2 has polynomial factor
        #   re*re' + im*im' - 2 a x (re^2 + im^2)
        im = im_desc[::-1]
        s = pad_add(np.convolve(re, ascending_diff(re)), np.convolve(im, ascending_diff(im)))
        sq = pad_add(np.convolve(re, re), np.convolve(im, im))
        shifted = [0.0] + [-2.0 * a * v for v in sq]
        polys.append(pad_add(s, shifted))
    return [0.0] + [x for roots in real_roots_many(polys) for x in roots]


# Newton steps per guard-grid peak: from the vertex of the grid's parabola a
# step or three reach the step tolerance; where the grid under-resolves a
# narrow decay group, midpoints of the shrinking bracket lead the steps in,
# and the cap only ends a stray run.
# A grid point stays a candidate beside its refined point unless that is
# higher by more than _KEEP_GRID_MARGIN relative: the two values come from
# math.exp and np.exp on the normalized rows, and sup_abs evaluates f itself
_NEWTON_STEPS = 8
_NEWTON_XTOL = 1e-13
_KEEP_GRID_MARGIN = 1e-12


def _derivative_rows(rows):
    """(a, triples) per term (a, re, im) of rows: the descending
    coefficients (q, q_1, q_2) of q = re + i im, of q_1 = q' - 2 a x q and
    of q_2, the same map of q_1 (:func:`_gauss_diff`), so that f' and f''
    are the sums of q_1 e^{-a x^2} and q_2 e^{-a x^2}.  q and q_1 are padded
    with leading zeros to the length of q_2, which leave their Horner values
    as they are; a real q keeps float coefficients."""
    out = []
    for a, re, im in rows:
        q = list(map(complex, re, im)) if im else list(re)
        q1 = _gauss_diff(a, q[::-1])
        q2 = _gauss_diff(a, q1)
        out.append((a, list(zip([0.0, 0.0] + q, [0.0] + q1[::-1], q2[::-1]))))
    return out


def _newton_peak(drows, x, lo, hi):
    """A local maximum x of |f| in [lo, hi], refined from the start x, and
    |f(x)|, for the function with :func:`_derivative_rows` ``drows``.

    Newton steps x <- x - g / g' on g = Re(conj(f) f'), half the derivative
    of |f|^2, with g' = |f'|^2 + Re(conj(f) f'').  The sign of g at each
    point shrinks the bracket [lo, hi] towards the maximum; where g' >= 0
    (no maximum ahead) or the step would leave the bracket, the next point
    is the bracket's midpoint.  It stops at a step of at most
    1e-13 (1 + |x|), which is not taken, or after _NEWTON_STEPS steps.  f is
    evaluated with ``math.exp``, as :meth:`GaussPolyFn._eval1` evaluates it.
    """
    for k in range(_NEWTON_STEPS + 1):
        f = f1 = f2 = 0.0
        for a, triples in drows:
            e = math.exp(-a * x * x)
            if e == 0.0:
                continue
            v = v1 = v2 = 0.0
            for c, c1, c2 in triples:
                v = v * x + c
                v1 = v1 * x + c1
                v2 = v2 * x + c2
            f += v * e
            f1 += v1 * e
            f2 += v2 * e
        if k == _NEWTON_STEPS:
            break
        g = (f.conjugate() * f1).real
        curve = abs(f1) ** 2 + (f.conjugate() * f2).real
        # g > 0: |f| rises at x, so the maximum lies to its right
        if g > 0.0:
            lo = x
        else:
            hi = x
        nxt = 0.5 * (lo + hi)
        if curve < 0.0 and lo <= x - g / curve <= hi:
            nxt = x - g / curve
        if abs(nxt - x) <= _NEWTON_XTOL * (1.0 + abs(x)):
            break
        x = nxt
    return x, abs(f)


@functools.lru_cache(maxsize=8192)
def _unit_candidates(key):
    """The points at which :meth:`GaussPolyFn.sup_abs` evaluates every
    scalar multiple of the n = 1 function whose normalized Horner rows are
    key (:meth:`GaussPolyFn._norm_key`).  They are computed from key alone,
    so a memo hit returns what a miss computes.
    """
    cands = _critical_points(key)
    if len(key) > 1:
        # cross-decay interference can move the maximum off every
        # per-group critical point: guard with a grid over the region
        # where the envelope is non-negligible, refining local maxima
        grid = _guard_grid(key)
        vals = np.abs(_eval_rows(key, grid))
        mid = vals[1:-1]
        peaks = np.flatnonzero((mid >= vals[:-2]) & (mid >= vals[2:]) & (mid > 0.0)) + 1
        if peaks.size:
            # start each Newton pass at the vertex of the parabola through
            # the three grid values around the peak
            left, top, right = vals[peaks - 1], vals[peaks], vals[peaks + 1]
            curve = left - 2.0 * top + right
            half = 0.5 * (grid[1] - grid[0])
            with np.errstate(divide="ignore", invalid="ignore"):
                starts = np.where(curve < 0.0, grid[peaks] + half * (left - right) / curve, grid[peaks])
            drows = _derivative_rows(key)
            for i, x0, peak in zip(peaks.tolist(), starts.tolist(), top.tolist()):
                x, value = _newton_peak(drows, x0, float(grid[i - 1]), float(grid[i + 1]))
                cands.append(x)
                # the grid point stays a candidate unless the refined point
                # is clearly higher, so no supremum falls below its guard grid
                if value <= peak * (1.0 + _KEEP_GRID_MARGIN):
                    cands.append(float(grid[i]))
    seen = set()
    uniq = []
    for c in cands:
        bucket = round(c, 13)
        if bucket not in seen:
            seen.add(bucket)
            uniq.append(c)
    return tuple(uniq)


def leibniz_summands(g: GaussPolyFn, f: GaussPolyFn, beta):
    """Summands binom(beta,k) * D^{beta-k}g * D^k f over all k <= beta."""
    beta = mi.check(beta)
    out = []
    for k in mi.downward_closure(beta):
        coeff = mi.binom(beta, k)
        out.append(g.diff(mi.sub(beta, k)).mul(f.diff(k)).scale(coeff))
    return out


def leibniz_expand(g: GaussPolyFn, f: GaussPolyFn, beta) -> GaussPolyFn:
    """Product-rule expansion of D^beta(g f); equals (g f).diff(beta) exactly."""
    if g.n != f.n:
        raise ValueError("dimension mismatch")
    out = GaussPolyFn.zero(g.n)
    for s in leibniz_summands(g, f, beta):
        out = out.add(s)
    return out

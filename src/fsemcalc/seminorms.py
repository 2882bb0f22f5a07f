"""F-seminorm machinery: index sets, neighborhoods, F-norms, axiom checks.

Everything here is generic over a *space* object (see spaces.py) providing
element arithmetic, a seminorm family addressed by ids, and samplers.  The
checks are falsification harnesses: they check behaviour on the sampled
elements and report a counterexample on the first violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

__all__ = [
    "FSeminorm",
    "IndexSet",
    "Neighborhood",
    "CheckReport",
    "family_max",
    "f_norm",
    "axiom_report",
    "nbhd_algebra_check",
    "separating_check",
]

REL_SLACK = 1e-9  # float slack for inequalities that hold exactly in the math
ZERO_TOL = 1e-12
VANISH_TOL = 1e-9  # axiom (iv): the schedule must push p below this


@dataclass(frozen=True)
class FSeminorm:
    """A single functional p: X -> R_+ with a stable id."""

    sid: object
    fn: Callable

    def __call__(self, x) -> float:
        return self.fn(x)


@dataclass(frozen=True)
class IndexSet:
    """Nonempty finite set of seminorm ids from one family."""

    space_tag: str
    ids: tuple

    def __post_init__(self):
        if not self.ids:
            raise ValueError("index set must be nonempty")

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    def union(self, other: "IndexSet") -> "IndexSet":
        if other.space_tag != self.space_tag:
            raise ValueError("index sets from different spaces")
        return IndexSet(self.space_tag, tuple(dict.fromkeys(self.ids + other.ids)))


def index_set(space, ids) -> IndexSet:
    """The IndexSet of the ids in space's family; an IndexSet is returned
    as it is."""
    if isinstance(ids, IndexSet):
        return ids
    norm = [space.normalize_sid(s) for s in ids]
    return IndexSet(space.tag, tuple(dict.fromkeys(norm)))


def family_max(space, x, I) -> float:
    """max{p(x) : p in I}, as the space takes it (``space.family_max``)."""
    ids = I.ids if isinstance(I, IndexSet) else [space.normalize_sid(s) for s in I]
    if not ids:
        raise ValueError("index set must be nonempty")
    return space.family_max(x, ids)


@dataclass(frozen=True)
class Neighborhood:
    """U_{I,delta}(x0) = {x : max_{p in I} p(x - x0) < delta} (strict)."""

    space: object
    center: object
    I: IndexSet
    radius: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("radius must be > 0")

    def contains(self, x) -> bool:
        return family_max(self.space, self.space.sub(x, self.center), self.I) < self.radius


def _wrap(t: float) -> float:
    return t / (1.0 + t)


def f_norm(space, x) -> float:
    """sum_i a_i p_i(x) / (1 + p_i(x)) with a closed-form tail.

    Requires a countable weighted family (sequence spaces here; weights
    a_i = 2^-i).  The tail beyond the element's prefix is geometric because
    the remaining seminorm values are all equal.
    """
    if not getattr(space, "has_weights", False):
        raise ValueError(f"no weights configured for family {space.tag!r}")
    base = getattr(space, "fnorm_base", space.seminorm)
    n = x.support_len()
    acc = 0.0
    for k in range(1, n + 1):
        acc += float(space.weight(k)) * _wrap(base(k, x))
    # constant tail: every index beyond the prefix contributes the same value
    tail_val = _wrap(base(n + 1, x))
    acc += float(Fraction(1, 2) ** n) * tail_val
    return acc


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckReport:
    check: str
    passed: bool
    counterexample: object = None
    samples: int = 0
    tolerance: float = 0.0
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "samples": self.samples,
            "tolerance": self.tolerance,
            **({"details": self.details} if self.details else {}),
        }


def _resolve_seminorm(space, p) -> FSeminorm:
    if isinstance(p, FSeminorm):
        return p
    sid = space.normalize_sid(p)
    return FSeminorm(sid, lambda x, _s=sid: space.seminorm(_s, x))


def _vanishing_schedule(p: FSeminorm, space, x):
    """Axiom (iv) probe: p(a_n x) -> 0 along a decreasing scalar schedule.

    Passes when the run is nonincreasing after the 5th step and the final
    value is below VANISH_TOL.  The schedule 2^-n, n = 1..40, is extended
    (up to n = 400) while the trend is nonincreasing so far but the final
    value has not yet reached the threshold: slowly decaying families
    (|t|^rho with small rho) need the longer run to reach it.
    """
    vals = [p(space.scale(0.5**n, x)) for n in range(1, 41)]
    n_extend = 40
    while vals[-1] >= VANISH_TOL and n_extend < 400:
        n_extend += 1
        vals.append(p(space.scale(0.5**n_extend, x)))
    monotone = all(vals[i + 1] <= vals[i] * (1 + REL_SLACK) + ZERO_TOL for i in range(5, len(vals) - 1))
    return vals[-1] < VANISH_TOL and monotone, vals


def axiom_report(space, p, *, rng=None, n_samples: int = 100) -> CheckReport:
    """Check the F-seminorm axioms and their derived properties on samples.

    (i) nonnegativity, (ii) subadditivity, (iii) contraction under |a| <= 1,
    (iv) vanishing along a decreasing scalar schedule, plus the derived
    properties: p(theta) = 0, symmetry, p(nx) <= n p(x) with the reciprocal
    bound, monotone scaling |a| <= |b|  =>  p(ax) <= p(bx), and kernel
    absorption (p(x) = 0  =>  p(ax) = 0).
    """
    rng = rng or random.Random(0)
    p = _resolve_seminorm(space, p)

    theta = space.zero()
    v0 = p(theta)
    if not (abs(v0) <= ZERO_TOL):
        return CheckReport("axioms", False, {"axiom": "(v) p(theta)=0", "value": v0}, 0, VANISH_TOL)

    def fail(axiom, x, extra):
        ce = {"axiom": axiom, **extra}
        try:
            ce["element"] = space.element_to_json(x)
        except Exception:
            ce["element"] = repr(x)
        return CheckReport("axioms", False, ce, n_samples, VANISH_TOL)

    for i in range(n_samples):
        x = space.random_element(rng)
        y = space.random_element(rng)
        px, py = p(x), p(y)
        if px < 0 or py < 0:
            return fail("(i) nonnegativity", x, {"value": min(px, py)})
        ps = p(space.add(x, y))
        if ps > (px + py) * (1 + REL_SLACK) + ZERO_TOL:
            return fail("(ii) subadditivity", x, {"lhs": ps, "rhs": px + py})
        a = rng.uniform(-1, 1)
        if p(space.scale(a, x)) > px * (1 + REL_SLACK) + ZERO_TOL:
            return fail("(iii) contraction", x, {"a": a})
        ok, vals = _vanishing_schedule(p, space, x)
        if not ok:
            return fail("(iv) vanishing", x, {"final": vals[-1], "len": len(vals)})
        if abs(p(space.scale(-1, x)) - px) > px * REL_SLACK + ZERO_TOL:
            return fail("(vi) symmetry", x, {})
        n = rng.randint(1, 5)
        pnx = p(space.scale(n, x))
        if pnx > n * px * (1 + REL_SLACK) + ZERO_TOL:
            return fail("(vii) p(nx) <= n p(x)", x, {"n": n, "lhs": pnx, "rhs": n * px})
        pfr = p(space.scale(Fraction(1, n), x))
        if not (px * (1 + REL_SLACK) + ZERO_TOL >= pfr >= px / n * (1 - REL_SLACK) - ZERO_TOL):
            return fail("(vii) p(x) >= p(x/n) >= p(x)/n", x, {"n": n, "p(x/n)": pfr})
        a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
        if abs(a) > abs(b):
            a, b = b, a
        if p(space.scale(a, x)) > p(space.scale(b, x)) * (1 + REL_SLACK) + ZERO_TOL:
            return fail("(viii) monotone scaling", x, {"a": a, "b": b})
        if px <= 1e-14:
            a = rng.uniform(-5, 5)
            if p(space.scale(a, x)) > ZERO_TOL:
                return fail("(ix) kernel absorption", x, {"a": a})
    return CheckReport("axioms", True, None, n_samples, VANISH_TOL, details={"sid": str(p.sid)})


def nbhd_algebra_check(space, *, rng=None, n_samples: int = 200) -> CheckReport:
    """Neighborhood-basis algebra on samples over the first six seminorms:
    monotone in the radius, antitone in the index set, U_{I u K} = U_I n U_K,
    and additivity U_{I,l1} + U_{I,l2} inside U_{I,l1+l2}."""
    rng = rng or random.Random(0)
    ids = space.enum_ids(6)

    def rand_I():
        k = rng.randint(1, min(3, len(ids)))
        return index_set(space, rng.sample(ids, k))

    for i in range(n_samples):
        x = space.random_element(rng)
        I = rand_I()
        K = rand_I()
        lam1 = rng.uniform(0.05, 1.5)
        lam2 = rng.uniform(0.05, 1.5)
        m = family_max(space, x, I)
        # (iii) radius monotonicity
        if m < min(lam1, lam2) and not m < max(lam1, lam2):
            return CheckReport("nbhd_algebra", False, {"part": "radius-monotone"}, i, 0.0)
        # (iv)/(v) index-set antitonicity through the union identity
        IuK = I.union(K)
        in_union = family_max(space, x, IuK) < lam1
        if in_union != (family_max(space, x, I) < lam1 and family_max(space, x, K) < lam1):
            return CheckReport(
                "nbhd_algebra", False, {"part": "union-intersection", "element": space.element_to_json(x)}, i, 0.0
            )
        # (vi) additivity on a random pair
        u = space.random_element(rng)
        v = space.random_element(rng)
        if family_max(space, u, I) < lam1 and family_max(space, v, I) < lam2:
            if not family_max(space, space.add(u, v), I) < lam1 + lam2:
                return CheckReport("nbhd_algebra", False, {"part": "additivity"}, i, 0.0)
    return CheckReport("nbhd_algebra", True, None, n_samples, 0.0)


def separating_check(space, *, rng=None, n_samples: int = 200) -> CheckReport:
    """Every sampled nonzero element gets a witness p with p(x) > 0; the
    search is bounded by the element's representation."""
    rng = rng or random.Random(0)
    checked = 0
    for i in range(n_samples):
        x = space.random_element(rng)
        if space.is_zero(x):
            continue
        checked += 1
        witness = None
        for sid in space.support_ids(x):
            if space.seminorm(sid, x) > 0:
                witness = sid
                break
        if witness is None:
            return CheckReport(
                "separating", False, {"element": space.element_to_json(x)}, checked, 0.0
            )
    return CheckReport("separating", True, None, checked, 0.0)

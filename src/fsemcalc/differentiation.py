"""The epsilon-delta verification engine.

Continuity, Gateaux directional differentiability and Frechet
differentiability (conditions (DZ)/(DR)) are checked against explicit
(I, delta) data.  Wherever the theory supplies a constructive delta recipe
(power operators on the three spaces, linear operators via their seminorm
bounds) that recipe is used and recorded; otherwise a geometric delta search
is the fallback.  Scalar divisions (residual/t, residual/max p(u)) always
happen on the element *before* any seminorm is applied: the F-seminorms are
not homogeneous, so dividing seminorm values instead would change the
meaning of the conditions.

All witnesses are value objects with JSON projections; runs are
deterministic given a seeded random generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from . import multiindex as mi
from .gausspoly import _config_choice, _is_exact, _is_number
from .operators import (
    Diagonal,
    IdentityScaled,
    LinearMap,
    MultiplyBy,
    Operator,
    analytic_frechet,
    linmap_add,
    linmap_scale,
    seminorm_bound,
)
from .seminorms import CheckReport, IndexSet, family_max, index_set
from .spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace

__all__ = [
    "SampleRecord",
    "GateauxWitness",
    "FrechetWitness",
    "ContinuityWitness",
    "NoRecipeError",
    "default_t_schedule",
    "gateaux_residual",
    "verify_gateaux",
    "dr_ratio",
    "delta_constructor",
    "verify_frechet",
    "continuity_delta",
    "continuity_verify",
    "fnorm_translate_forward",
    "fnorm_translate_backward",
    "uniqueness_probe",
    "RescaledFamily",
    "basis_independence_check",
    "frechet_implies_continuity_check",
]

EXACT_ZERO_TOL = 1e-12
MAX_STORED_SAMPLES = 100


class NoRecipeError(LookupError):
    """No constructive delta recipe exists for this operator kind."""


def default_t_schedule():
    """t in {+-10^-k : k = 1..8}, exact rationals so that residual algebra
    on rational data cancels exactly."""
    return [Fraction(1, 10**k) for k in range(1, 9)]


def _reciprocal(t):
    if _is_exact(t):
        return Fraction(1, 1) / Fraction(t)
    return 1.0 / t


class SampleRecord(tuple):
    """One sample of a verdict, made as SampleRecord((input, max_I, value)):
    its input (the element u, or t for Gateaux), max_I p(u) as measured when
    u landed (0.0 for a (DZ) kernel sample, None for Gateaux, which has no
    I) and the value checked against epsilon (residual, (DR) ratio or image
    residual).  A tuple subclass, not a NamedTuple: every sample makes one,
    and NamedTuple's Python-level __new__ cost about 3% of a sequence-space
    verdict."""

    __slots__ = ()
    input = property(itemgetter(0))
    max_I = property(itemgetter(1))
    value = property(itemgetter(2))


def _sampled_delta(witness) -> dict:
    """{"sampled_delta": d} when the witness's sample levels were capped
    below delta (scale_into), else {}."""
    return {} if witness.sampled_delta is None else {"sampled_delta": witness.sampled_delta}


def _stats(records):
    vals = [float(s.value) for s in records]
    if not vals:
        return {"max": 0.0, "mean": 0.0}
    return {"max": max(vals), "mean": sum(vals) / len(vals)}


# ---------------------------------------------------------------------------
# Gateaux


@dataclass
class GateauxWitness:
    J: IndexSet
    epsilon: float
    delta: float
    schedule: list  # SampleRecords (t, None, residual)
    passed: bool
    seed: int | None = None

    def to_json(self, space=None) -> dict:
        return {
            "kind": "gateaux",
            "passed": self.passed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "J": [str(s) for s in self.J],
            "seed": self.seed,
            "schedule": [{"t": float(s.input), "residual": float(s.value)} for s in self.schedule[:MAX_STORED_SAMPLES]],
            "n_schedule": len(self.schedule),
            "residuals": _stats(self.schedule),
        }


def _residual(op: Operator, xbar, L):
    """u -> T(xbar + u) - T(xbar) - L u, L = None meaning the analytic
    derivative L*.  A linear kind gives T u - L u, exactly 0 when L is T.
    Any other kind gives its Taylor remainder R(u), plus (L* - L) u for a
    candidate L with L* - L one closed form; T is not applied near xbar and
    no cancelling subtraction is made, so the result is exact on exact
    data."""
    cod = op.codomain
    if L is None:
        return op.taylor_remainder(xbar)
    if op.is_linear:
        return lambda u: cod.sub(op.apply(u), L.apply(u))
    expansion = op.taylor_remainder(xbar)
    gap = linmap_add(expansion.derivative, linmap_scale(-1, L))
    return lambda u: cod.add(expansion(u), gap.apply(u))


def _gateaux_quotient(op: Operator, residual, v, t, J: IndexSet) -> float:
    """max_q q(residual(t v) / t) over q in J."""
    if t == 0:
        raise ValueError("t must be nonzero")
    if op.domain.is_zero(v):
        raise ValueError("direction must be nonzero")
    cod = op.codomain
    return family_max(cod, cod.scale(_reciprocal(t), residual(op.domain.scale(t, v))), J)


def gateaux_residual(op: Operator, xbar, v, L, t, J) -> float:
    """max_q q((T(xbar + t v) - T(xbar) - t L v) / t) over q in J, with the
    numerator in closed form (see _residual); L = None means the analytic
    derivative."""
    return _gateaux_quotient(op, _residual(op, xbar, L), v, t, index_set(op.codomain, J))


def verify_gateaux(op: Operator, xbar, v, L, J, epsilon: float, t_schedule=None, seed=None) -> GateauxWitness:
    """Largest schedule-prefix delta with all residuals < epsilon, both signs,
    for the candidate L; L = None means the analytic derivative.

    Passes when such a delta exists and the residual run is eventually
    nonincreasing (over the last half of the schedule, per sign).  The
    residual is prepared once from xbar and L and read at every t.  No
    t_schedule means :func:`default_t_schedule`; an empty one is refused.
    """
    _check_positive("epsilon", epsilon)
    if t_schedule is None:
        t_schedule = default_t_schedule()
    elif not t_schedule:
        raise ValueError("t_schedule must not be empty")
    J = index_set(op.codomain, J)
    residual = _residual(op, xbar, L)
    mags = sorted(set(abs(t) for t in t_schedule), reverse=True)
    records = [SampleRecord((t, None, _gateaux_quotient(op, residual, v, t, J))) for m in mags for t in (m, -m)]
    per_mag = [max(p.value, q.value) for p, q in zip(records[::2], records[1::2])]
    k0 = len(mags)
    for k in range(len(mags), 0, -1):
        if per_mag[k - 1] < epsilon:
            k0 = k - 1
        else:
            break
    found = k0 < len(mags)
    delta = float(mags[k0 - 1]) if k0 >= 1 else 10.0 * float(mags[0])
    half = len(per_mag) // 2
    tail = per_mag[half:]
    monotone = all(tail[i + 1] <= tail[i] * (1 + 1e-9) + 1e-15 for i in range(len(tail) - 1))
    return GateauxWitness(J, float(epsilon), delta if found else 0.0, records, found and monotone, seed)


# ---------------------------------------------------------------------------
# Frechet: (DZ) / (DR)


@dataclass
class FrechetWitness:
    J: IndexSet
    epsilon: float
    I: IndexSet
    delta: float
    dz_samples: list  # SampleRecords (u, 0.0, residual)
    dr_samples: list  # SampleRecords (u, max_I p(u), ratio)
    delta_source: str
    recipe: str
    passed: bool
    seed: int | None = None
    sampled_delta: float | None = None  # set only when a sample level was capped

    def to_json(self, space=None) -> dict:
        stored = [
            {
                "u": (space.element_to_json(s.input) if space is not None else None),
                "max_I": float(s.max_I),
                "ratio": float(s.value),
            }
            for s in self.dr_samples[:MAX_STORED_SAMPLES]
        ]
        return {
            "kind": "frechet",
            "passed": self.passed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            **_sampled_delta(self),
            "delta_source": self.delta_source,
            "recipe": self.recipe,
            "J": [str(s) for s in self.J],
            "I": [str(s) for s in self.I],
            "seed": self.seed,
            "n_dz": len(self.dz_samples),
            "dz_residuals": _stats(self.dz_samples),
            "n_dr": len(self.dr_samples),
            "dr_ratios": _stats(self.dr_samples),
            "dr_samples": stored,
        }


def dr_ratio(cod, residual, c: float, J) -> float:
    """max_q q(residual / c) over q in J, for residual = T(xbar+u) - T(xbar)
    - L u and the divisor c = max_{p in I} p(u) measured when the sample u
    landed; it goes inside q because F-seminorms are not homogeneous."""
    if c == 0:
        raise ValueError("max_I p(u) = 0 belongs to the (DZ) branch")
    J = index_set(cod, J)
    return family_max(cod, cod.scale(1.0 / c, residual), J)


def _covering_index_set(dom, cod_J: IndexSet) -> IndexSet:
    """Canonical domain index set covering a codomain J (recipe shape)."""
    if isinstance(dom, SchwartzSpace):
        ids = list(cod_J.ids)
        alpha = ids[0][0]
        beta = ids[0][1]
        for a, b in ids[1:]:
            alpha, beta = mi.join(alpha, a), mi.join(beta, b)
        closure = [(a, b) for a in mi.downward_closure(alpha) for b in mi.downward_closure(beta)]
        return index_set(dom, closure)
    m = max(int(k) for k in cod_J.ids)
    return index_set(dom, range(1, m + 1))


def _bracket(val: float) -> float:
    # recipes are proved for epsilon < 1; a smaller epsilon only shrinks delta
    return min(val, 0.999)


def delta_constructor(op: Operator, xbar, J, epsilon: float):
    """(I, delta, recipe id) per the constructive proofs.

    power on Schwartz: downward-closed I and delta from the factorial/2^...
    formula (separate origin recipe); power on the sequence spaces: prefix I
    and delta from the prefix-max formulas; linear kinds: any delta works
    since the residual vanishes identically.
    """
    dom, cod = op.domain, op.codomain
    J = index_set(cod, J)
    eps = _bracket(float(epsilon))
    if op.is_linear:
        return _covering_index_set(dom, J), float(epsilon), "linear-exact"
    if op.kind in ("power", "cross_power"):
        m = op.params["m"]
        I = _covering_index_set(dom, J)
        if isinstance(dom, SchwartzSpace):
            beta = mi.zero(dom.n)
            for _, b in J.ids:
                beta = mi.join(beta, b)
            abeta = mi.order(beta)
            if dom.is_zero(xbar):
                lam = (eps / 2.0 ** (m * abeta)) ** (1.0 / (m - 1))
                return I, lam, "schwartz-power-origin"
            bracket = 0.0
            # bracket max over exponents 1..m; the constant function is not
            # a member of the space, so exponent 0 is excluded
            for i in range(1, m + 1):
                bracket = max(bracket, family_max(dom, xbar.pow(i), J))
            delta = eps / ((m - 1) * math.factorial(m) * (bracket + 1.0) * 2.0 ** ((m + 1) * abeta))
            return I, delta, "schwartz-power"
        pm = dom.p_sup_prefix(xbar, len(I))  # I = {1..max J}
        if isinstance(dom, SigmaRhoSpace) and isinstance(cod, SigmaRhoSpace):
            return I, eps / (pm + 1.0) ** (m * dom.rho), "power-sigma"
        if isinstance(dom, SSpace):
            return I, eps / (2.0 * (1.0 + pm) ** m), "power-s"
        if op.kind == "cross_power":
            return I, eps / (1.0 + pm) ** m, "power-cross"
    raise NoRecipeError(f"no constructive delta for kind {op.kind!r}")


def _kernel_samples(dom, I: IndexSet, rng):
    """Elements with max_I p(u) = 0: 20 with support disjoint from I for the
    sequence spaces; only the origin on Schwartz space (sup-seminorm there
    separates everything once (0,0) is in I)."""
    if isinstance(dom, SchwartzSpace):
        return [dom.zero()]
    m = max(int(k) for k in I.ids)
    out = []
    for _ in range(20):
        lead = [0] * m
        extra = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 3))]
        tail = 0
        if isinstance(dom, SSpace) and rng.random() < 0.4:
            tail = rng.uniform(-2, 2)
        out.append(SeqElement(lead + extra, tail))
    return out


def scale_into(dom, u, I: IndexSet, target: float):
    """(u scaled so that max_I p lands on target > 0, capped), in closed form
    through the space's level_scalar; (None, False) when max_I p(u) = 0.
    Where that scalar overflows (sigma_rho's (target/c)^(1/rho)), u is
    scaled by the largest scalar that keeps its entries finite, so it lands
    below target, and capped is True."""
    c = family_max(dom, u, I)
    if c == 0:
        return None, False
    s = dom.level_scalar(c, target)
    if s < math.inf:
        return dom.scale(s, u), False
    return dom.scale(dom.finite_scalar(u), u), True


def _dr_targets(delta: float, rng, n: int):
    targets = [delta / 2.0, delta * (1.0 - 1e-6)]
    while len(targets) < n:
        targets.append(rng.uniform(0.0, delta) or delta / 3.0)
    return targets[:n]


def _read_delta_source(delta_source, dom):
    """delta_source checked: "auto", "constructive", "searched", or an
    explicit (I, delta) pair (tuple or 2-item list), returned as a tuple
    with I a nonempty IndexSet of dom and delta a finite number > 0."""
    if isinstance(delta_source, (tuple, list)) and len(delta_source) == 2:
        return index_set(dom, delta_source[0]), _check_positive("explicit delta", delta_source[1])
    return _config_choice(delta_source, "delta_source", ("auto", "constructive", "searched"))


def _resolve_delta(delta_source, recipe_fn, dom):
    """(I, delta, recipe, source) for a delta_source (_read_delta_source): an
    explicit (I, delta), "constructive" (recipe_fn() must succeed), "auto"
    (recipe_fn(), else search) or "searched"; I = None means search."""
    delta_source = _read_delta_source(delta_source, dom)
    if isinstance(delta_source, tuple):
        return *delta_source, "explicit", "explicit"
    if delta_source != "searched":
        try:
            I, delta, recipe = recipe_fn()
        except NoRecipeError:
            if delta_source == "constructive":
                raise
        else:
            # a recipe's delta underflows to 0 or overflows at extreme data
            _check_positive(f"the {recipe} recipe's delta", delta)
            return I, delta, recipe, "constructive"
    return None, None, "searched", "searched"


def _check_positive(name, value):
    """value, refused when a verdict with it could not mean anything: it
    must be a finite number > 0, and a bool or a string is no number."""
    if not _is_number(value) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return value


def _sample_loop(op, x, J, epsilon, delta_source, rng, n_samples, numerator, divide: bool):
    """The sample loop of continuity and (DZ)/(DR): each u with
    0 < max_I p(u) < delta, a random direction scaled onto a _dr_targets
    level, must give max_J q(N(u) / d) < epsilon, with d = max_I p(u) if
    divide ((DR)), else 1 (continuity).  (DZ) first requires N = 0 on the
    kernel samples.  N is read at u restricted to what the seminorms of J
    read (``dom.restrict``).  (I, delta) comes from delta_source and the
    Frechet (divide) or continuity recipe at x; with I None, delta halves
    from 1 until a batch passes, and the search fails below 1e-12.  Returns
    (J, I, delta, recipe, source, passed, kernel records, records, sampled
    delta), the last the largest max_I p(u) sampled when scale_into capped
    some level, else None."""
    _check_positive("epsilon", epsilon)
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 1:  # no samples: a vacuous pass
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    rng = rng or random.Random(0)
    dom, cod = op.domain, op.codomain
    J = index_set(cod, J)
    recipe_fn = delta_constructor if divide else continuity_delta
    I, delta, recipe, source = _resolve_delta(delta_source, lambda: recipe_fn(op, x, J, epsilon), dom)
    searched = I is None
    if searched:
        I, delta = _covering_index_set(dom, J), 1.0
    while True:
        kernel = _kernel_samples(dom, I, rng) if divide else []
        kernel = [SampleRecord((u, 0.0, family_max(cod, numerator(dom.restrict(u, J)), J))) for u in kernel]
        samples, capped = [], False
        for target in _dr_targets(delta, rng, n_samples):
            for _ in range(20):
                u, cut = scale_into(dom, dom.random_direction(rng), I, target)
                c = 0.0 if u is None else family_max(dom, u, I)
                if 0.0 < c < delta:
                    break
            else:
                raise RuntimeError("sampler failed to land in the punctured neighborhood")
            capped = capped or cut
            n = numerator(dom.restrict(u, J))
            samples.append(SampleRecord((u, c, dr_ratio(cod, n, c, J) if divide else family_max(cod, n, J))))
        passed = all(s.value <= EXACT_ZERO_TOL for s in kernel) and all(s.value < epsilon for s in samples)
        sampled = max(s.max_I for s in samples) if capped else None
        if passed or not searched:
            return J, I, float(delta), recipe, source, passed, kernel, samples, sampled
        delta /= 2.0
        if delta < 1e-12:
            return J, I, delta, recipe, source, False, kernel, samples, sampled


def verify_frechet(
    op: Operator,
    xbar,
    J,
    epsilon: float,
    L=None,
    delta_source: str = "auto",
    rng=None,
    n_samples: int = 500,
    seed=None,
) -> FrechetWitness:
    """(DZ)/(DR) harness around an (I, delta) pair.

    delta_source: "constructive" (recipe required), "searched" (geometric
    shrink), "auto" (recipe, else search), or an explicit (I, delta) pair.
    A candidate override L is checked against the recipe's (I, delta) for
    the operator, which is what makes wrong candidates fail rather than
    hide behind a tiny searched delta.

    The residual T(xbar+u) - T(xbar) - L u is the operator's closed-form
    Taylor remainder (:meth:`Operator.taylor_remainder`, 0 for a linear
    kind) when L is None; a candidate L adds (L* - L) u in one closed form,
    or for a linear kind makes it T u - L u.  T is not applied near xbar
    and no cancelling subtraction rounds the ratio.  The one sample loop
    (``_sample_loop``) reads it, divided by max_I p(u).
    """
    residual = _residual(op, xbar, L)
    J, I, delta, recipe, source, passed, dz, dr, sampled = _sample_loop(
        op, xbar, J, epsilon, delta_source, rng, n_samples, residual, True
    )
    return FrechetWitness(J, float(epsilon), I, delta, dz, dr, source, recipe, passed, seed, sampled)


# ---------------------------------------------------------------------------
# continuity


@dataclass
class ContinuityWitness:
    J: IndexSet
    epsilon: float
    I: IndexSet
    delta: float
    x0: object
    samples: list  # SampleRecords (u, max_I p(u), image residual)
    recipe: str
    passed: bool
    seed: int | None = None
    sampled_delta: float | None = None  # set only when a sample level was capped

    def to_json(self, space=None) -> dict:
        # the point x = x0 + u is formed for the stored samples only
        stored = [
            {
                "x": (space.element_to_json(space.add(self.x0, s.input)) if space is not None else None),
                "image_residual": float(s.value),
            }
            for s in self.samples[:MAX_STORED_SAMPLES]
        ]
        return {
            "kind": "continuity",
            "passed": self.passed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            **_sampled_delta(self),
            "recipe": self.recipe,
            "J": [str(s) for s in self.J],
            "I": [str(s) for s in self.I],
            "seed": self.seed,
            "n_samples": len(self.samples),
            "image_residuals": _stats(self.samples),
            "samples": stored,
        }


def continuity_delta(op: Operator, x0, J, epsilon: float):
    """(I, delta, recipe) for Definition-3.1 continuity.

    Power on sigma_rho: delta = eps / (m (P(x)+1)^{m-1} (eps+1)); power on
    S: delta = eps / ((1+2 P_M(x))^m (eps+1)); linear kinds through their
    (family, C) seminorm bound.
    """
    dom, cod = op.domain, op.codomain
    J = index_set(cod, J)
    eps = float(epsilon)
    if op.is_linear:
        bounds = [seminorm_bound(op, q) for q in J.ids]
        ids = [p for fam, _ in bounds for p in fam]
        return index_set(dom, ids), min(eps / max(c * len(fam), 1e-300) for fam, c in bounds), "linear-bound"
    if op.kind == "power" and isinstance(dom, (SigmaRhoSpace, SSpace)):
        m = op.params["m"]
        I = _covering_index_set(dom, J)
        if isinstance(dom, SigmaRhoSpace):
            delta = eps / (m * (dom.p_sup(x0) + 1.0) ** (m - 1) * (eps + 1.0))
            return I, delta, "continuity-power-sigma"
        delta = eps / ((1.0 + 2.0 * dom.p_sup_prefix(x0, len(I))) ** m * (eps + 1.0))
        return I, delta, "continuity-power-s"
    raise NoRecipeError(f"no constructive continuity delta for {op.kind!r}")


def continuity_verify(
    op: Operator,
    x0,
    J,
    epsilon: float,
    delta_source="auto",
    rng=None,
    n_samples: int = 500,
    seed=None,
) -> ContinuityWitness:
    """Sample u with 0 < max_I p(u) < delta and check the image condition
    max_J q(T(x0 + u) - T(x0)) < epsilon in the one sample loop, with the
    increment read at u from the expansion that Gateaux and (DR) read: no
    operator is applied.  The witness keeps u, and forms the float x0 + u,
    which may round back onto x0, only as the x of a stored sample."""
    increment = op.taylor_remainder(x0).increment
    J, I, delta, recipe, _, passed, _, samples, sampled = _sample_loop(
        op, x0, J, epsilon, delta_source, rng, n_samples, increment, False
    )
    return ContinuityWitness(J, float(epsilon), I, delta, x0, samples, recipe, passed, seed, sampled)


# ---------------------------------------------------------------------------
# F-norm translation (countable weighted families)


def fnorm_translate_forward(op: Operator, x0, epsilon: float):
    """From a Definition-3.1 witness to the F-norm implication.

    Given epsilon for the F-norm target: pick the tail cutoff M with
    sum_{j>M} b_j < eps/2, take J = {1..M} and eps1 = eps/(2B), obtain
    (I, delta1) for (J, eps1) from the constructive continuity recipe, and
    return delta = a delta1 / (1 + delta1) with a = min weight over I.
    """
    dom, cod = op.domain, op.codomain
    if not (getattr(dom, "has_weights", False) and getattr(cod, "has_weights", False)):
        raise ValueError("translation needs countable weighted families on both sides")
    b_total = 1.0  # sum of 2^-j
    eps = float(epsilon)
    if eps >= 2.0 * b_total:
        raise ValueError(f"epsilon = {eps} >= 2 B = {2 * b_total}: tail cutoff impossible")
    m = 1
    while 0.5**m >= eps / 2.0:
        m += 1
    J = index_set(cod, range(1, m + 1))
    eps1 = eps / (2.0 * b_total)
    I, delta1, recipe = continuity_delta(op, x0, J, eps1)
    a = min(float(dom.weight(k)) for k in I.ids)
    delta = a * delta1 / (1.0 + delta1)
    return {
        "M": m,
        "J": J,
        "eps1": eps1,
        "I": I,
        "delta1": delta1,
        "a": a,
        "delta": delta,
        "recipe": recipe,
    }


def fnorm_translate_backward(op: Operator, x0, J, epsilon: float):
    """From the F-norm implication back to a Definition-3.1 witness.

    b = min weight over J, eps1 = b eps/(1+eps); delta1 is a level at which
    the F-norm implication holds (built through the forward construction);
    then I = {1..N} with tail sum < delta1/2 and delta = delta1/(2A).
    """
    dom, cod = op.domain, op.codomain
    J = index_set(cod, J)
    eps = float(epsilon)
    b = min(float(cod.weight(j)) for j in J.ids)
    eps1 = b * eps / (1.0 + eps)
    fwd = fnorm_translate_forward(op, x0, eps1)
    delta1 = fwd["delta"]
    a_total = 1.0
    n = 1
    while 0.5**n >= delta1 / 2.0:
        n += 1
    I = index_set(dom, range(1, n + 1))
    delta = delta1 / (2.0 * a_total)
    return {"b": b, "eps1": eps1, "delta1": delta1, "N": n, "I": I, "delta": delta, "forward": fwd}


# ---------------------------------------------------------------------------
# probes


def uniqueness_probe(space, L1: LinearMap, L2: LinearMap, J, directions) -> CheckReport:
    """max over w and q in J of q(L1 w - L2 w); 0 means the two candidates
    coincide on J, otherwise the separating witness is reported."""
    J = index_set(space, J)
    worst, witness = 0.0, None
    for w in directions:
        gap = family_max(space, space.sub(L1.apply(w), L2.apply(w)), J)
        if gap > worst:
            worst, witness = gap, w
    ce = None
    if worst > EXACT_ZERO_TOL:
        ce = {"gap": worst, "element": space.element_to_json(witness)}
    return CheckReport("uniqueness_probe", worst <= EXACT_ZERO_TOL, ce, len(list(directions)), EXACT_ZERO_TOL, details={"max_gap": worst})


class RescaledFamily:
    """Same space, seminorms multiplied by per-id factors in [1, 2]; this
    generates the same topology, so derivatives must not change."""

    def __init__(self, base, factor):
        self._base = base
        self._factor = factor

    def seminorm(self, sid, x):
        return self._factor(self._base.normalize_sid(sid)) * self._base.seminorm(sid, x)

    def family_max(self, x, ids):
        return max(self.seminorm(s, x) for s in ids)

    def __getattr__(self, name):
        return getattr(self._base, name)


def basis_independence_check(op: Operator, xbar, v, factor, J, epsilon: float) -> CheckReport:
    """verify_gateaux must pass with the same candidate under the original
    codomain family and under a rescaled one."""
    L = analytic_frechet(op, xbar)
    w1 = verify_gateaux(op, xbar, v, L, J, epsilon)
    rescaled = Operator(op.kind, op.params, op.domain, RescaledFamily(op.codomain, factor))
    w2 = verify_gateaux(rescaled, xbar, v, L, J, epsilon)
    passed = w1.passed and w2.passed
    return CheckReport(
        "basis_independence",
        passed,
        None if passed else {"original": w1.passed, "rescaled": w2.passed},
        len(w1.schedule),
        epsilon,
        details={"delta_original": w1.delta, "delta_rescaled": w2.delta},
    )


def _linmap_continuity_delta(L, dom, cod, J: IndexSet, epsilon: float):
    """(I, delta) making max_I p(u) < delta imply max_J q(L u) < epsilon."""
    eps = float(epsilon)
    if isinstance(L, Operator):
        return continuity_delta(L, dom.zero(), J, eps)[:2]
    if isinstance(L, MultiplyBy):
        cu, gu = IdentityScaled(L.c, cod), Operator("mult", {"g": L.g}, dom, cod)
        if L.g.is_zero() or not L.c:
            return _linmap_continuity_delta(cu if L.g.is_zero() else gu, dom, cod, J, eps)
        # c u + g u: each term gets half of epsilon
        (I1, d1), (I2, d2) = (_linmap_continuity_delta(m, dom, cod, J, eps / 2) for m in (cu, gu))
        return I1.union(I2), min(d1, d2)
    if isinstance(L, IdentityScaled):
        return _covering_index_set(dom, J), min(0.999, eps / max(dom.scalar_factor(L.c), 1e-300))
    if isinstance(L, Diagonal):
        I = _covering_index_set(dom, J)
        dmax = max((abs(float(L.entry(k))) for k in I.ids), default=0.0)
        if isinstance(dom, SigmaRhoSpace) and isinstance(cod, SigmaRhoSpace):
            return I, min(0.999, eps / max(dmax**dom.rho, 1e-300))
        # into S: q(d u) <= max(1, |d|) q-ish bound via |u| <= |u|^rho < 1
        return I, min(0.999, eps / max(1.0, dmax))
    raise NoRecipeError(f"no continuity delta for map {L!r}")


def frechet_implies_continuity_check(op: Operator, xbar, configs, rng=None, n_samples: int = 200) -> CheckReport:
    """Differentiability-implies-continuity, run constructively: for each
    (J, epsilon) the continuity delta is min(Frechet delta at eps/2, the
    derivative map's own continuity delta at eps/2), both kept below 1."""
    rng = rng or random.Random(0)
    dom, cod = op.domain, op.codomain
    L = analytic_frechet(op, xbar)
    results = []
    for J, epsilon in configs:
        J = index_set(cod, J)
        fw = verify_frechet(op, xbar, J, epsilon / 2.0, rng=rng, n_samples=max(50, n_samples // 2))
        if not fw.passed:
            return CheckReport("frechet_implies_continuity", False, {"stage": "frechet", "epsilon": epsilon}, 0, 0.0)
        I2, d2 = _linmap_continuity_delta(L, dom, cod, J, epsilon / 2.0)
        I = fw.I.union(I2)
        delta = min(fw.delta, d2, 0.999)
        cw = continuity_verify(op, xbar, J, epsilon, delta_source=(I, delta), rng=rng, n_samples=n_samples)
        results.append(cw)
        if not cw.passed:
            return CheckReport(
                "frechet_implies_continuity",
                False,
                {"stage": "continuity", "epsilon": epsilon, "delta": delta},
                n_samples,
                0.0,
            )
    return CheckReport(
        "frechet_implies_continuity",
        True,
        None,
        sum(len(c.samples) for c in results),
        0.0,
        details={"deltas": [c.delta for c in results]},
    )

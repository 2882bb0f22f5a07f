"""Cones, induced partial orders, ordered credit points and extrema.

The two concrete cones are entrywise nonnegativity on the sequence spaces
and pointwise nonnegativity on Schwartz space (real-coefficient functions
whose global minimum is >= -1e-12, read from
:meth:`GaussPolyFn.signed_range`: the values at each decay group's critical
points, plus a guard grid with several groups, so an estimate, not a
certified bound).
Extremum checks are sample-based refutation/confirmation harnesses, not
proofs; every report carries its sample budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gausspoly import GaussPolyFn
from .operators import Operator, analytic_gateaux
from .seminorms import CheckReport, index_set, family_max
from .spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace

__all__ = [
    "Cone",
    "OrderRelation",
    "nonneg_cone",
    "is_credit_point",
    "check_directional_extremum",
    "directional_extremum_summary",
    "check_absolute_extremum",
    "check_order_increasing",
    "credit_necessity_suite",
]

CONE_SLACK = 1e-12


@dataclass(frozen=True)
class Cone:
    space: object
    kind: str  # "pointwise_nonneg" | "entrywise_nonneg"

    def contains(self, x) -> bool:
        if self.kind == "entrywise_nonneg":
            return all(v >= 0 for v in x.prefix) and x.tail >= 0
        if not isinstance(x, GaussPolyFn):
            raise TypeError("pointwise cone expects a function element")
        if x.is_zero():
            return True
        if not x.has_real_coeffs(CONE_SLACK):
            return False
        lo, _ = x.signed_range()
        return lo >= -CONE_SLACK

    def describe(self) -> str:
        return f"{self.kind}@{self.space.tag}"


def nonneg_cone(space) -> Cone:
    kind = "pointwise_nonneg" if isinstance(space, SchwartzSpace) else "entrywise_nonneg"
    return Cone(space, kind)


@dataclass(frozen=True)
class OrderRelation:
    cone: Cone

    def leq(self, x, y) -> bool:
        return self.cone.contains(self.cone.space.sub(y, x))

    def lt(self, x, y) -> bool:
        return self.leq(x, y) and not self.cone.space.is_zero(self.cone.space.sub(y, x))


def is_credit_point(op: Operator, xbar, directions) -> CheckReport:
    """The Gateaux derivative along every supplied direction must vanish
    (to 1e-12), measured through the codomain's first three seminorms."""
    tol = 1e-12
    cod = op.codomain
    J = index_set(cod, cod.enum_ids(3))
    for v in directions:
        if op.domain.is_zero(v):
            raise ValueError("direction must be nonzero")
        img = analytic_gateaux(op, xbar, v)
        worst = family_max(cod, img, J)
        if worst > tol:
            return CheckReport(
                "credit_point",
                False,
                {"direction": op.domain.element_to_json(v), "seminorm": worst},
                len(directions),
                tol,
            )
    return CheckReport("credit_point", True, None, len(directions), tol)


def check_directional_extremum(op: Operator, xbar, v, t_samples, kind: str) -> CheckReport:
    """kind = "max": T(xbar + t v) <= T(xbar) for all sampled t (cone order);
    "min" reverses the comparison.  Reports the first violating t."""
    if op.domain.is_zero(v):
        raise ValueError("direction must be nonzero")
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    rel = OrderRelation(nonneg_cone(op.codomain))
    base = op.apply(xbar)
    for t in t_samples:
        img = op.apply(op.domain.add(xbar, op.domain.scale(t, v)))
        ok = rel.leq(img, base) if kind == "max" else rel.leq(base, img)
        if not ok:
            return CheckReport(
                "directional_extremum",
                False,
                {"t": float(t), "claim": kind},
                len(list(t_samples)),
                CONE_SLACK,
            )
    return CheckReport("directional_extremum", True, None, len(list(t_samples)), CONE_SLACK, details={"claim": kind})


def directional_extremum_summary(op: Operator, xbar, v, t_samples) -> dict:
    """Outcome of both extremum claims; 'neither' has both refuted."""
    mx = check_directional_extremum(op, xbar, v, t_samples, "max")
    mn = check_directional_extremum(op, xbar, v, t_samples, "min")
    verdict = "max" if mx.passed and not mn.passed else "min" if mn.passed and not mx.passed else (
        "both" if mx.passed else "neither"
    )
    return {"max": mx, "min": mn, "verdict": verdict}


def check_absolute_extremum(op: Operator, xbar, sample_set, kind: str) -> CheckReport:
    """Order comparison of T(x) against T(xbar) for every sample; an
    incomparable pair counts as a violation of the absolute claim."""
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    rel = OrderRelation(nonneg_cone(op.codomain))
    base = op.apply(xbar)
    count = 0
    for x in sample_set:
        count += 1
        img = op.apply(x)
        ok = rel.leq(img, base) if kind == "max" else rel.leq(base, img)
        if not ok:
            return CheckReport(
                "absolute_extremum",
                False,
                {"element": op.domain.element_to_json(x), "claim": kind},
                count,
                CONE_SLACK,
            )
    return CheckReport("absolute_extremum", True, None, count, CONE_SLACK, details={"claim": kind})


def check_order_increasing(op: Operator, pairs) -> CheckReport:
    """x <= y must map to T(x) <= T(y); unordered input pairs are rejected."""
    rel_dom = OrderRelation(nonneg_cone(op.domain))
    rel_cod = OrderRelation(nonneg_cone(op.codomain))
    count = 0
    for x, y in pairs:
        count += 1
        if not rel_dom.leq(x, y):
            raise ValueError(f"input pair #{count} is not ordered")
        if not rel_cod.leq(op.apply(x), op.apply(y)):
            return CheckReport(
                "order_increasing",
                False,
                {"x": op.domain.element_to_json(x), "y": op.domain.element_to_json(y)},
                count,
                CONE_SLACK,
            )
    return CheckReport("order_increasing", True, None, count, CONE_SLACK)


def credit_necessity_suite(rng=None, budget: int = 200) -> list[CheckReport]:
    """The ordered-optimization regression catalogue.

    Confirmed extrema must be credit points (necessity); the odd-power
    operators at the origin exhibit the non-converse (credit point, yet
    'neither' extremum, with explicit +-1 witnesses); squaring on the
    nonnegative cone is order increasing with derivative directions staying
    in the cone.
    """
    rng = rng or random.Random(0)
    sch = SchwartzSpace(1)
    s_space = SSpace()
    sig = SigmaRhoSpace(0.5)
    gauss = GaussPolyFn.gaussian((1,))
    reports: list[CheckReport] = []

    def named(name, r):
        r.details = {**r.details, "case": name}
        reports.append(r)
        return r

    # squared power on Schwartz space: absolute minimum at the origin, hence
    # a credit point
    p2 = Operator("power", {"m": 2}, sch, sch)
    theta_s = sch.zero()
    samples = [sch.random_element(rng) for _ in range(budget)]
    named("square@schwartz absolute min", check_absolute_extremum(p2, theta_s, samples, "min"))
    named("square@schwartz credit point", is_credit_point(p2, theta_s, [gauss, sch.random_element(rng)]))

    # cubed power: credit point but not an extremum, t = +-1 splits the sign
    # (positive Gaussian witness on Schwartz space, w = (1, 1, ...) on S)
    theta = SeqElement.zero()
    w = SeqElement([], tail=1)
    for tag, space, origin, witness, directions in (
        ("schwartz", sch, theta_s, gauss, [gauss]),
        ("s", s_space, theta, w, [w, SeqElement([1, 2])]),
    ):
        p3 = Operator("power", {"m": 3}, space, space)
        named(f"cube@{tag} credit point", is_credit_point(p3, origin, directions))
        verdict = directional_extremum_summary(p3, origin, witness, [-1, 1])["verdict"]
        ce = None if verdict == "neither" else {"verdict": verdict}
        named(f"cube@{tag} non-converse", CheckReport("non_converse", ce is None, ce, 2, CONE_SLACK))

    # even power on S: absolute minimum at the origin
    r2 = Operator("power", {"m": 2}, s_space, s_space)
    named(
        "square@s absolute min",
        check_absolute_extremum(r2, theta, [s_space.random_element(rng) for _ in range(budget)], "min"),
    )

    # squaring on the nonnegative cone of sigma_rho: order increasing, and
    # the derivative maps cone directions into the cone
    q2 = Operator("power", {"m": 2}, sig, sig)
    pairs = []
    for _ in range(100):
        x = SeqElement([abs(rng.uniform(0, 2)) for _ in range(rng.randint(0, 4))])
        bump = SeqElement([abs(rng.uniform(0, 2)) for _ in range(rng.randint(0, 4))])
        pairs.append((x, x.add(bump)))
    named("square@sigma order increasing", check_order_increasing(q2, pairs))
    cone = nonneg_cone(sig)
    ok = True
    ce = None
    for _ in range(100):
        xb = SeqElement([abs(rng.uniform(0, 2)) for _ in range(rng.randint(0, 4))])
        v = SeqElement([abs(rng.uniform(0, 2)) for _ in range(rng.randint(1, 4))] or [1])
        if v.is_zero():
            v = SeqElement([1])
        if not cone.contains(analytic_gateaux(q2, xb, v)):
            ok, ce = False, {"point": xb.to_json(), "direction": v.to_json()}
            break
    named("square@sigma derivative in cone", CheckReport("derivative_in_cone", ok, ce, 100, CONE_SLACK))

    # necessity across the confirmed extrema above: every confirmed extremum
    # point must also be a credit point (checked via the paired reports)
    named(
        "necessity coupling",
        CheckReport(
            "necessity",
            all(r.passed for r in reports if r.check in ("absolute_extremum", "credit_point")),
            None,
            len(reports),
            CONE_SLACK,
        ),
    )
    return reports

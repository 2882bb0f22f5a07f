"""Named verification suites over JSON configs, plus the built-in catalogue.

A config is one JSON document: {"seed": int, "suites": [entry...], "out":
path}.  Every entry has a name, a kind (axioms | continuity | gateaux |
frechet | order | identity), descriptors for the space/operator/point, and a
params object (J indices, epsilon, sample budgets, optional candidate
override, optional t schedule).  Suites run one after another in config
order, each under a seed derived from its name, so a fixed seed yields an
identical report up to wall-clock fields.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from fractions import Fraction

from .differentiation import (
    continuity_verify,
    verify_frechet,
    verify_gateaux,
)
from .gausspoly import MAX_ORDER, GaussPolyFn, _config_int, _exact_from_json, _is_number, leibniz_summands
from .operators import (
    Diagonal,
    IdentityScaled,
    MultiplyBy,
    Operator,
    analytic_frechet,
    analytic_gateaux,
    linear_bound_check,
)
from .ordering import (
    check_absolute_extremum,
    check_directional_extremum,
    check_order_increasing,
    credit_necessity_suite,
    is_credit_point,
    nonneg_cone,
)
from .seminorms import CheckReport, axiom_report, index_set, separating_check
from .spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace, space_from_json

SCHEMA = "fsemcalc/1"
VERSION = "0.1.0"

SUITE_KINDS = ("axioms", "continuity", "gateaux", "frechet", "order", "identity")

# Largest sample or draw count and largest sequence seminorm index that a
# config may name: each sets the work of a run (MAX_ORDER bounds the rest).
MAX_COUNT = 100_000
MAX_INDEX = 10_000


def derive_seed(base: int, name: str) -> int:
    return (int(base) ^ zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF


def _candidate_number(v):
    """An exact string such as "1/2" as a Fraction (refused when too large
    for a float), a number as itself."""
    if not (isinstance(v, str) or _is_number(v)):
        raise ValueError(f"candidate entry {v!r} is not a number")
    return _exact_from_json(v) if isinstance(v, str) else v


def linmap_from_json(space_cod, doc):
    """A candidate map on space_cod: diagonal on the sequence spaces,
    multiply_by on Schwartz space, identity_scaled or zero on any."""
    form = doc["form"]
    if form in ("diagonal", "multiply_by") and (form == "multiply_by") != isinstance(space_cod, SchwartzSpace):
        raise ValueError(f"a {form!r} candidate does not fit the codomain {space_cod.tag}")
    if form == "diagonal":
        prefix = tuple(map(_candidate_number, doc.get("prefix", [])))
        return Diagonal(prefix, _candidate_number(doc.get("tail", 0)), space_cod)
    if form == "identity_scaled":
        return IdentityScaled(_candidate_number(doc.get("c", 1)), space_cod)
    if form == "multiply_by":
        return MultiplyBy(GaussPolyFn.from_json(doc["g"]), space_cod)
    if form == "zero":
        return IdentityScaled(0, space_cod)
    raise ValueError(f"unknown linear map form {form!r}")


def _sid_list(raw, field):
    """params[field] as seminorm ids: JSON integers up to MAX_INDEX, or
    (Schwartz space) lists of them up to MAX_ORDER and of such lists, each
    list made a tuple."""
    def sid(s, limit):
        if isinstance(s, list):
            return tuple(sid(e, MAX_ORDER) for e in s)
        return _config_int(s, f"{field}: seminorm id entry", 0, limit)
    return [sid(s, MAX_INDEX) for s in raw]


# ---------------------------------------------------------------------------
# the identity-case registry (closed-form catalogue facts)


def _case_derivative_shift(rng):
    sch = SchwartzSpace(1)
    f = GaussPolyFn.gaussian((Fraction(1),)).monomial_mul((1,))
    lhs = sch.seminorm(((1,), (0,)), f.diff((1,)))
    rhs = sch.seminorm(((1,), (1,)), f)
    ok = abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)
    return CheckReport("derivative_shift", ok, None if ok else {"lhs": lhs, "rhs": rhs}, 1, 1e-12)


def _case_leibniz_budget(rng):
    g = GaussPolyFn.gaussian((Fraction(1),))
    f = g.monomial_mul((1,))
    beta = (2,)
    summands = leibniz_summands(g, f, beta)
    raw = sum(s.term_count() for s in summands)
    budget = (beta[0] + 1) * g.term_count() * f.term_count()
    total = GaussPolyFn.zero(1)
    for s in summands:
        total = total.add(s)
    ok = raw <= budget and total == g.mul(f).diff(beta)
    return CheckReport("leibniz_budget", ok, None if ok else {"raw": raw, "budget": budget}, 1, 0.0)


def _case_cross_power_image(rng):
    sig = SigmaRhoSpace(0.5)
    lam3 = Operator("cross_power", {"m": 3}, sig, SSpace())
    out = lam3.apply(SeqElement([2]))
    ok = out == SeqElement([8], tail=0)
    return CheckReport("cross_power_image", ok, None if ok else {"got": out.to_json()}, 1, 0.0)


def _case_power_derivative_schwartz(rng):
    sch = SchwartzSpace(1)
    g1 = GaussPolyFn.gaussian((Fraction(1),))
    u = g1.monomial_mul((1,))
    L = analytic_frechet(Operator("power", {"m": 2}, sch, sch), g1)
    ok = L.apply(u) == u.mul(g1).scale(2)
    return CheckReport("power_derivative_schwartz", ok, None, 1, 0.0)


def _case_power_derivative_sigma(rng):
    sig = SigmaRhoSpace(0.5)
    L = analytic_frechet(Operator("power", {"m": 2}, sig, sig), SeqElement([4, 1]))
    ok = isinstance(L, Diagonal) and L.apply(SeqElement([1, 1])) == SeqElement([8, 2])
    return CheckReport("power_derivative_sigma", ok, None, 1, 0.0)


def _case_fourier_derivative(rng):
    sch = SchwartzSpace(1)
    op = Operator("fourier", {}, sch, sch)
    fbar = sch.random_element(random.Random(rng.randint(0, 10**6)))
    u = GaussPolyFn.gaussian((Fraction(1),)).monomial_mul((2,))
    L = analytic_frechet(op, fbar)
    ok = L is op and L.apply(u).approx_eq(u.fourier(), 1e-12)
    return CheckReport("fourier_derivative", ok, None, 1, 1e-12)


def _case_gateaux_q3(rng):
    sig = SigmaRhoSpace(0.5)
    out = analytic_gateaux(Operator("power", {"m": 3}, sig, sig), SeqElement([1]), SeqElement([1]))
    ok = out == SeqElement([3])
    return CheckReport("gateaux_q3", ok, None if ok else {"got": out.to_json()}, 1, 0.0)


def _case_gateaux_p1(rng):
    sch = SchwartzSpace(1)
    fbar = sch.random_element(random.Random(rng.randint(0, 10**6)))
    u = GaussPolyFn.gaussian((Fraction(2),))
    out = analytic_gateaux(Operator("power", {"m": 1}, sch, sch), fbar, u)
    return CheckReport("gateaux_p1_identity", out == u, None, 1, 0.0)


def _case_diff_bound(rng):
    sch = SchwartzSpace(1)
    op = Operator("diff", {"gamma": (1,)}, sch, sch)
    r = linear_bound_check(op, [((1,), (0,)), ((0,), (1,))], rng=rng, n_samples=40)
    r.check = "diff_bound_c1"
    return r


def _case_cone_membership(rng):
    k = nonneg_cone(SSpace())
    ok = k.contains(SeqElement([1], tail=1)) and not k.contains(SeqElement([-1], tail=1))
    return CheckReport("cone_membership", ok, None, 2, 0.0)


IDENTITY_CASES = {
    "derivative-shift-seminorm": _case_derivative_shift,
    "leibniz-term-budget": _case_leibniz_budget,
    "cross-power-image": _case_cross_power_image,
    "power-derivative-schwartz": _case_power_derivative_schwartz,
    "power-derivative-sigma": _case_power_derivative_sigma,
    "fourier-linear-derivative": _case_fourier_derivative,
    "gateaux-q3-diagonal": _case_gateaux_q3,
    "gateaux-p1-identity": _case_gateaux_p1,
    "diff-bound-c1": _case_diff_bound,
    "cone-membership-s": _case_cone_membership,
}


# ---------------------------------------------------------------------------
# suite runner


def _run_order_case(entry: dict, rng):
    """One configured ordered-optimization case:
    {"operator": ..., "point": ..., "claim": credit|max|min|increasing,
     "directions": [...], "budget": int}."""
    op = Operator.from_json(entry["operator"])
    point = op.domain.element_from_json(entry["point"])
    claim = entry.get("claim", entry.get("params", {}).get("claim", "credit"))
    budget = entry.get("budget", entry.get("params", {}).get("budget", 100))
    directions = [op.domain.element_from_json(d) for d in entry.get("directions", [])]
    if claim == "credit":
        if not directions:
            directions = [op.domain.random_direction(rng) for _ in range(5)]
        return is_credit_point(op, point, directions)
    if claim in ("max", "min"):
        if directions:
            ts = [Fraction(k, 4) for k in range(-4, 5) if k]
            for v in directions:
                r = check_directional_extremum(op, point, v, ts, claim)
                if not r.passed:
                    return r
            return r
        samples = [op.domain.random_element(rng) for _ in range(budget)]
        return check_absolute_extremum(op, point, samples, claim)
    if claim == "increasing":
        pairs = []
        for _ in range(budget):
            x = op.domain.random_element(rng).entrywise_map(abs)
            bump = op.domain.random_element(rng).entrywise_map(abs)
            pairs.append((x, x.add(bump)))
        return check_order_increasing(op, pairs)
    raise ValueError(f"unknown order claim {claim!r}")


def run_suite_entry(entry: dict, seed: int) -> dict:
    name = entry["name"]
    kind = entry["kind"]
    if kind not in SUITE_KINDS:
        raise ValueError(f"suite {name!r}: unknown kind {kind!r}")
    rng = random.Random(seed)
    params = entry.get("params", {})
    t0 = time.perf_counter()

    if kind == "identity":
        case = entry.get("case", name)
        if case not in IDENTITY_CASES:
            raise ValueError(f"suite {name!r}: unknown identity case {case!r}")
        report = IDENTITY_CASES[case](rng)
        payload = report.to_json()
        passed = report.passed
    elif kind == "axioms":
        space = space_from_json(entry["space"])
        sids = _sid_list(params.get("ids") or [], "ids") or space.enum_ids(1)
        n = params.get("n_samples", 200)
        per = max(1, n // len(sids))
        reports = [axiom_report(space, sid, rng=rng, n_samples=per) for sid in sids]
        sep = separating_check(space, rng=rng, n_samples=min(n, 200))
        passed = all(r.passed for r in reports) and sep.passed
        payload = {
            "kind": "axioms",
            "passed": passed,
            "per_seminorm": [r.to_json() for r in reports],
            "separating": sep.to_json(),
        }
    elif kind == "order":
        if "operator" in entry:
            report = _run_order_case(entry, rng)
            payload = {"kind": "order", "passed": report.passed, "cases": [report.to_json()]}
            passed = report.passed
        else:
            reports = credit_necessity_suite(rng, budget=params.get("budget", 200))
            passed = all(r.passed for r in reports)
            payload = {"kind": "order", "passed": passed, "cases": [r.to_json() for r in reports]}
    else:
        op = Operator.from_json(entry["operator"])
        point = op.domain.element_from_json(entry["point"])
        J = index_set(op.codomain, _sid_list(params["J"], "J"))
        epsilon = params.get("epsilon", 0.1)
        candidate = None
        if "candidate" in params:
            candidate = linmap_from_json(op.codomain, params["candidate"])
        if kind == "frechet":
            w = verify_frechet(
                op,
                point,
                J,
                epsilon,
                L=candidate,
                delta_source=params.get("delta_source", "auto"),
                rng=rng,
                n_samples=params.get("n_samples", 500),
                seed=seed,
            )
            payload, passed = w.to_json(op.domain), w.passed
        elif kind == "continuity":
            w = continuity_verify(
                op,
                point,
                J,
                epsilon,
                delta_source=params.get("delta_source", "auto"),
                rng=rng,
                n_samples=params.get("n_samples", 500),
                seed=seed,
            )
            payload, passed = w.to_json(op.domain), w.passed
        else:  # gateaux
            v = op.domain.element_from_json(entry["direction"])
            sched = None
            if "t_schedule" in params:
                sched = [_exact_from_json(str(t)) for t in params["t_schedule"]]
            w = verify_gateaux(op, point, v, candidate, J, epsilon, sched, seed=seed)
            payload, passed = w.to_json(), w.passed

    wall = time.perf_counter() - t0
    bad = []
    payload = _strings_for_nonfinite(payload, "witness", bad)
    out = {"name": name, "kind": kind, "seed": seed, "passed": bool(passed) and not bad, "wall_clock_s": wall}
    if bad:
        more = f" (and {len(bad) - 1} more)" if len(bad) > 1 else ""
        out["reason"] = f"non-finite value at {bad[0]}{more}"
    out["witness"] = payload
    return out


def _strings_for_nonfinite(doc, path: str, bad: list):
    """doc with every NaN or infinite float replaced by its string ('nan',
    'inf', '-inf'), which strict JSON can hold; the JSON path of each one is
    appended to bad."""
    if isinstance(doc, float) and not math.isfinite(doc):
        bad.append(path)
        return str(doc)
    if isinstance(doc, dict):
        return {k: _strings_for_nonfinite(v, f"{path}.{k}", bad) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strings_for_nonfinite(v, f"{path}[{i}]", bad) for i, v in enumerate(doc)]
    return doc


def run_config(config: dict, seed_override=None, name_filter=None, kind_filter=None) -> dict:
    seed = int(seed_override if seed_override is not None else config.get("seed", 0))
    entries = list(config.get("suites", []))
    if name_filter:
        entries = [e for e in entries if e["name"] == name_filter]
    if kind_filter:
        entries = [e for e in entries if e["kind"] == kind_filter]
    t0 = time.perf_counter()
    results = [run_suite_entry(e, derive_seed(seed, e["name"])) for e in entries]
    summary = {
        "total": len(results),
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
    }
    return {
        "schema": SCHEMA,
        "version": VERSION,
        "seed": seed,
        "config": {k: v for k, v in config.items() if k != "out"},
        "suites": results,
        "summary": summary,
        "wall_clock_s": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# built-in catalogue: the closed-form regression cases


def _op(kind, params, dom, cod=None):
    return {"kind": kind, "params": params, "domain": dom, "codomain": cod or dom}


def builtin_catalogue_config() -> dict:
    sig_desc = {"space": "sigma_rho", "rho": 0.5}
    s_desc = {"space": "s"}
    sch_desc = {"space": "schwartz", "n": 1}
    gauss = GaussPolyFn.gaussian((Fraction(1),))
    suites = [{"name": n, "kind": "identity", "case": n} for n in IDENTITY_CASES]
    suites += [
        {
            "name": "axioms-sigma-half",
            "kind": "axioms",
            "space": sig_desc,
            "params": {"ids": [1, 2, 3], "n_samples": 120},
        },
        {
            "name": "axioms-s",
            "kind": "axioms",
            "space": s_desc,
            "params": {"ids": [1, 2, 3], "n_samples": 120},
        },
        {
            "name": "axioms-schwartz",
            "kind": "axioms",
            "space": sch_desc,
            "params": {"ids": [[[0], [0]], [[0], [1]], [[1], [0]]], "n_samples": 24},
        },
        {
            "name": "frechet-square-sigma",
            "kind": "frechet",
            "operator": _op("power", {"m": 2}, sig_desc),
            "point": {"prefix": [1], "tail": 0},
            "params": {"J": [1], "epsilon": 0.1, "n_samples": 200},
        },
        {
            "name": "frechet-square-s",
            "kind": "frechet",
            "operator": _op("power", {"m": 2}, s_desc),
            "point": {"prefix": [1], "tail": 0},
            "params": {"J": [1], "epsilon": 0.1, "n_samples": 200},
        },
        {
            "name": "frechet-cross-square",
            "kind": "frechet",
            "operator": _op("cross_power", {"m": 2}, sig_desc, s_desc),
            "point": {"prefix": [1], "tail": 0},
            "params": {"J": [1], "epsilon": 0.1, "n_samples": 200},
        },
        {
            "name": "frechet-square-schwartz",
            "kind": "frechet",
            "operator": _op("power", {"m": 2}, sch_desc),
            "point": gauss.to_json(),
            "params": {"J": [[[0], [0]]], "epsilon": 0.1, "n_samples": 120},
        },
        {
            "name": "frechet-square-schwartz-origin",
            "kind": "frechet",
            "operator": _op("power", {"m": 2}, sch_desc),
            "point": GaussPolyFn.zero(1).to_json(),
            "params": {"J": [[[0], [1]]], "epsilon": 0.09, "n_samples": 120},
        },
        {
            "name": "continuity-square-sigma",
            "kind": "continuity",
            "operator": _op("power", {"m": 2}, sig_desc),
            "point": {"prefix": [1], "tail": 0},
            "params": {"J": [1], "epsilon": 0.1, "n_samples": 200},
        },
        {
            "name": "continuity-square-s",
            "kind": "continuity",
            "operator": _op("power", {"m": 2}, s_desc),
            "point": {"prefix": [1], "tail": 0},
            "params": {"J": [1], "epsilon": 0.1, "n_samples": 200},
        },
        {
            "name": "continuity-identity-sigma",
            "kind": "continuity",
            "operator": _op("identity", {}, sig_desc),
            "point": {"prefix": [1], "tail": 0},
            "params": {"J": [1, 2], "epsilon": 0.1, "n_samples": 120},
        },
        {
            "name": "gateaux-square-schwartz",
            "kind": "gateaux",
            "operator": _op("power", {"m": 2}, sch_desc),
            "point": gauss.to_json(),
            "direction": gauss.monomial_mul((1,)).to_json(),
            "params": {"J": [[[0], [0]]], "epsilon": 0.1},
        },
        {
            "name": "gateaux-cube-sigma",
            "kind": "gateaux",
            "operator": _op("power", {"m": 3}, sig_desc),
            "point": {"prefix": [1], "tail": 0},
            "direction": {"prefix": [1], "tail": 0},
            "params": {"J": [1], "epsilon": 0.1},
        },
        {
            "name": "order-catalogue",
            "kind": "order",
            "params": {"budget": 200},
        },
    ]
    return {"seed": 42, "suites": suites}

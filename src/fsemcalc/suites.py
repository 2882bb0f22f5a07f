"""Named verification suites over JSON configs, plus the built-in catalogue.

A config is one JSON document: {"seed": int, "suites": [entry...], "out":
path}.  Every entry has a name, a kind (axioms | continuity | gateaux |
frechet | order | identity), descriptors for the space/operator/point, and a
params object (J indices, epsilon, sample budgets, optional candidate
override, optional t schedule).  Every entry is read and checked before any
suite runs.  Suites run one after another in config order, each under a seed
derived from its name, so a fixed seed yields an identical report up to
wall-clock fields.
"""

from __future__ import annotations

import json
import math
import random
import time
import zlib
from fractions import Fraction
from types import SimpleNamespace

from .differentiation import (
    _check_positive,
    _read_delta_source,
    continuity_verify,
    verify_frechet,
    verify_gateaux,
)
from .gausspoly import MAX_ORDER, GaussPolyFn, _config_choice, _config_int, _config_number, _config_object, leibniz_summands
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


# the keys of each candidate form beside "form"
CANDIDATE_KEYS = {"diagonal": ("prefix", "tail"), "identity_scaled": ("c",), "multiply_by": ("g",), "zero": ()}


def linmap_from_json(space_cod, doc):
    """A candidate map on space_cod: diagonal on the sequence spaces,
    multiply_by on Schwartz space, identity_scaled or zero on any."""
    doc = _config_object(doc, "a candidate", ("form", "prefix", "tail", "c", "g"))
    form = _config_choice(doc["form"], "candidate form", CANDIDATE_KEYS)
    _config_object(doc, f"a {form} candidate", ("form",) + CANDIDATE_KEYS[form])
    if form in ("diagonal", "multiply_by") and (form == "multiply_by") != isinstance(space_cod, SchwartzSpace):
        raise ValueError(f"a {form!r} candidate does not fit the codomain {space_cod.tag}")
    if form == "diagonal":
        prefix = tuple(_config_number(v, "a diagonal entry") for v in _config_list(doc.get("prefix", []), "prefix"))
        return Diagonal(prefix, _config_number(doc.get("tail", 0), "a diagonal tail"), space_cod)
    if form == "identity_scaled":
        return IdentityScaled(_config_number(doc.get("c", 1), "c"), space_cod)
    if form == "multiply_by":
        return MultiplyBy(GaussPolyFn.from_json(doc["g"]), space_cod)
    return IdentityScaled(0, space_cod)


def _config_list(v, what: str, nonempty: bool = False) -> list:
    """v as a config list, refused unless it is one (and nonempty if asked)."""
    if not isinstance(v, list) or (nonempty and not v):
        raise ValueError(f"{what} must be a {'nonempty ' if nonempty else ''}list, got {v!r:.80}")
    return v


def _sid_list(raw, field):
    """raw as seminorm ids: a list of JSON integers up to MAX_INDEX, or
    (Schwartz space) lists of them up to MAX_ORDER and of such lists, each
    list made a tuple; field names the list in a refusal."""
    def sid(s, where, limit):
        if isinstance(s, list):
            return tuple(sid(e, f"{where}[{k}]", MAX_ORDER) for k, e in enumerate(s))
        return _config_int(s, where, 0, limit)
    return [sid(s, f"{field}[{k}]", MAX_INDEX) for k, s in enumerate(_config_list(raw, field))]


def _direction(space, doc):
    """The element of space that doc holds, refused when it is 0."""
    v = space.element_from_json(doc)
    if space.is_zero(v):
        raise ValueError("a direction must be nonzero")
    return v


def _at(path: str, read, *args):
    """read(*args), with a refusal of it prefixed by the config path read."""
    try:
        return read(*args)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


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


# the keys that each kind reads on its entry and in its params; an order
# suite names an operator for one case, or none for the order catalogue
_WITH_OPERATOR = ("name", "kind", "operator", "point", "params")
ENTRY_KEYS = {
    "identity": (("name", "kind", "case"), ()),
    "axioms": (("name", "kind", "space", "params"), ("ids", "n_samples")),
    "order": (("name", "kind", "params"), ("budget",)),
    "order case": (("name", "kind", "operator", "point", "claim", "budget", "directions"), ()),
    "continuity": (_WITH_OPERATOR, ("J", "epsilon", "n_samples", "delta_source")),
    "frechet": (_WITH_OPERATOR, ("J", "epsilon", "n_samples", "delta_source", "candidate")),
    "gateaux": (_WITH_OPERATOR + ("direction",), ("J", "epsilon", "candidate", "t_schedule")),
}


def _read_entry(entry, i: int) -> SimpleNamespace:
    """suites[i] read and checked, defaults filled in, as a namespace of all
    that run_suite_entry needs: name, kind, op (None without an operator)
    and the kind's own fields (ENTRY_KEYS).  A key that the kind does not
    read is refused, as is every malformed value, by a ValueError naming
    suites[i] and the field.  Nothing is drawn from an rng."""
    if not isinstance(entry, dict):
        raise ValueError(f"suites[{i}] must be a JSON object, got {entry!r:.80}")
    if not isinstance(entry.get("name"), str):
        raise ValueError(f"suites[{i}]: field 'name' is required and must be a string")
    return _at(f"suites[{i}] ({entry['name']})", _read_fields, entry)


def _read_fields(entry: dict) -> SimpleNamespace:
    kind = _config_choice(entry.get("kind"), "suite kind", SUITE_KINDS)
    form = "order case" if kind == "order" and "operator" in entry else kind
    entry_keys, param_keys = ENTRY_KEYS[form]
    _config_object(entry, "the entry", entry_keys)
    params = _config_object(entry.get("params", {}), "params", param_keys)
    s = SimpleNamespace(name=entry["name"], kind=kind, op=None)
    if kind == "identity":
        s.case = _config_choice(entry.get("case", s.name), "identity case", IDENTITY_CASES)
        return s
    if kind == "axioms":
        s.space = _at("space", space_from_json, entry["space"])
        s.ids = _sid_list(params.get("ids", []), "params.ids") or s.space.enum_ids(1)
        _at("params.ids", index_set, s.space, s.ids)  # each id names a seminorm of the space
        s.n_samples = _config_int(params.get("n_samples", 200), "params.n_samples", 1, MAX_COUNT)
        return s
    if form == "order":
        s.budget = _config_int(params.get("budget", 200), "params.budget", 1, MAX_COUNT)
        return s
    s.op = _at("operator", Operator.from_json, entry["operator"])
    dom, cod = s.op.domain, s.op.codomain
    s.point = _at("point", dom.element_from_json, entry["point"])
    if form == "order case":
        s.claim = _config_choice(entry.get("claim", "credit"), "order claim", ("credit", "max", "min", "increasing"))
        s.budget = _config_int(entry.get("budget", 100), "budget", 1, MAX_COUNT)
        directions = _config_list(entry.get("directions", []), "directions")
        s.directions = [_at(f"directions[{k}]", _direction, dom, d) for k, d in enumerate(directions)]
        return s
    s.J = _at("params.J", index_set, cod, _sid_list(params["J"], "params.J"))
    s.epsilon = _check_positive("params.epsilon", params.get("epsilon", 0.1))
    s.candidate = _at("params.candidate", linmap_from_json, cod, params["candidate"]) if "candidate" in params else None
    if kind == "gateaux":
        s.direction = _at("direction", _direction, dom, entry["direction"])
        s.t_schedule = None
        if "t_schedule" in params:
            ts = _config_list(params["t_schedule"], "params.t_schedule", nonempty=True)
            # a JSON number t is the exact decimal it is written as
            s.t_schedule = [Fraction(str(_config_number(t, f"params.t_schedule[{k}]"))) for k, t in enumerate(ts)]
            if 0 in s.t_schedule:
                raise ValueError(f"params.t_schedule[{s.t_schedule.index(0)}] must be nonzero")
        return s
    s.n_samples = _config_int(params.get("n_samples", 500), "params.n_samples", 1, MAX_COUNT)
    source = params.get("delta_source", "auto")
    if isinstance(source, list) and len(source) == 2:
        source = (_sid_list(source[0], "params.delta_source[0]"), source[1])
    s.delta_source = _at("params.delta_source", _read_delta_source, source, dom)
    return s


def _run_order_case(s: SimpleNamespace, rng):
    """One configured ordered-optimization case: claim credit, max, min or
    increasing of s.op at s.point, along s.directions or on budget draws."""
    op, dom, point = s.op, s.op.domain, s.point
    if s.claim == "credit":
        return is_credit_point(op, point, s.directions or [dom.random_direction(rng) for _ in range(5)])
    if s.claim in ("max", "min"):
        if s.directions:
            ts = [Fraction(k, 4) for k in range(-4, 5) if k]
            for v in s.directions:
                r = check_directional_extremum(op, point, v, ts, s.claim)
                if not r.passed:
                    return r
            return r
        return check_absolute_extremum(op, point, [dom.random_element(rng) for _ in range(s.budget)], s.claim)
    pairs = []
    for _ in range(s.budget):
        x = dom.random_element(rng).entrywise_map(abs)
        bump = dom.random_element(rng).entrywise_map(abs)
        pairs.append((x, x.add(bump)))
    return check_order_increasing(op, pairs)


def run_suite_entry(s: SimpleNamespace, seed: int) -> dict:
    """The report of one suite read by _read_entry, run under seed."""
    rng = random.Random(seed)
    t0 = time.perf_counter()

    if s.kind == "identity":
        report = IDENTITY_CASES[s.case](rng)
        payload = report.to_json()
        passed = report.passed
    elif s.kind == "axioms":
        per = max(1, s.n_samples // len(s.ids))
        reports = [axiom_report(s.space, sid, rng=rng, n_samples=per) for sid in s.ids]
        sep = separating_check(s.space, rng=rng, n_samples=min(s.n_samples, 200))
        passed = all(r.passed for r in reports) and sep.passed
        payload = {
            "kind": "axioms",
            "passed": passed,
            "per_seminorm": [r.to_json() for r in reports],
            "separating": sep.to_json(),
        }
    elif s.kind == "order":
        reports = [_run_order_case(s, rng)] if s.op is not None else credit_necessity_suite(rng, budget=s.budget)
        passed = all(r.passed for r in reports)
        payload = {"kind": "order", "passed": passed, "cases": [r.to_json() for r in reports]}
    else:
        if s.kind == "frechet":
            w = verify_frechet(s.op, s.point, s.J, s.epsilon, L=s.candidate, delta_source=s.delta_source, rng=rng,
                               n_samples=s.n_samples, seed=seed)
        elif s.kind == "continuity":
            w = continuity_verify(s.op, s.point, s.J, s.epsilon, delta_source=s.delta_source, rng=rng,
                                  n_samples=s.n_samples, seed=seed)
        else:  # gateaux
            w = verify_gateaux(s.op, s.point, s.direction, s.candidate, s.J, s.epsilon, s.t_schedule, seed=seed)
        payload, passed = w.to_json(s.op.domain), w.passed

    wall = time.perf_counter() - t0
    bad = []
    payload = _strings_for_nonfinite(payload, "witness", bad)
    out = {"name": s.name, "kind": s.kind, "seed": seed, "passed": bool(passed) and not bad, "wall_clock_s": wall}
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


def load_config(path) -> dict:
    """The JSON config at path, or the built-in catalogue when path is None."""
    if path is None:
        return builtin_catalogue_config()
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_float_sized_int)


def _reject_constant(name):
    # the report echoes the config, and strict JSON has no NaN or Infinity
    raise ValueError(f"non-finite number {name} is not valid JSON")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def _float_sized_int(text):
    if not math.isfinite(float(text)):  # suites turn numeric params into floats
        raise ValueError(f"integer of {len(text)} digits overflows a float")
    return int(text)


def read_config(config) -> list:
    """Every suite of a config read (_read_entry), the filtered-out ones too,
    so that a malformed config is refused before any suite runs.  Other top
    level keys than seed, suites and out are free: the report echoes them."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    if type(config.get("seed")) is not int:
        raise ValueError(f"config field 'seed' is required and must be a JSON integer, got {config.get('seed')!r:.80}")
    if not isinstance(config.get("out", ""), str):
        raise ValueError(f"config field 'out' must be a string, got {config['out']!r:.80}")
    if not isinstance(config.get("suites"), list):
        raise ValueError("config field 'suites' must be a list")
    return [_read_entry(e, i) for i, e in enumerate(config["suites"])]


def run_config(config: dict, seed_override=None, name_filter=None, kind_filter=None, out=None) -> dict:
    """The report of the config's suites, every one read before any runs.
    The report path, out or else the config's "out", is opened for appending
    once the config is read, so one that cannot be written is refused (an
    OSError) before any suite runs."""
    suites = read_config(config)
    out = out or config.get("out")
    if out:
        open(out, "a", encoding="utf-8").close()
    seed = config["seed"] if seed_override is None else seed_override
    if name_filter:
        suites = [s for s in suites if s.name == name_filter]
    if kind_filter:
        suites = [s for s in suites if s.kind == kind_filter]
    t0 = time.perf_counter()
    results = [run_suite_entry(s, derive_seed(seed, s.name)) for s in suites]
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

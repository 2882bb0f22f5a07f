"""Command-line driver: run named verification suites, emit JSON reports.

Exit codes: 0 = every check passed; 1 = usage/config error; 2 = at least one
verification failed.  Without --config the built-in catalogue suite runs
(the closed-form regression cases); each subcommand filters it by kind.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .suites import MAX_COUNT, SUITE_KINDS, builtin_catalogue_config, run_config

_KIND_BY_COMMAND = {
    "axioms": "axioms",
    "continuity": "continuity",
    "gateaux": "gateaux",
    "frechet": "frechet",
    "order": "order",
    "suite": None,
}


def _load_config(path):
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


def _validate(config) -> str | None:
    if not isinstance(config, dict):
        return "config must be a JSON object"
    if "seed" not in config:
        return "config field 'seed' is required (determinism contract)"
    suites = config.get("suites")
    if not isinstance(suites, list):
        return "config field 'suites' must be a list"
    for i, e in enumerate(suites):
        if not isinstance(e, dict):
            return f"suites[{i}] must be a JSON object"
        if not isinstance(e.get("name"), str):
            return f"suites[{i}]: field 'name' is required and must be a string"
        if e.get("kind") not in SUITE_KINDS:
            return f"suites[{i}] ({e.get('name')}): field 'kind' must be one of {SUITE_KINDS}"
        for field in ("params", "point", "direction"):
            if not isinstance(e.get(field, {}), dict):
                return f"suites[{i}] ({e.get('name')}): field '{field}' must be a JSON object"
        # a sample or draw count is a JSON integer: 2.5 or true is no count
        params = e.get("params", {})
        for where, field in ((params, "n_samples"), (params, "budget"), (e, "budget")):
            value = where.get(field, 0)
            if isinstance(value, bool) or not isinstance(value, int) or value > MAX_COUNT:
                return f"suites[{i}] ({e['name']}): field '{field}' must be an integer <= {MAX_COUNT}, got {value!r}"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsemcalc",
        description="epsilon-delta verification suites for seminorm-structured spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_text in [
        ("axioms", "run F-seminorm axiom suites"),
        ("continuity", "run continuity witnesses"),
        ("gateaux", "run Gateaux derivative witnesses"),
        ("frechet", "run Frechet (DZ)/(DR) witnesses"),
        ("order", "run the ordered-optimization suite"),
        ("suite", "run every suite in the config"),
    ]:
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON config (default: built-in catalogue)")
        p.add_argument("--out", metavar="PATH", help="write the report JSON here")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--suite", metavar="NAME", help="run only the named suite")
        p.add_argument("--list", action="store_true", help="list suite names and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1
    problem = _validate(config)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1

    kind = _KIND_BY_COMMAND[args.command]
    if args.list:
        for e in config["suites"]:
            if kind is None or e["kind"] == kind:
                print(f"{e['name']}  [{e['kind']}]")
        return 0

    try:
        report = run_config(config, seed_override=args.seed, name_filter=args.suite, kind_filter=kind)
    except (LookupError, ValueError, TypeError) as exc:  # LookupError: also NoRecipeError
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, RuntimeError) as exc:
        # a float power beyond float range, or a neighbourhood that the
        # sampler cannot land in (an explicit I that no direction reaches)
        print(f"error: config cannot be run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.suite and not report["suites"]:
        scope = f" of kind {kind!r}" if kind else ""
        print(f"error: no suite named {args.suite!r}{scope} in the config", file=sys.stderr)
        return 1

    out_path = args.out or config.get("out")
    text = json.dumps(report, indent=2, default=str, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for r in report["suites"]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{status}  {r['name']}  ({r['wall_clock_s']:.2f}s)", file=sys.stderr)
    summary = report["summary"]
    print(
        f"{summary['passed']}/{summary['total']} suites passed", file=sys.stderr
    )
    return 0 if summary["failed"] == 0 else 2


if __name__ == "__main__":
    sys.exit(main())

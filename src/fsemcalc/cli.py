"""Command-line driver: run named verification suites, emit JSON reports.

Exit codes: 0 = every check passed; 1 = usage/config error; 2 = at least one
verification failed.  Without --config the built-in catalogue suite runs
(the closed-form regression cases); each subcommand filters it by kind.
"""

from __future__ import annotations

import argparse
import json
import sys

from .suites import load_config, read_config, run_config

# each command's suite kind (None: every kind) and help line
_COMMANDS = {
    "axioms": ("axioms", "run F-seminorm axiom suites"),
    "continuity": ("continuity", "run continuity witnesses"),
    "gateaux": ("gateaux", "run Gateaux derivative witnesses"),
    "frechet": ("frechet", "run Frechet (DZ)/(DR) witnesses"),
    "order": ("order", "run the ordered-optimization suite"),
    "suite": (None, "run every suite in the config"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsemcalc",
        description="epsilon-delta verification suites for seminorm-structured spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_, help_text) in _COMMANDS.items():
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
        config = load_config(args.config)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1

    kind = _COMMANDS[args.command][0]
    try:
        if args.list:
            for s in read_config(config):
                if kind is None or s.kind == kind:
                    print(f"{s.name}  [{s.kind}]")
            return 0
        report = run_config(config, seed_override=args.seed, name_filter=args.suite, kind_filter=kind, out=args.out)
    except OSError as exc:  # the report path, checked before any suite runs
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
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
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
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

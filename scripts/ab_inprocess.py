#!/usr/bin/env python3
"""Time a parent commit against the working tree in one process, in turns.

    python3 scripts/ab_inprocess.py --parent REF --workload W --seed N \\
        [--ops K] [--repeats R]

From the root of a checkout.  The parent is unpacked with ``git archive``
into a temporary directory, as ``bench_pairs.py`` does.  Both trees'
``fsemcalc`` and ``perfbench/workloads.py`` are imported into this process
under their usual names, and ``sys.modules`` is swapped to one side before
it runs; the workloads reach ``fsemcalc`` at call time, so each side runs
its own code.  Both sides run the same K inputs of workload W (made by the
working tree's workloads; in-process workloads only), R times each, the
side that goes first alternating from repeat to repeat.  Before each run
the supremum candidate memo is cleared; a run is timed with
``time.process_time``.  Machine drift between two processes therefore
falls on both sides alike.

Prints one JSON object: the CPU seconds of every run, their median and
minimum per side, the ratios parent / change of both (above 1 means the
change is faster), and whether every witness's JSON was equal on both
sides and in every repeat.  Exit 0 when they were equal, 1 otherwise.
"""

import argparse
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, SIDES, unpack  # noqa: E402


def _own(name):
    return name in ("workloads", "checks") or name == "fsemcalc" or name.startswith("fsemcalc.")


def _drop_own_modules():
    for name in [n for n in sys.modules if _own(n)]:
        del sys.modules[name]


class Side:
    """One tree's fsemcalc and perfbench modules, held apart from sys.modules
    until the side is activated."""

    def __init__(self, tree):
        _drop_own_modules()
        sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
        try:
            self.workloads = importlib.import_module("workloads")
            self.workloads._fsem()
        finally:
            del sys.path[:2]
        self.modules = {n: m for n, m in sys.modules.items() if _own(n)}

    def activate(self):
        _drop_own_modules()
        sys.modules.update(self.modules)

    def run(self, workload, inputs):
        """(CPU seconds, JSON of every witness) of one run over inputs."""
        self.activate()
        memo = getattr(sys.modules["fsemcalc.gausspoly"], "_unit_candidates", None)
        if memo is not None:
            memo.cache_clear()
        wl = self.workloads.WORKLOADS[workload]
        t0 = time.process_time()
        outs = [wl.run(inp) for inp in inputs]
        spent = time.process_time() - t0
        return spent, [json.dumps(wl.capture(inp, out), sort_keys=True, default=str) for inp, out in zip(inputs, outs)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, help="operations per run (default: as many as one benchmark run)")
    parser.add_argument("--repeats", type=int, default=6, help="timed runs per side")
    args = parser.parse_args(argv)
    if args.repeats < 1 or (args.ops is not None and args.ops < 1):
        parser.error("--ops and --repeats must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree:
        commit = unpack(args.parent, parent_tree)
        sides = {"parent": Side(parent_tree), "change": Side(ROOT)}
        wl = sides["change"].workloads.WORKLOADS.get(args.workload)
        if wl is None or not wl.in_process:
            in_process = sorted(n for n, w in sides["change"].workloads.WORKLOADS.items() if w.in_process)
            parser.error(f"--workload must be one of {in_process}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        inputs, spare = wl.make_inputs(args.seed, args.ops or wl.op_count(bench["run_seconds"]))
        for side in sides.values():
            side.activate()
            side.workloads.WORKLOADS[args.workload].warm_up(spare)

        times = {side: [] for side in SIDES}
        outputs = {side: [] for side in SIDES}
        for r in range(args.repeats):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                spent, out = sides[side].run(args.workload, inputs)
                times[side].append(spent)
                outputs[side].append(out)
        _drop_own_modules()

    reference = outputs["change"][0]
    differing = sorted({i for runs in outputs.values() for out in runs for i, (a, b) in enumerate(zip(out, reference)) if a != b})
    summary = {side: {"median_s": statistics.median(t), "min_s": min(t), "runs_s": t} for side, t in times.items()}
    doc = {
        "parent": {"ref": args.parent, "commit": commit},
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(inputs),
        "repeats": args.repeats,
        "cpu": summary,
        "ratio_median": summary["parent"]["median_s"] / summary["change"]["median_s"],
        "ratio_min": summary["parent"]["min_s"] / summary["change"]["min_s"],
        "outputs_equal": not differing,
        "ops_differing": differing,
    }
    print(json.dumps(doc, indent=1))
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())

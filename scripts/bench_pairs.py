#!/usr/bin/env python3
"""Compare a parent commit with the working tree on the benchmark, in pairs.

    python3 scripts/bench_pairs.py --parent REF --out BENCH_<n>.json \\
        [--workloads W1,W2] [--seeds 101-110] [--trace-seed N]

From the root of a checkout.  The parent is unpacked with ``git archive``
into a temporary directory (no worktree is added).  For every workload and
seed the benchmark command of ``BENCHMARK.json`` runs once on each side;
which side runs first alternates from seed to seed, so a slow spell of the
machine falls on both.  The output holds, per workload and end-to-end
metric, the medians and quartiles of both sides, the pairs the change won
(ties count for neither side), every run's value, the failed and incorrect
runs, and the machine.  With --trace-seed each side also makes one traced
run on that seed and its per-layer metrics are recorded.  Runs are made one
at a time.  The script itself writes only --out; the benchmark writes its
own outputs in the checkout it runs from.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def unpack(ref, dest):
    """Write the tree of commit ref into dest; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    proc = subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_once(command, tree, workload, seed, seconds, trace):
    """One benchmark run in tree; its result line, or a record of the failure."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarise(seeds, runs, metrics):
    """runs: {"parent": [result per seed], "change": [...]}; metrics: the
    end_to_end entries of BENCHMARK.json.  Per metric: medians, quartiles,
    wins, over the seeds where both runs completed."""
    ok = [(s, p, c) for s, p, c in zip(seeds, runs["parent"], runs["change"]) if "metrics" in p and "metrics" in c]
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        per_seed = {str(s): [p["metrics"][name]["value"], c["metrics"][name]["value"]] for s, p, c in ok}
        if not per_seed:
            continue
        wins = sum(1 for a, b in per_seed.values() if (b > a if higher else b < a))
        losses = sum(1 for a, b in per_seed.values() if (b < a if higher else b > a))
        pq1, pmed, pq3 = quartiles([v[0] for v in per_seed.values()])
        cq1, cmed, cq3 = quartiles([v[1] for v in per_seed.values()])
        out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "change_wins": f"{wins}/{len(per_seed)}",
            "change_losses": f"{losses}/{len(per_seed)}",
            "median_change_rel": (cmed - pmed) / pmed if pmed else None,
            "median_gap_exceeds_parent_iqr": abs(cmed - pmed) > pq3 - pq1,
            "per_seed_parent_change": per_seed,
        }
    return out


def machine():
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    return info


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--out", required=True, help="write the comparison JSON here")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="101-110", help="e.g. 101-110 or 101,105,111-114")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per side on this seed")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True).stdout)
    doc = {
        "command": [*bench["command"], "--workload", "W", "--seed", "N", "--seconds", str(bench["run_seconds"])],
        "pairs": "one parent run and one change run per seed, alternating which runs first",
        "machine": machine(),
        "change": {"head": head, "uncommitted_changes": dirty},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        doc["parent"] = {"ref": args.parent, "commit": unpack(args.parent, parent_tree)}
        trees = {"parent": parent_tree, "change": str(ROOT)}
        for workload in args.workloads.split(","):
            runs = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(bench["command"], trees[side], workload, seed, bench["run_seconds"], 0))
                rate = {side: runs[side][-1].get("metrics", {}).get("verdicts_per_s", {}).get("value") for side in SIDES}
                print(f"{workload} seed {seed}: verdicts_per_s {rate}", file=sys.stderr)
            entry = {
                "seeds": seeds,
                "metrics": summarise(seeds, runs, bench["end_to_end"]),
                "errors": {side: {s: r["error"] for s, r in zip(seeds, runs[side]) if "error" in r} for side in SIDES},
                "runs_not_correct": {side: [s for s, r in zip(seeds, runs[side]) if r.get("correct") is False] for side in SIDES},
                "failed_ops": {side: sum(r.get("failed", 0) for r in runs[side]) for side in SIDES},
            }
            if args.trace_seed is not None:
                entry["trace"] = {"seed": args.trace_seed}
                for side in SIDES:
                    res = run_once(bench["command"], trees[side], workload, args.trace_seed, bench["run_seconds"], 1)
                    entry["trace"][side] = {k: v["value"] for k, v in res.get("metrics", {}).items()} or res
            doc["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

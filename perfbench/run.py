"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

From the root of a checkout.  A run is a fixed number of whole rounds of
operations, set by --seconds and the workload's nominal rate, never by the
clock.  With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 the layers are wrapped and it holds the per-layer metrics, and the
traced totals go to .bench_out/trace-<workload>-<seed>.json.  Every output
is checked against a computation made apart from the program, outside the
timed sections; the exit code is 0 when the run completed, whatever the
checks found (``correct`` says that).
"""

import time

_IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS_SHOWN = 20
END_TO_END = {"verdicts_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def process_age() -> float:
    """Seconds since this process started (from /proc, to 10 ms), else since
    this module was imported."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fsemcalc" / "__init__.py").is_file():
        print(f"error: no fsemcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workloads.OUT_DIR.mkdir(exist_ok=True)

    inputs, spare = wl.make_inputs(args.seed, wl.op_count(args.seconds))
    wl.warm_up(spare)
    tracer = uninstall = None
    if args.trace:
        if wl.in_process:
            tracer = tracing.Tracer()
            uninstall = tracer.install()
        else:
            wl.traced = True
    setup_s = process_age()

    times, records, failed = [], [], 0
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # an operation that raises is a failed operation
            times.append(time.perf_counter() - t0)
            records.append({"error": f"{type(exc).__name__}: {exc}"})
            failed += 1
            continue
        times.append(time.perf_counter() - t0)
        record = wl.capture(inp, out)
        records.append(record)
        failed += wl.failed(record)
    rss = peak_rss_mb(wl.in_process)
    if uninstall:
        uninstall()

    problems = []
    for i, (inp, record) in enumerate(zip(inputs, records)):
        if "error" in record:
            print(f"op {i}: {record['error']}", file=sys.stderr)
        elif not wl.failed(record):
            problems += [f"op {i}: {p}" for p in wl.check(inp, record)]
    problems += wl.finish(args.seed, inputs, records)
    for p in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check: {p}", file=sys.stderr)

    if args.trace:
        doc = tracer.to_json() if tracer else tracing.merge(json.loads(inp["stats"].read_text()) for inp in inputs)
        doc["timed_s"] = sum(times)
        trace_path = workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        metrics = tracing.layer_metrics(doc)
    else:
        values = {
            "verdicts_per_s": len(inputs) * wl.verdicts_per_op / sum(times),
            "op_p50_s": statistics.median(times),
            "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": not problems, "attempted": len(inputs), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

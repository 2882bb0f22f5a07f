"""Per-layer tracing from outside the program.

The public functions of each layer are wrapped where their callers look
them up: module functions in every fsemcalc module that imported them,
methods on their class.  Each call becomes a span on its thread's own span
stack, because the catalogue runs suites on a thread pool.  Spans are timed
in thread CPU time, so a pool thread waiting for the interpreter lock is not
charged for the wait; a span's self time is its time minus that of its child
spans.  ``suites.run_config`` waits for its pool without using CPU, so its
self time is the pool's bookkeeping and the report assembly.

Spans are folded into per-layer totals as they close; the totals are
written out when the run ends.  Run as a script, this module makes one
traced catalogue report in its own process:

    python3 perfbench/tracing.py STATS_PATH suite --seed N --out REPORT_PATH
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# layer -> [(module, class or None, attribute)]
LAYERS = {
    "gausspoly.sup_abs": [("gausspoly", "GaussPolyFn", "sup_abs")],
    "gausspoly.algebra": [
        ("gausspoly", "GaussPolyFn", name) for name in ("mul", "pow", "diff", "add", "scale", "monomial_mul")
    ],
    "rootfind.real_roots": [("rootfind", None, "real_roots")],
    "rootfind.ternary_max": [("rootfind", None, "ternary_max")],
    "differentiation.scale_into": [("differentiation", None, "scale_into")],
    "differentiation.dr_ratio": [("differentiation", None, "dr_ratio")],
    "differentiation.verify": [
        ("differentiation", None, "verify_frechet"),
        ("differentiation", None, "continuity_verify"),
    ],
    "spaces.seminorm": [("spaces", cls, "seminorm") for cls in ("SchwartzSpace", "SigmaRhoSpace", "SSpace")],
    "seminorms.family_max": [("seminorms", None, "family_max")],
    "seminorms.axiom_report": [("seminorms", None, "axiom_report")],
    "operators.apply": [("operators", "Operator", "apply")],
    "operators.bounds": [("operators", None, name) for name in ("bound_product", "bound_monomial", "bound_power")],
    "ordering.credit_necessity_suite": [("ordering", None, "credit_necessity_suite")],
    "suites.run_suite_entry": [("suites", None, "run_suite_entry")],
    "suites.run_config": [("suites", None, "run_config")],
    "cli.main": [("cli", None, "main")],
}

# extra counts taken from a call's arguments
CLASSIFY = {
    "gausspoly.sup_abs": ("gausspoly.sup_abs.multi_term_calls", lambda args: len(args[0].terms) > 1),
    "differentiation.scale_into": ("differentiation.scale_into.s_calls", lambda args: type(args[0]).__name__ == "SSpace"),
}


class Tracer:
    """Span totals kept per thread, without a lock on the hot path, and
    merged when read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (stack, spans, pairs, counts) of each thread

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # spans: layer -> [calls, time, self time]; pairs: (parent, child) -> calls
            state = self._local.state = ([], {}, Counter(), Counter())
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, layer: str, fn):
        classify = CLASSIFY.get(layer)
        clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, pairs, counts = self._state()
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]  # name, time of child spans
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += spent
                entry = spans.get(layer)
                if entry is None:
                    entry = spans[layer] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += spent
                entry[2] += spent - frame[1]
                if parent is not None:
                    pairs[parent, layer] += 1
                if classify is not None and classify[1](args):
                    counts[classify[0]] += 1

        return traced

    def install(self):
        """Wrap every layer function in place; return an undo callable."""
        importlib.import_module("fsemcalc.cli")
        package = sys.modules["fsemcalc"]
        modules = [m for name, m in sys.modules.items() if name == "fsemcalc" or name.startswith("fsemcalc.")]
        undo = []
        for layer, targets in LAYERS.items():
            for mod_name, cls_name, attr in targets:
                owner_mod = getattr(package, mod_name)
                if cls_name is not None:
                    owner = getattr(owner_mod, cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self.wrap(layer, original))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(owner_mod, attr)
                wrapped = self.wrap(layer, original)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, original))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return uninstall

    def to_json(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        return merge(
            {"spans": spans, "pairs": {f"{a}>{b}": n for (a, b), n in pairs.items()}, "counts": counts}
            for _, spans, pairs, counts in threads
        )


def merge(docs) -> dict:
    out = {"spans": {}, "pairs": Counter(), "counts": Counter()}
    for doc in docs:
        for layer, (calls, total, self_s) in doc["spans"].items():
            entry = out["spans"].setdefault(layer, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        out["pairs"].update(doc["pairs"])
        out["counts"].update(doc["counts"])
    return {"spans": out["spans"], "pairs": dict(out["pairs"]), "counts": dict(out["counts"])}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc) -> dict:
    """The per-layer metrics, each {"value", "unit"}, from traced totals."""
    spans, pairs, counts = doc["spans"], doc["pairs"], doc["counts"]

    def calls(layer):
        return spans.get(layer, [0, 0.0, 0.0])[0]

    def self_s(layer):
        return spans.get(layer, [0, 0.0, 0.0])[2]

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = (calls(layer), "count")
        values[f"{layer}.self_s"] = (self_s(layer), "s")
    for name, _ in CLASSIFY.values():
        values[name] = (counts.get(name, 0), "count")
    values["rootfind.real_roots.per_sup"] = (
        _ratio(calls("rootfind.real_roots"), calls("gausspoly.sup_abs")),
        "calls/sup",
    )
    values["differentiation.scale_into.family_max_per_call"] = (
        _ratio(pairs.get("differentiation.scale_into>seminorms.family_max", 0), calls("differentiation.scale_into")),
        "calls/call",
    )
    return {name: {"value": values[name][0], "unit": values[name][1]} for name in PER_LAYER}


# the per-layer metrics the benchmark reports, in BENCHMARK.json order
PER_LAYER = (
    "gausspoly.sup_abs.calls",
    "gausspoly.sup_abs.multi_term_calls",
    "gausspoly.sup_abs.self_s",
    "gausspoly.algebra.calls",
    "gausspoly.algebra.self_s",
    "rootfind.real_roots.calls",
    "rootfind.real_roots.self_s",
    "rootfind.real_roots.per_sup",
    "rootfind.ternary_max.calls",
    "rootfind.ternary_max.self_s",
    "differentiation.scale_into.calls",
    "differentiation.scale_into.s_calls",
    "differentiation.scale_into.self_s",
    "differentiation.scale_into.family_max_per_call",
    "differentiation.dr_ratio.calls",
    "differentiation.dr_ratio.self_s",
    "differentiation.verify.self_s",
    "spaces.seminorm.calls",
    "spaces.seminorm.self_s",
    "seminorms.family_max.calls",
    "seminorms.family_max.self_s",
    "seminorms.axiom_report.self_s",
    "operators.apply.calls",
    "operators.apply.self_s",
    "operators.bounds.calls",
    "operators.bounds.self_s",
    "ordering.credit_necessity_suite.self_s",
    "suites.run_suite_entry.calls",
    "suites.run_config.self_s",
    "cli.main.self_s",
)


def _report_main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["fsemcalc.cli"]
    code = cli.main(cli_args)
    Path(stats_path).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(_report_main(sys.argv[1:]))

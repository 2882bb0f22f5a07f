import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(rate, p50):
    return {"metrics": {"verdicts_per_s": {"value": rate}, "op_p50_s": {"value": p50}}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("101-103,110") == [101, 102, 103, 110]


def test_summarise_counts_wins_by_direction_and_skips_failed_runs():
    metrics = [
        {"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_p50_s", "better": "lower", "bound": 0.25},
    ]
    runs = {
        "parent": [result(10.0, 0.10), result(12.0, 0.08), result(11.0, 0.09), result(9.0, 0.1)],
        "change": [result(15.0, 0.07), result(12.0, 0.09), {"error": "exit 1"}, result(14.0, 0.06)],
    }
    out = bench_pairs.summarise([1, 2, 3, 4], runs, metrics)
    rate, p50 = out["verdicts_per_s"], out["op_p50_s"]
    assert rate["per_seed_parent_change"] == {"1": [10.0, 15.0], "2": [12.0, 12.0], "4": [9.0, 14.0]}
    assert rate["change_wins"] == "2/3" and rate["change_losses"] == "0/3"  # a tie counts for neither
    assert rate["parent"]["median"] == 10.0 and rate["change"]["median"] == 14.0
    assert p50["change_wins"] == "2/3" and p50["change_losses"] == "1/3"

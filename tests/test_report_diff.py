import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"


def report(ratio, tail, wall):
    suite = {"name": "frechet-square-s", "passed": True, "wall_clock_s": wall,
             "witness": {"dr_samples": [{"ratio": 0.5, "u": {"tail": tail}}, {"ratio": ratio, "u": {"tail": 1}}]}}
    return {"schema": "fsemcalc/1", "suites": [suite], "wall_clock_s": wall}


def run(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(tmp_path / name))
    proc = subprocess.run([sys.executable, str(SCRIPT), *paths], capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_report_diff_collapses_indices_and_ignores_wall_clock(tmp_path):
    assert run(tmp_path, report(0.25, 1, 1.0), report(0.25, 1, 9.0)) == (0, [])
    code, lines = run(tmp_path, report(0.25, 1, 1.0), report(0.2, "1", 2.0))
    assert code == 1
    assert lines == [
        "suites[frechet-square-s].witness.dr_samples[*].ratio  0.2",
        "suites[frechet-square-s].witness.dr_samples[*].u.tail  changed",
    ]

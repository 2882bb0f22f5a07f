import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"

pytestmark = pytest.mark.skipif(
    subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT, capture_output=True).returncode != 0,
    reason="needs a git checkout",
)


def test_ab_inprocess_runs_both_trees_on_the_same_inputs():
    # HEAD against the working tree: every witness's JSON must agree; the
    # timings are only checked to be there
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--workload", "sequence-verdicts", "--seed", "5", "--ops", "4", "--repeats", "2"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["outputs_equal"] and doc["ops_differing"] == [] and doc["ops"] == 4
    for side in ("parent", "change"):
        runs = doc["cpu"][side]["runs_s"]
        assert len(runs) == 2 and doc["cpu"][side]["min_s"] == min(runs)
    assert doc["ratio_median"] > 0


def test_ab_inprocess_refuses_a_workload_run_in_other_processes():
    argv = [sys.executable, str(SCRIPT), "--parent", "HEAD", "--workload", "catalogue", "--seed", "5", "--ops", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "sequence-verdicts" in proc.stderr

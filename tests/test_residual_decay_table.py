import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "residual_decay_table.py"


def test_residual_decay_table_prints_one_row_per_case():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.startswith("operator") and header.endswith("plateau(wrong)") and set(rule) == {"-"}
    cases = [("power", "schwartz"), ("power", "sigma_rho"), ("power", "s"), ("cross_power", "sigma_rho")]
    assert [r.split()[0] for r in rows] == [f"{k}^{m}@{d}" for m in (2, 3) for k, d in cases]
    assert all(len(r.split()) == 10 for r in rows)  # eight residuals and the plateau

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layer_times.py"


def test_layer_times_prints_every_median():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "2"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["repeat"] == 2
    assert set(doc["sup_abs_s"]) == {"1-group", "2-group", "2-group-fourier", "12-group"}
    assert set(doc["real_roots_s"]) == {"degree-8", "degree-16", "degree-24"}
    assert set(doc["family_max_s"]) == {"(0,0),(0,1)"}
    times = [t for group in ("sup_abs_s", "real_roots_s", "family_max_s") for t in doc[group].values()]
    assert all(t > 0.0 for t in times)

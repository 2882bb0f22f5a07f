#!/usr/bin/env python3
"""Compare two fsemcalc reports field by field, leaving out wall_clock_s.

    python3 scripts/report_diff.py A.json B.json

Prints each differing field path once, list indices collapsed to [*] (a
named entry shows its name), with the largest relative change on it, or
"changed" for a non-number.  Exit 0 only when the reports are identical.
"""

import json
import math
import sys
from pathlib import Path

MISSING = object()


def walk(a, b, path, out):
    """Record in out[path] the largest relative change between a and b."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted((a.keys() | b.keys()) - {"wall_clock_s"}):
            walk(a.get(key, MISSING), b.get(key, MISSING), f"{path}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            walk(x, y, f"{path}[{x['name'] if isinstance(x, dict) and 'name' in x else '*'}]", out)
    elif a != b or type(a) is not type(b):
        numeric = type(a) in (int, float) and type(b) in (int, float)
        rel = abs(a - b) / (max(abs(a), abs(b)) or 1.0) if numeric else math.inf
        out[path] = max(out.get(path, 0.0), rel)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: report_diff.py A.json B.json")
    out = {}
    walk(*(json.loads(Path(p).read_text(encoding="utf-8")) for p in sys.argv[1:]), "", out)
    for path, rel in sorted(out.items()):
        print(f"{path[1:]}  {'changed' if rel == math.inf else f'{rel:.3g}'}")
    sys.exit(1 if out else 0)

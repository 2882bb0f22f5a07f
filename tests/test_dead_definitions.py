"""Every function, method and class defined in the package is named
somewhere else in the project: in the package, the tests, the benchmark
harness or the scripts.  A definition whose name occurs only on its own
``def`` or ``class`` line is dead code."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fsemcalc"
SEARCHED = ("src", "tests", "perfbench", "scripts")
DEFINITION = re.compile(r"^\s*(?:async\s+)?(?:def|class)\s+(\w+)")
NAME = re.compile(r"[A-Za-z_]\w*")


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.name}:{node.lineno}", node.name


def _name_counts() -> Counter:
    """Occurrences of every identifier-shaped word, leaving out the defined
    name on each def or class line."""
    counts = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for line in path.read_text(encoding="utf-8").splitlines():
                words = NAME.findall(line)
                defined = DEFINITION.match(line)
                if defined:
                    words = [w for w in words if w != defined.group(1)]
                counts.update(words)
    return counts


def test_every_definition_is_named_elsewhere():
    counts = _name_counts()
    dead = [f"{where} {name}" for where, name in _definitions() if counts[name] == 0]
    assert not dead, "defined but never named elsewhere: " + ", ".join(dead)

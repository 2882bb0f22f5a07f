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


def _defaults():
    """(where, callee name, parameter, position) for every parameter with a
    default of a function defined in the package; position is its index
    among the positional arguments of a call (None for keyword-only), with
    self or cls left out of a method, and ``__init__`` called by its class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(id(node))
            name = cls.name if cls is not None and node.name == "__init__" else node.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if cls is not None and not static else 0
            first = len(positional) - len(node.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield f"{path.name}:{node.lineno}", name, arg.arg, i - skip
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    yield f"{path.name}:{node.lineno}", name, arg.arg, None


def _calls():
    """callee name -> [(positional count, keyword names)] over every call
    in the searched trees; a call with *args or **kwargs passes everything."""
    out = {}
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                    out.setdefault(name, []).append((float("inf"), None))
                else:
                    out.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}))
    return out


def test_every_default_is_set_by_some_caller():
    # an option that no caller sets is a constant under another name
    calls = _calls()

    def passed(name, param, position, count, keywords):
        if keywords is None:
            return True
        return param in keywords or (position is not None and count > position)

    unset = [
        f"{where} {name}({param})"
        for where, name, param, position in _defaults()
        if not any(passed(name, param, position, c, k) for c, k in calls.get(name, []))
    ]
    assert not unset, "parameters no call sets: " + ", ".join(unset)

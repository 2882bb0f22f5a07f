"""The benchmark's workloads: inputs from (seed, operation index), the timed
operation, and what is kept of each output for the checks.

A run is a fixed sequence of whole rounds; the round is the same on every
seed, only the random inputs inside it change.  Inputs never repeat within a
run, because the candidate cache in ``fsemcalc.gausspoly`` makes a repeat
several times cheaper.  The program is reached through module attributes at
call time, so the traced run sees its wrapped functions.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, so they are stable across processes
    return random.Random(f"{workload}/{seed}/{index}")


def _fsem():
    import fsemcalc.differentiation
    import fsemcalc.operators
    import fsemcalc.spaces

    return fsemcalc


# ---------------------------------------------------------------------------
# exact Gaussian-polynomial input specs: [(decay, {exp: coeff})]

DECAYS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def random_spec(rng, n_terms: int, max_exp: int, n_monomials) -> list:
    decays = rng.sample(DECAYS, n_terms)
    spec = []
    for a in decays:
        exps = rng.sample(range(max_exp + 1), rng.randint(*n_monomials))
        poly = {}
        for e in exps:
            num = rng.choice([k for k in range(-6, 7) if k])
            poly[e] = Fraction(num, rng.choice([1, 2, 3]))
        spec.append((a, poly))
    return spec


def spec_key(spec) -> str:
    """Key of a spec as the candidate cache in ``fsemcalc.gausspoly`` keys it:
    coefficients divided by the largest magnitude, so that scalar multiples,
    which share cached candidates, count as the same input."""
    top = max(abs(c) for _, poly in spec for c in poly.values())
    return repr(sorted((str(a), sorted((e, str(c / top)) for e, c in poly.items())) for a, poly in spec))


def spec_to_fn(spec):
    from fsemcalc.gausspoly import GaussPolyFn, GaussPolyTerm, SparsePoly

    terms = [GaussPolyTerm(SparsePoly(1, {(e,): c for e, c in poly.items()}), (a,)) for a, poly in spec]
    return GaussPolyFn(1, terms)


def fresh(draw, seen: set):
    """Draw until the input's key is new in this run."""
    while True:
        value, key = draw()
        if key not in seen:
            seen.add(key)
            return value


# ---------------------------------------------------------------------------


class Workload:
    """One workload; BENCHMARK.json says why each exists."""

    name = ""
    round_ops = ()  # one entry per operation of a round
    ops_per_s = 1.0  # nominal rate on the reference machine, sets the op count
    min_ops = 40
    verdicts_per_op = 1
    in_process = True

    def op_count(self, seconds: float) -> int:
        per_round = len(self.round_ops)
        want = max(self.min_ops, seconds * self.ops_per_s)
        return per_round * max(1, math.ceil(want / per_round - 1e-9))

    def make_inputs(self, seed: int, count: int) -> tuple:
        """The run's inputs and one more round, distinct from them, for the warm-up."""
        seen = set()
        inputs = [self.make_input(seed, i, seen) for i in range(count + len(self.round_ops))]
        return inputs[:count], inputs[count:]

    def warm_up(self, spare):
        """One operation of each kind of the round, so that no timed
        operation pays for a first use (a lazy import, a first cache fill)."""
        for inp in spare:
            self.run(inp)

    def make_input(self, seed: int, index: int, seen: set):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def capture(self, inp, out) -> dict:
        """What the checks need, taken outside the timed section."""
        raise NotImplementedError

    def failed(self, record) -> bool:
        return not record["passed"]

    def check(self, inp, record) -> list:
        raise NotImplementedError

    def finish(self, seed: int, inputs, records) -> list:
        """Checks that span the whole run; empty by default."""
        return []


# ---------------------------------------------------------------------------


class SchwartzFrechet(Workload):
    name = "schwartz-frechet"
    # m = 4 only at the origin: at a base point, sup_abs sometimes raises
    # OverflowError on the residual (a FOUND line in CHANGES.md)
    round_ops = tuple((m, shape) for m in (2, 3) for shape in ("origin", "one-term", "two-term")) + ((4, "origin"),)
    ops_per_s = 16.8
    J = (((0,), (0,)), ((0,), (1,)))
    n_samples = 10

    def __init__(self):
        self.tally = {}

    def make_input(self, seed, index, seen):
        m, shape = self.round_ops[index % len(self.round_ops)]
        rng = op_rng(self.name, seed, index)
        epsilon = rng.choice([0.5, 0.1, 0.01])
        sample_seed = rng.getrandbits(32)

        def draw():
            spec = random_spec(rng, 1 if shape == "one-term" else 2, 3, (1, 3))
            return spec, spec_key(spec)

        # the (DR) directions are the program's own, drawn from sample_seed
        spec = [] if shape == "origin" else fresh(draw, seen)
        return {"m": m, "epsilon": epsilon, "spec": spec, "shape": shape, "sample_seed": sample_seed}

    def run(self, inp):
        fs = _fsem()
        sch = fs.spaces.SchwartzSpace(1)
        op = fs.operators.Operator("power", {"m": inp["m"]}, sch, sch)
        xbar = spec_to_fn(inp["spec"]) if inp["spec"] else sch.zero()
        w = fs.differentiation.verify_frechet(
            op,
            xbar,
            self.J,
            inp["epsilon"],
            delta_source="constructive",
            rng=random.Random(inp["sample_seed"]),
            n_samples=self.n_samples,
        )
        return w, sch

    def capture(self, inp, out):
        w, sch = out
        return w.to_json(sch)

    def check(self, inp, record):
        problems = checks.check_schwartz_frechet(inp["spec"], inp["m"], inp["epsilon"], record, self.tally)
        want = "schwartz-power-origin" if inp["shape"] == "origin" else "schwartz-power"
        if record.get("recipe") != want:
            problems.append(f"recipe {record.get('recipe')!r}, expected {want!r}")
        return problems

    def finish(self, seed, inputs, records):
        """Say how many (DR) samples only the epsilon test could judge."""
        t = self.tally
        if t:
            print(f"note: {t['slack_covers_ratio']} of {t['samples']} (DR) samples have a rounding allowance at least their reported ratio; for them only the epsilon test applies", file=sys.stderr)
        return []


class SequenceVerdicts(Workload):
    name = "sequence-verdicts"
    round_ops = tuple(
        [(kind, "power", ("sigma_rho", rho), ("sigma_rho", rho)) for rho in (0.3, 0.5, 0.7) for kind in ("frechet", "continuity")]
        + [("frechet", "cross_power", ("sigma_rho", rho), ("s", None)) for rho in (0.3, 0.5, 0.7)]
        + [("frechet", "power", ("s", None), ("s", None)), ("continuity", "power", ("s", None), ("s", None))]
    )
    ops_per_s = 15.0
    J = (1, 2)
    n_samples = 400
    own_points = 10

    @staticmethod
    def _desc(space):
        tag, rho = space
        return {"space": "sigma_rho", "rho": rho} if tag == "sigma_rho" else {"space": "s"}

    def make_input(self, seed, index, seen):
        kind, op_kind, dom, cod = self.round_ops[index % len(self.round_ops)]
        rng = op_rng(self.name, seed, index)
        m = rng.choice([2, 3])
        epsilon = rng.choice([0.5, 0.1, 0.01])
        sample_seed = rng.getrandbits(32)

        def draw():
            prefix = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4])) for _ in range(rng.randint(1, 4))]
            tail = Fraction(rng.randint(-4, 4), 2) if dom[0] == "s" and rng.random() < 0.3 else Fraction(0)
            return (prefix, tail), repr((dom, prefix, tail))

        point = fresh(draw, seen)
        return {
            "kind": kind,
            "op": op_kind,
            "domain": self._desc(dom),
            "codomain": self._desc(cod),
            "m": m,
            "epsilon": epsilon,
            "point": point,
            "sample_seed": sample_seed,
            "own_seed": rng.getrandbits(32),
        }

    def run(self, inp):
        fs = _fsem()
        dom = fs.spaces.space_from_json(inp["domain"])
        cod = fs.spaces.space_from_json(inp["codomain"])
        op = fs.operators.Operator(inp["op"], {"m": inp["m"]}, dom, cod)
        x0 = fs.spaces.SeqElement(*inp["point"])
        verify = fs.differentiation.verify_frechet if inp["kind"] == "frechet" else fs.differentiation.continuity_verify
        w = verify(
            op,
            x0,
            self.J,
            inp["epsilon"],
            delta_source="constructive",
            rng=random.Random(inp["sample_seed"]),
            n_samples=self.n_samples,
        )
        return w, dom

    def capture(self, inp, out):
        w, dom = out
        return w.to_json(dom)

    def check(self, inp, record):
        if inp["kind"] == "frechet":
            problems = checks.check_seq_frechet(inp, record)
        else:
            problems = checks.check_seq_continuity(inp, record)
        return problems + checks.own_points_check(inp, record, random.Random(inp["own_seed"]), self.own_points)


class SchwartzBounds(Workload):
    name = "schwartz-bounds"
    round_ops = tuple((beta, m) for beta in (2, 3) for m in (2, 3, 4))
    ops_per_s = 55.0
    verdicts_per_op = 3

    def make_input(self, seed, index, seen):
        beta, m = self.round_ops[index % len(self.round_ops)]
        rng = op_rng(self.name, seed, index)

        def draw():
            spec = random_spec(rng, 1, 6, (3, 5))
            return spec, spec_key(spec)

        # g and f are each new in the run, so neither reuses cached candidates
        g = fresh(draw, seen)
        f = fresh(draw, seen)
        return {
            "g": g,
            "f": f,
            "product": {"alpha": rng.randint(0, 2), "beta": beta},
            "monomial": {"alpha": rng.randint(0, 2), "beta": beta, "lam": rng.randint(1, 3)},
            "power": {"alpha": rng.randint(0, 2), "beta": beta, "m": m},
        }

    def run(self, inp):
        ops = _fsem().operators
        g, f = spec_to_fn(inp["g"]), spec_to_fn(inp["f"])
        p, mo, pw = inp["product"], inp["monomial"], inp["power"]
        return {
            "product": ops.bound_product(g, f, p["alpha"], p["beta"]),
            "monomial": ops.bound_monomial(f, mo["lam"], mo["alpha"], mo["beta"]),
            "power": ops.bound_power(f, pw["m"], pw["alpha"], pw["beta"]),
        }

    def capture(self, inp, out):
        return {kind: list(pair) for kind, pair in out.items()}

    def failed(self, record):
        return not all(lhs <= rhs * (1.0 + 1e-9) for lhs, rhs in record.values())

    def check(self, inp, record):
        g, f = checks.terms_from_spec(inp["g"]), checks.terms_from_spec(inp["f"])
        problems = []
        for kind, (lhs, rhs) in record.items():
            problems += checks.check_bound(kind, inp[kind], g, f, lhs, rhs)
        return problems


class Catalogue(Workload):
    name = "catalogue"
    round_ops = ("report",)
    verdicts_per_op = 24
    in_process = False
    traced = False

    def __init__(self):
        self.suite_names = None

    def op_count(self, seconds):
        # a fixed 12 reports, whatever --seconds: each is a 1-6 s process,
        # depending on how loaded the machine is, and 12 keep a run well
        # under two minutes even when it is slow
        return 12

    def _cli(self, args, stats=None):
        """``fsemcalc`` as a user runs it from a checkout: PYTHONPATH=src."""
        if stats is None:
            cmd = [sys.executable, "-m", "fsemcalc.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("tracing.py")), str(stats), *args]
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    def make_input(self, seed, index, seen):
        rng = op_rng(self.name, seed, index)

        def draw():
            n = rng.getrandbits(31)
            return n, n

        n = fresh(draw, seen)
        out_dir = OUT_DIR / "catalogue"
        return {"seed": n, "out": out_dir / f"report-{index}.json", "stats": out_dir / f"stats-{index}.json"}

    def warm_up(self, spare):
        """Suite names from ``fsemcalc suite --list``; loads the interpreter
        and the package files once before timing."""
        (OUT_DIR / "catalogue").mkdir(parents=True, exist_ok=True)
        done = self._cli(["suite", "--list"])
        if done.returncode != 0:
            raise RuntimeError(f"fsemcalc suite --list failed: {done.stderr.strip()}")
        self.suite_names = [line.split()[0] for line in done.stdout.splitlines() if line.strip()]

    def run(self, inp):
        done = self._cli(["suite", "--seed", str(inp["seed"]), "--out", str(inp["out"])], inp["stats"] if self.traced else None)
        return done.returncode

    def capture(self, inp, out):
        return {"returncode": out, "text": inp["out"].read_text(encoding="utf-8") if inp["out"].exists() else ""}

    def failed(self, record):
        return record["returncode"] != 0

    def check(self, inp, record):
        return checks.check_report(record["text"], inp["seed"], self.suite_names)

    def finish(self, seed, inputs, records):
        """A second report with the first seed agrees with the first one."""
        if self.traced or "text" not in records[0]:
            return []
        first = inputs[0]
        again = dict(first, out=first["out"].with_name("report-again.json"))
        if self.run(again) != 0:
            return ["repeated report failed"]
        return checks.check_same_report(records[0]["text"], again["out"].read_text(encoding="utf-8"))


WORKLOADS = {w.name: w for w in (SchwartzFrechet(), SequenceVerdicts(), SchwartzBounds(), Catalogue())}

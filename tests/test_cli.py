import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsemcalc
from fsemcalc import gausspoly, suites
from fsemcalc.cli import main
from fsemcalc.seminorms import CheckReport
from fsemcalc.suites import builtin_catalogue_config, run_config

SIGMA_DESC = {"space": "sigma_rho", "rho": 0.5}


def frechet_entry(name="q2", candidate=None, epsilon=0.1):
    params = {"J": [1], "epsilon": epsilon, "n_samples": 60}
    if candidate:
        params["candidate"] = candidate
    return {
        "name": name,
        "kind": "frechet",
        "operator": {
            "kind": "power",
            "params": {"m": 2},
            "domain": SIGMA_DESC,
            "codomain": SIGMA_DESC,
        },
        "point": {"prefix": [1], "tail": 0},
        "params": params,
    }


def gateaux_entry():
    return {
        "name": "g3",
        "kind": "gateaux",
        "operator": {"kind": "power", "params": {"m": 3}, "domain": SIGMA_DESC, "codomain": SIGMA_DESC},
        "point": {"prefix": [1], "tail": 0},
        "direction": {"prefix": [1], "tail": 0},
        "params": {"J": [1], "epsilon": 0.1},
    }


def write_config(tmp_path, config, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(config))
    return str(p)


def test_exit_zero_on_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 42, "suites": [frechet_entry()]})
    out = tmp_path / "report.json"
    assert main(["frechet", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "fsemcalc/1"
    assert report["summary"] == {"total": 1, "passed": 1, "failed": 0}
    w = report["suites"][0]["witness"]
    assert w["recipe"] == "power-sigma" and w["passed"]


def test_exit_two_on_wrong_candidate(tmp_path):
    entry = frechet_entry("q2-wrong", candidate={"form": "diagonal", "prefix": [3], "tail": 0})
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    out = tmp_path / "report.json"
    assert main(["frechet", "--config", cfg, "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 1
    assert report["suites"][0]["witness"]["dr_samples"]  # stored counterexamples


def test_exit_one_on_malformed_config(tmp_path):
    cfg = write_config(tmp_path, {"suites": [frechet_entry()]})  # no seed
    assert main(["suite", "--config", cfg]) == 1
    cfg = write_config(tmp_path, {"seed": 1, "suites": [{"name": "x", "kind": "bogus"}]})
    assert main(["suite", "--config", cfg]) == 1
    assert main(["suite", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", True), ("seed", "7"), ("out", []), ("out", True), ("out", 99)],
    ids=["fractional-seed", "boolean-seed", "string-seed", "list-out", "boolean-out", "number-out"],
)
def test_exit_one_on_a_seed_or_out_of_another_type(tmp_path, capsys, field, value):
    # 1.5 and true ran as seed 1 and "7" as 7 while the report echoed them as
    # written; an out of [] was ignored, true wrote to fd 1, and 99 ended in
    # an OSError traceback
    cfg = write_config(tmp_path, {"seed": 1, "suites": [], field: value})
    assert main(["suite", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad config: config field '{field}'") and repr(value) in err[0]


@pytest.mark.parametrize("where", ["option", "config"])
def test_exit_one_when_the_report_cannot_be_written(tmp_path, capsys, where):
    # a report path in a missing directory ended in a traceback
    missing = str(tmp_path / "no-such-dir" / "r.json")
    config = {"seed": 1, "suites": [frechet_entry()]}
    if where == "config":
        config["out"] = missing
    cfg = write_config(tmp_path, config)
    assert main(["suite", "--config", cfg] + (["--out", missing] if where == "option" else [])) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write report:") and "no-such-dir" in err[0]


@pytest.mark.parametrize(
    "suites_field",
    [
        [5],
        ["x"],
        [{"name": 3, "kind": "order"}],
        [{"name": "o", "kind": "order", "params": [1]}],
        [{"name": "g", "kind": "gateaux", "direction": [1, 2]}],
    ],
)
def test_exit_one_on_non_object_entry(tmp_path, capsys, suites_field):
    cfg = write_config(tmp_path, {"seed": 1, "suites": suites_field})
    assert main(["suite", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config: suites[0]")


def test_exit_one_on_non_finite_config(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    for token in ("NaN", "1e999"):
        cfg.write_text('{"seed": 1, "suites": [], "note": %s}' % token)
        assert main(["suite", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and token in err[0]


def test_exit_one_on_a_config_nested_too_deeply(tmp_path, capsys):
    # the JSON decoder ran out of stack: a RecursionError traceback
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"seed": 1, "suites": [], "note": %s}' % ("[" * 100_000 + "]" * 100_000))
    assert main(["suite", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot load config:")


def test_exit_one_on_integer_too_large_for_a_float(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "suites": [frechet_entry(epsilon=10**400)]})
    assert main(["suite", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "401 digits" in err[0]


def test_non_finite_witness_fails_the_suite(tmp_path, monkeypatch):
    witness = {"ratio": float("nan"), "bounds": [1.0, float("-inf")]}
    monkeypatch.setitem(suites.IDENTITY_CASES, "nan-case", lambda rng: CheckReport("nan", True, witness, 1, 0.0))
    cfg = write_config(tmp_path, {"seed": 1, "suites": [{"name": "nan-case", "kind": "identity"}]})
    out = tmp_path / "r.json"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 2

    def reject(name):
        raise ValueError(name)

    report = json.loads(out.read_text(), parse_constant=reject)
    entry = report["suites"][0]
    assert not entry["passed"]
    assert entry["reason"] == "non-finite value at witness.counterexample.ratio (and 1 more)"
    assert entry["witness"]["counterexample"] == {"ratio": "nan", "bounds": [1.0, "-inf"]}


def test_delta_source_list_pair_is_explicit(tmp_path):
    entry = frechet_entry()
    entry["params"]["delta_source"] = [[1], 0.01]
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    out = tmp_path / "report.json"
    assert main(["frechet", "--config", cfg, "--out", str(out)]) == 0
    w = json.loads(out.read_text())["suites"][0]["witness"]
    assert w["delta_source"] == "explicit" and w["I"] == ["1"] and w["delta"] == 0.01


@pytest.mark.parametrize(
    "source",
    ["constructve", [[1], 0], [[1], "0.01"], [[], 0.01], [[1]]],
    ids=["typo", "zero-delta", "string-delta", "empty-I", "one-item"],
)
def test_exit_one_on_bad_delta_source(tmp_path, capsys, source):
    entry = frechet_entry()
    entry["params"]["delta_source"] = source
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:")
    if source == "constructve":
        assert "'constructve'" in err[0]


@pytest.mark.parametrize("kind", ["frechet", "continuity"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", 0),
        ("epsilon", -1),
        ("epsilon", True),
        ("epsilon", "0.1"),
        ("n_samples", 0),
        ("n_samples", -5),
        ("n_samples", 2.9),
        ("n_samples", True),
        ("n_samples", 10**30),
        ("point", [1, 2]),
        ("point", 3),
        ("J", [1.7]),
        ("J", [True]),
        ("J", ["1"]),
        ("J", [10**30]),
        ("candidate", {"form": "identity_scaled", "c": True}),
        ("candidate", {"form": "diagonal", "prefix": [True], "tail": 0}),
    ],
    ids=[
        "zero-epsilon",
        "negative-epsilon",
        "boolean-epsilon",
        "string-epsilon",
        "zero-samples",
        "negative-samples",
        "fractional-samples",
        "boolean-samples",
        "huge-samples",
        "list-point",
        "number-point",
        "fractional-J",
        "boolean-J",
        "string-J",
        "huge-J",
        "boolean-scalar-candidate",
        "boolean-diagonal-candidate",
    ],
)
def test_exit_one_on_meaningless_verdict_config(tmp_path, capsys, kind, field, value):
    entry = frechet_entry()
    entry["kind"] = kind
    if field == "point":
        entry["point"] = value
    else:
        entry["params"][field] = value
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main([kind, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]


@pytest.mark.parametrize(
    "kind, field, value",
    [("power", "m", 2.5), ("power", "m", True), ("power", "m", "3"), ("scale", "a", "2"), ("poly", "coeffs", [True, 1])],
    ids=["fractional-m", "boolean-m", "string-m", "string-scale", "boolean-coefficient"],
)
def test_exit_one_on_non_integer_power(tmp_path, capsys, kind, field, value):
    # int() would run x^2, the identity and x^3 while the report echoed m;
    # a string a would repeat every entry, and true would run as a_1 = 1
    entry = frechet_entry()
    entry["operator"].update(kind=kind, params={field: value})
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:") and repr(value) in err[0]


def test_identity_scaled_candidate_reads_an_exact_string(tmp_path):
    # "1/2" is the rational 1/2, the derivative of x -> x/2
    entry = frechet_entry(candidate={"form": "identity_scaled", "c": "1/2"})
    entry["operator"].update(kind="scale", params={"a": 0.5})
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0


SCHWARTZ_DESC = {"space": "schwartz", "n": 1}


@pytest.mark.parametrize(
    "space, ids",
    [
        ({"space": "schwartz", "n": 2}, None),
        ({"space": "schwartz", "n": "1"}, None),
        ({"space": "schwartz", "n": 1.5}, None),
        ({"space": "schwartz", "n": True}, None),
        (SIGMA_DESC, [1.7]),
        (SIGMA_DESC, [True]),
        (SIGMA_DESC, ["1"]),
        (SCHWARTZ_DESC, [[[0.5], [0]]]),
    ],
    ids=["n2", "string-n", "fractional-n", "boolean-n", "fractional-id", "boolean-id", "string-id", "fractional-multi-index"],
)
def test_exit_one_on_meaningless_axioms_config(tmp_path, capsys, space, ids):
    # the Schwartz space is 1-dimensional, and a seminorm id is a JSON
    # integer: each of these ran before, as n = 2 or as int(...) of the value
    entry = {"name": "ax", "kind": "axioms", "space": space, "params": {"n_samples": 4}}
    if ids is not None:
        entry["params"]["ids"] = ids
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["axioms", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:")


def _schwartz_frechet_entry(n=1, exp=1, coefficient="1", im="0", decay="1", J_entry=0):
    point = {"n": n, "terms": [{"decay": [decay], "poly": [{"exp": [exp], "re": coefficient, "im": im}]}]}
    return {
        "name": "square-schwartz",
        "kind": "frechet",
        "operator": {"kind": "power", "params": {"m": 2}, "domain": SCHWARTZ_DESC, "codomain": SCHWARTZ_DESC},
        "point": point,
        "params": {"J": [[[J_entry], [0]]], "epsilon": 0.1, "n_samples": 5},
    }


def _with_sigma_point_entry(value):
    entry = frechet_entry()
    entry["point"] = {"prefix": [1, value], "tail": 0}
    return entry


def _with_rho(rho):
    entry = frechet_entry()
    entry["operator"]["domain"] = entry["operator"]["codomain"] = {"space": "sigma_rho", "rho": rho}
    return entry


@pytest.mark.parametrize(
    "entry, value",
    [
        (_schwartz_frechet_entry(n=1.9), 1.9),
        (_schwartz_frechet_entry(n=True), True),
        (_schwartz_frechet_entry(exp=1.5), 1.5),
        (_schwartz_frechet_entry(exp=True), True),
        (_schwartz_frechet_entry(coefficient="1e999"), "1e999"),
        (_with_sigma_point_entry("1e999"), "1e999"),
        (_with_rho("1e999"), "1e999"),
        (frechet_entry(candidate={"form": "identity_scaled", "c": "1e999"}), "1e999"),
        (frechet_entry(candidate={"form": "diagonal", "prefix": ["-1e999"], "tail": 0}), "-1e999"),
        (_with_sigma_point_entry("1/0"), "1/0"),
        (_schwartz_frechet_entry(im="1/0"), "1/0"),
        (_with_sigma_point_entry("1e10000000"), "1e10000000"),
        (_with_sigma_point_entry("1e-10000000"), "1e-10000000"),
        (_schwartz_frechet_entry(decay=True), True),
        (_schwartz_frechet_entry(coefficient=True), True),
        (_schwartz_frechet_entry(exp=-1), -1),
        (_schwartz_frechet_entry(exp=10**30), 10**30),
        (_schwartz_frechet_entry(J_entry=10**30), 10**30),
        (_with_sigma_point_entry(True), True),
    ],
    ids=[
        "fractional-function-n",
        "boolean-function-n",
        "fractional-exponent",
        "boolean-exponent",
        "huge-coefficient",
        "huge-sigma-point-entry",
        "huge-rho",
        "huge-scalar-candidate",
        "huge-diagonal-candidate",
        "zero-denominator-sigma-point-entry",
        "zero-denominator-imaginary-part",
        "huge-decimal-exponent",
        "tiny-decimal-exponent",
        "boolean-decay",
        "boolean-coefficient",
        "negative-exponent",
        "huge-exponent",
        "huge-multi-index-entry",
        "boolean-sigma-point-entry",
    ],
)
def test_exit_one_on_a_number_that_would_not_run_as_written(tmp_path, capsys, entry, value):
    # int() ran n = 1.9 as 1 and x^1.5 as x with a PASS, float() ran a decay
    # of true as 1, an exact string too large for a float or a multi-index
    # entry of 10^30 ended in an OverflowError traceback, "1/0" in a
    # ZeroDivisionError, and "1e10000000" took seconds in Fraction
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:") and repr(value) in err[0]


@pytest.mark.parametrize(
    "point",
    [{}, {"a": 1}, {"prefix": [1]}, {"prefix": [1], "tail": 0, "extra": 2}, {"prefix": 1, "tail": 0},
     {"prefix": [True], "tail": 0}, {"prefix": [], "tail": None}, fsemcalc.GaussPolyFn.gaussian((1,)).to_json()],
    ids=["empty", "other-key", "no-tail", "extra-key", "number-prefix", "boolean-entry", "null-tail", "schwartz-function"],
)
def test_exit_one_on_a_sequence_point_that_is_no_sequence(tmp_path, capsys, point):
    # a missing prefix read as [] and a missing tail as 0, so each of these
    # ran at the origin or at (1, 0, ...) and passed
    entry = frechet_entry()
    entry["point"] = point
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config: suites[0] (q2): point: a sequence")


@pytest.mark.parametrize(
    "kind, operator, source, message",
    [
        ("frechet", "poly", "constructive", "error: bad config: no constructive delta for kind 'poly'"),
        ("continuity", "power", [[50], 0.01], "error: config cannot be run: RuntimeError: sampler failed to land"),
    ],
    ids=["constructive-without-recipe", "explicit-I-out-of-reach"],
)
def test_exit_one_on_a_delta_source_that_cannot_run(tmp_path, capsys, kind, operator, source, message):
    # a NoRecipeError (a LookupError) and the sampler's RuntimeError, for an
    # I that no random direction of sigma_rho reaches, were tracebacks
    entry = frechet_entry()
    entry["kind"] = kind
    entry["operator"].update(kind=operator, params={"coeffs": [1, 1]} if operator == "poly" else {"m": 2})
    entry["params"]["delta_source"] = source
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main([kind, "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)


def test_exit_one_when_a_recipe_delta_is_no_positive_number(tmp_path, capsys):
    # the schwartz-power bracket overflows at a coefficient of 1e308, so the
    # recipe's delta is 0.0 and no sample could land below it
    entry = _schwartz_frechet_entry(exp=0, coefficient=1e308)
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:") and "schwartz-power recipe's delta" in err[0]


@pytest.mark.parametrize("field", ["point", "directions"])
def test_exit_one_on_a_function_of_another_dimension(tmp_path, capsys, field):
    gauss1 = fsemcalc.GaussPolyFn.gaussian((1,)).to_json()
    gauss2 = fsemcalc.GaussPolyFn.gaussian((1, 1)).to_json()
    entry = {
        "name": "square-max",
        "kind": "order",
        "operator": {"kind": "power", "params": {"m": 2}, "domain": SCHWARTZ_DESC, "codomain": SCHWARTZ_DESC},
        "point": gauss1,
        "claim": "max",
        "directions": [gauss1],
    }
    entry[field] = gauss2 if field == "point" else [gauss2]
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["order", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:") and "dimension 2" in err[0]


@pytest.mark.parametrize(
    "field, value",
    [("epsilon", 0), ("epsilon", -0.1), ("epsilon", True), ("epsilon", "0.1"), ("t_schedule", [])],
    ids=["zero-epsilon", "negative-epsilon", "boolean-epsilon", "string-epsilon", "empty-schedule"],
)
def test_exit_one_on_meaningless_gateaux_config(tmp_path, capsys, field, value):
    entry = gateaux_entry()
    entry["params"][field] = value
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["gateaux", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:") and field in err[0]


@pytest.mark.parametrize(
    "space, candidate",
    [
        ({"space": "schwartz", "n": 1}, {"form": "diagonal", "prefix": [2], "tail": 0}),
        (SIGMA_DESC, {"form": "multiply_by", "g": fsemcalc.GaussPolyFn.gaussian((1,)).to_json()}),
    ],
    ids=["diagonal-on-schwartz", "multiply-by-on-sigma"],
)
def test_exit_one_on_a_candidate_that_does_not_fit_its_codomain(tmp_path, capsys, space, candidate):
    entry = frechet_entry(candidate=candidate)
    entry["operator"].update(domain=space, codomain=space)
    if space["space"] == "schwartz":
        entry["point"] = fsemcalc.GaussPolyFn.gaussian((1,)).to_json()
        entry["params"]["J"] = [[[0], [0]]]
    cfg = write_config(tmp_path, {"seed": 42, "suites": [entry]})
    assert main(["frechet", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad config:") and candidate["form"] in err[0]


CUBE_MAX = {
    "name": "cube-max-at-origin",
    "kind": "order",
    "operator": {"kind": "power", "params": {"m": 3}, "domain": {"space": "s"}, "codomain": {"space": "s"}},
    "point": {"prefix": [], "tail": 0},
    "claim": "max",
}


@pytest.mark.parametrize(
    "entry, field",
    [
        ({**CUBE_MAX, "budget": 0}, "budget"),
        ({**CUBE_MAX, "budget": -3}, "budget"),
        ({"name": "order-catalogue", "kind": "order", "params": {"budget": 0}}, "params.budget"),
        ({"name": "axioms-s", "kind": "axioms", "space": {"space": "s"}, "params": {"n_samples": 0}}, "params.n_samples"),
    ],
    ids=["zero-order-budget", "negative-order-budget", "zero-catalogue-budget", "zero-axioms-samples"],
)
def test_exit_one_on_a_count_below_one(tmp_path, capsys, entry, field):
    # each passed on no sample: x^3 as a maximum at the origin, the order
    # catalogue and the axioms
    cfg = write_config(tmp_path, {"seed": 1, "suites": [entry]})
    assert main(["suite", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    prefix = f"error: bad config: suites[0] ({entry['name']}): {field} must be a JSON integer in [1, 100000]"
    assert len(err) == 1 and err[0].startswith(prefix)


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("frechet", "eps", 1e-9),
        ("frechet", "n_sample", 5),
        ("frechet", "delta_sourc", [[1], 0.5]),
        ("continuity", "candidate", {"form": "zero"}),
        ("gateaux", "n_samples", 5),
    ],
    ids=["eps", "n_sample", "delta_sourc", "continuity-candidate", "gateaux-samples"],
)
def test_exit_one_on_a_key_the_suite_does_not_read(tmp_path, capsys, kind, key, value):
    # each ran at its default without a word (epsilon 0.1, 500 samples, the
    # constructive delta, the analytic derivative, the t schedule)
    entry = gateaux_entry() if kind == "gateaux" else dict(frechet_entry(), kind=kind)
    entry["params"][key] = value
    cfg = write_config(tmp_path, {"seed": 1, "suites": [entry]})
    assert main(["suite", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    prefix = f"error: bad config: suites[0] ({entry['name']}): params has the unknown key {key!r}"
    assert len(err) == 1 and err[0].startswith(prefix)


def test_a_malformed_last_suite_refuses_the_config_before_any_suite_runs(tmp_path, capsys, monkeypatch):
    runs = []
    run = suites.run_suite_entry
    monkeypatch.setattr(suites, "run_suite_entry", lambda s, seed: runs.append(s.name) or run(s, seed))
    last = frechet_entry("last")
    last["params"]["J"] = [1.5]
    cfg = write_config(tmp_path, {"seed": 1, "suites": [frechet_entry("first"), last]})
    # also when --suite, the command's kind or --list leaves the last suite out
    for argv in (["suite"], ["suite", "--suite", "first"], ["order"], ["suite", "--list"]):
        assert main(argv + ["--config", cfg]) == 1
        err = capsys.readouterr()
        assert err.out == "" and err.err == "error: bad config: suites[1] (last): params.J[0] must be a JSON integer in [0, 10000], got 1.5\n"
    assert runs == []
    cfg = write_config(tmp_path, {"seed": 1, "suites": [frechet_entry("first")]})
    assert main(["suite", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert runs == ["first"]


def test_exit_one_on_unknown_suite_name(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "suites": [frechet_entry("a")]})
    assert main(["suite", "--config", cfg, "--suite", "nope"]) == 1
    assert main(["order", "--config", cfg, "--suite", "a"]) == 1  # exists, but not of that kind
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "'nope'" in err[0] and "'a'" in err[1]


def test_empty_suites_ok(tmp_path):
    cfg = write_config(tmp_path, {"seed": 1, "suites": []})
    out = tmp_path / "r.json"
    assert main(["suite", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["total"] == 0


def test_list_and_filter(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "suites": [frechet_entry("a"), frechet_entry("b")]})
    assert main(["frechet", "--config", cfg, "--list"]) == 0
    listed = capsys.readouterr().out
    assert "a  [frechet]" in listed and "b  [frechet]" in listed
    out = tmp_path / "r.json"
    assert main(["frechet", "--config", cfg, "--suite", "b", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["name"] for s in report["suites"]] == ["b"]


ORDER_CASES = [
    {
        "name": "square-increasing",
        "kind": "order",
        "operator": {"kind": "power", "params": {"m": 2}, "domain": SIGMA_DESC, "codomain": SIGMA_DESC},
        "point": {"prefix": [], "tail": 0},
        "claim": "increasing",
        "budget": 40,
    },
    {
        "name": "cube-credit-at-origin",
        "kind": "order",
        "operator": {"kind": "power", "params": {"m": 3}, "domain": {"space": "s"}, "codomain": {"space": "s"}},
        "point": {"prefix": [], "tail": 0},
        "claim": "credit",
        "directions": [{"prefix": [], "tail": 1}],
    },
    {
        "name": "cube-not-max-at-origin",
        "kind": "order",
        "operator": {"kind": "power", "params": {"m": 3}, "domain": {"space": "s"}, "codomain": {"space": "s"}},
        "point": {"prefix": [], "tail": 0},
        "claim": "max",
        "directions": [{"prefix": [], "tail": 1}],
    },
]


def test_order_case_config(tmp_path):
    cfg = write_config(tmp_path, {"seed": 5, "suites": ORDER_CASES})
    out = tmp_path / "r.json"
    assert main(["order", "--config", cfg, "--out", str(out)]) == 2  # the refuted max
    report = json.loads(out.read_text())
    by_name = {s["name"]: s["passed"] for s in report["suites"]}
    assert by_name["square-increasing"] and by_name["cube-credit-at-origin"]
    assert not by_name["cube-not-max-at-origin"]


def test_exit_one_on_fractional_order_budget(tmp_path, capsys):
    # a budget of 2.5 draws would otherwise be truncated to 2 without a word
    entry = {
        "name": "square-increasing",
        "kind": "order",
        "operator": {"kind": "power", "params": {"m": 2}, "domain": SIGMA_DESC, "codomain": SIGMA_DESC},
        "point": {"prefix": [], "tail": 0},
        "claim": "increasing",
        "budget": 2.5,
    }
    cfg = write_config(tmp_path, {"seed": 5, "suites": [entry]})
    assert main(["order", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "budget" in err[0]


def test_kind_filter_excludes_other_kinds(tmp_path):
    cfg = write_config(
        tmp_path,
        {"seed": 3, "suites": [frechet_entry("f"), {"name": "o", "kind": "order", "params": {"budget": 20}}]},
    )
    out = tmp_path / "r.json"
    assert main(["order", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["name"] for s in report["suites"]] == ["o"]


# one value of each JSON type and each edge a config number can reach, and
# the deletion of a key
MUTATIONS = (True, None, "x", -1, 0, 1.5, 10**30, [], {}, "1e999", "1/0", 1e308)
DELETE = object()


def _paths(doc, prefix=()):
    """The path of every value nested in doc, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def test_every_single_mutation_of_a_catalogue_verdict_exits_cleanly(tmp_path, capsys):
    # every value inside the catalogue's entries but the identity cases, the
    # order cases of ORDER_CASES and the top-level seed replaced by each of
    # MUTATIONS, and every key deleted, one at a time: the run exits 0, 1 or
    # 2 with no exception, and on 1 with one error line (about 4,300 runs;
    # samples and budgets are capped at 20)
    entries = [e for e in builtin_catalogue_config()["suites"] if e["kind"] != "identity"] + copy.deepcopy(ORDER_CASES)
    cfg, out = tmp_path / "mutant.json", str(tmp_path / "report.json")
    runs = 0
    for entry in entries:
        for where in (entry, entry.get("params", {})):
            for count in ("n_samples", "budget"):
                if count in where:
                    where[count] = min(where[count], 20)
        config = {"seed": 42, "suites": [entry]}
        paths = [("suites", 0) + path for path in _paths(entry)]
        if entry is entries[0]:
            paths.append(("seed",))
        for path in paths:
            for value in MUTATIONS + ((DELETE,) if isinstance(path[-1], str) else ()):
                mutant = copy.deepcopy(config)
                parent = mutant
                for key in path[:-1]:
                    parent = parent[key]
                if value is DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                cfg.write_text(json.dumps(mutant))
                what = f"{entry['name']} {list(path)} -> {'deleted' if value is DELETE else repr(value)}"
                try:
                    code = main(["suite", "--config", str(cfg), "--out", out])
                except Exception as exc:  # any escape fails, naming its mutation
                    pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
                err = capsys.readouterr().err.splitlines()
                assert code in (0, 1, 2), (what, code)
                assert code != 1 or (len(err) == 1 and err[0].startswith("error:")), (what, err)
                runs += 1
    assert runs > 3500


def _strip_timing(doc):
    doc = copy.deepcopy(doc)
    doc.pop("wall_clock_s", None)
    for s in doc["suites"]:
        s.pop("wall_clock_s", None)
    return doc


def test_determinism_same_seed():
    cfg = {"seed": 42, "suites": [frechet_entry()]}
    r1 = run_config(cfg)
    r2 = run_config(cfg)
    assert json.dumps(_strip_timing(r1), default=str) == json.dumps(_strip_timing(r2), default=str)


def test_seed_override_changes_samples():
    cfg = {"seed": 42, "suites": [frechet_entry()]}
    r1 = run_config(cfg)
    r2 = run_config(cfg, seed_override=7)
    assert r1["seed"] != r2["seed"]


def test_builtin_config_is_valid():
    cfg = builtin_catalogue_config()
    assert cfg["seed"] == 42
    names = [e["name"] for e in cfg["suites"]]
    assert len(names) == len(set(names))
    kinds = {e["kind"] for e in cfg["suites"]}
    assert kinds >= {"identity", "axioms", "frechet", "continuity", "gateaux", "order"}


@pytest.mark.slow
def test_builtin_catalogue_suite_passes():
    report = run_config(builtin_catalogue_config())
    failed = [s["name"] for s in report["suites"] if not s["passed"]]
    assert not failed, failed


@pytest.mark.slow
def test_report_identical_across_processes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(fsemcalc.__file__).parent.parent))
    texts = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fsemcalc.cli", "suite", "--seed", "1123133184", "--out", str(out)],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode in (0, 2), proc.stderr
        texts.append(json.dumps(_strip_timing(json.loads(out.read_text()))))
    assert texts[0] == texts[1]


def test_each_schwartz_suite_alone_gives_the_witness_of_the_whole_run(tmp_path):
    # a suite run by name follows other history than in the whole run (here
    # the whole run and the suites named after it), and gives the same witness
    whole = tmp_path / "whole.json"
    assert main(["suite", "--seed", "42", "--out", str(whole)]) == 0
    witnesses = {s["name"]: s["witness"] for s in json.loads(whole.read_text())["suites"]}
    names = [name for name in witnesses if "schwartz" in name]
    assert len(names) >= 4
    for name in reversed(names):
        out = tmp_path / f"{name}.json"
        assert main(["suite", "--seed", "42", "--suite", name, "--out", str(out)]) == 0
        (alone,) = json.loads(out.read_text())["suites"]
        assert alone["witness"] == witnesses[name], name


def test_readme_states_each_limit_at_its_value():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    limits = {
        "MAX_COUNT": suites.MAX_COUNT,
        "MAX_INDEX": suites.MAX_INDEX,
        "MAX_ORDER": gausspoly.MAX_ORDER,
        "MAX_DECIMAL_EXPONENT": gausspoly.MAX_DECIMAL_EXPONENT,
    }
    for name, value in limits.items():
        assert f"* `{name}` = {value:,}:" in readme, name


def test_package_runs_as_a_module():
    # python -m fsemcalc works from a checkout, without an installed script
    env = dict(os.environ, PYTHONPATH=str(Path(fsemcalc.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "fsemcalc", "suite", "--list"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "continuity-square-sigma" in proc.stdout.split()

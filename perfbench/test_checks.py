"""Each independent check passes on real output and fails on corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _witness(workload, inp):
    return workload.capture(inp, workload.run(inp))


# -- schwartz-frechet -----------------------------------------------------------


@pytest.fixture(scope="module")
def schwartz_origin():
    wl = workloads.SchwartzFrechet()
    inputs, _ = wl.make_inputs(seed=5, count=1)  # slot 0: m = 2 at the origin
    return wl, inputs[0], _witness(wl, inputs[0])


def test_schwartz_frechet_accepts_real_witness(schwartz_origin):
    wl, inp, w = schwartz_origin
    assert inp["shape"] == "origin"
    assert wl.check(inp, w) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda w: w["dr_samples"][0].update(ratio=w["dr_samples"][0]["ratio"] * 0.5), id="lowered-ratio"),
        pytest.param(lambda w: w["dr_samples"][1].update(max_I=w["dr_samples"][1]["max_I"] * 0.99), id="lowered-sup"),
        pytest.param(lambda w: w.update(passed=False), id="flipped-verdict"),
        pytest.param(lambda w: w.update(delta=w["dr_samples"][0]["max_I"] * 0.5), id="sample-outside"),
        pytest.param(lambda w: w.update(recipe="schwartz-power"), id="wrong-recipe"),
    ],
)
def test_schwartz_frechet_rejects_corruption(schwartz_origin, corrupt):
    wl, inp, w = schwartz_origin
    bad = copy.deepcopy(w)
    corrupt(bad)
    assert wl.check(inp, bad)


@pytest.fixture(scope="module")
def schwartz_base_points():
    wl = workloads.SchwartzFrechet()
    inputs, _ = wl.make_inputs(seed=5, count=3)  # slots 1 and 2: m = 2 at a one- and a two-term point
    return wl, {inp["shape"]: (inp, _witness(wl, inp)) for inp in inputs[1:]}


@pytest.mark.parametrize("shape", ["one-term", "two-term"])
def test_schwartz_frechet_catches_lowered_ratio_at_a_base_point(schwartz_base_points, shape):
    wl, by_shape = schwartz_base_points
    inp, w = by_shape[shape]
    assert wl.check(inp, w) == []
    xbar = checks.terms_from_spec(inp["spec"])

    def margin(s):  # rounding allowance as a share of the reported ratio
        return checks.power_residual_rounding(xbar, checks.terms_from_json(s["u"]), inp["m"], s["max_I"]) / s["ratio"]

    i = min(range(len(w["dr_samples"])), key=lambda i: margin(w["dr_samples"][i]))
    assert margin(w["dr_samples"][i]) < 0.25  # the comparison with the reported ratio can fail here
    bad = copy.deepcopy(w)
    bad["dr_samples"][i]["ratio"] *= 0.5
    assert any(p.startswith(f"sample {i}: grid ratio") and "exceeds reported" in p for p in wl.check(inp, bad))


def test_schwartz_frechet_tallies_samples_left_to_the_epsilon_test(schwartz_origin):
    wl, inp, w = schwartz_origin
    tally = {}
    checks.check_schwartz_frechet(inp["spec"], inp["m"], inp["epsilon"], w, tally)
    assert tally["samples"] == len(w["dr_samples"])
    bad = copy.deepcopy(w)
    bad["dr_samples"][0]["ratio"] = 0.0  # no allowance is below a zero ratio
    tally = {}
    checks.check_schwartz_frechet(inp["spec"], inp["m"], inp["epsilon"], bad, tally)
    assert tally["slack_covers_ratio"] >= 1


def test_schwartz_frechet_ratio_must_stay_below_epsilon(schwartz_origin):
    wl, inp, w = schwartz_origin
    tight = dict(inp, epsilon=min(s["ratio"] for s in w["dr_samples"]) * 0.5)
    assert any("not below epsilon" in p for p in wl.check(tight, w))


# -- sequence-verdicts ----------------------------------------------------------


@pytest.fixture(scope="module")
def sequence_witnesses():
    wl = workloads.SequenceVerdicts()
    inputs, _ = wl.make_inputs(seed=5, count=len(wl.round_ops))
    return wl, [(inp, _witness(wl, inp)) for inp in inputs]


def test_sequence_checks_accept_real_witnesses(sequence_witnesses):
    wl, pairs = sequence_witnesses
    for inp, w in pairs:
        assert wl.check(inp, w) == [], (inp["kind"], inp["domain"], inp["codomain"])


def _first(pairs, kind):
    return next((inp, w) for inp, w in pairs if inp["kind"] == kind)


def test_sequence_frechet_rejects_perturbed_ratio(sequence_witnesses):
    wl, pairs = sequence_witnesses
    inp, w = _first(pairs, "frechet")
    bad = copy.deepcopy(w)
    for s in bad["dr_samples"]:
        s["ratio"] *= 1.01
    assert checks.check_seq_frechet(inp, bad)


def test_sequence_frechet_rejects_sample_outside_neighbourhood(sequence_witnesses):
    wl, pairs = sequence_witnesses
    inp, w = _first(pairs, "frechet")
    bad = copy.deepcopy(w)
    bad["delta"] = min(s["max_I"] for s in bad["dr_samples"])
    assert checks.check_seq_frechet(inp, bad)


def test_sequence_continuity_rejects_perturbed_residual_and_flip(sequence_witnesses):
    wl, pairs = sequence_witnesses
    inp, w = _first(pairs, "continuity")
    bad = copy.deepcopy(w)
    for s in bad["samples"]:
        s["image_residual"] *= 1.01
    assert checks.check_seq_continuity(inp, bad)
    flipped = dict(w, passed=False)
    assert checks.check_seq_continuity(inp, flipped)


def test_own_points_catch_a_delta_that_is_too_large(sequence_witnesses):
    wl, pairs = sequence_witnesses
    for inp, w in pairs:
        assert checks.own_points_check(inp, w, random.Random(1), 10) == []
        wide = dict(w, delta=0.999)
        assert checks.own_points_check(inp, wide, random.Random(1), 10), (inp["kind"], inp["domain"])


def test_exact_ratio_on_a_hand_example():
    # sigma_{1/2}, m = 2, xbar = (1), u = (1/4): residual u^2 = 1/16, c = 1/2,
    # ratio = (1/16 / (1/2))^{1/2} = (1/8)^{1/2}
    dom = {"space": "sigma_rho", "rho": 0.5}
    c, ratio, _ = checks.seq_frechet_ratio(dom, dom, ([Fraction(1)], Fraction(0)), ([Fraction(1, 4)], Fraction(0)), 2, [1], [1])
    assert c == 0.5
    assert ratio == pytest.approx((1 / 8) ** 0.5, rel=1e-15)


# -- schwartz-bounds ------------------------------------------------------------


@pytest.fixture(scope="module")
def bounds_record():
    wl = workloads.SchwartzBounds()
    inputs, _ = wl.make_inputs(seed=5, count=2)
    inp = inputs[1]
    return wl, inp, _witness(wl, inp)


def test_bounds_accept_real_output(bounds_record):
    wl, inp, rec = bounds_record
    assert wl.check(inp, rec) == []


@pytest.mark.parametrize("kind", ["product", "monomial", "power"])
def test_bounds_reject_lowered_supremum(bounds_record, kind):
    wl, inp, rec = bounds_record
    bad = copy.deepcopy(rec)
    bad[kind][0] *= 0.999
    assert wl.check(inp, bad)


def test_bounds_reject_lhs_above_rhs(bounds_record):
    wl, inp, rec = bounds_record
    bad = copy.deepcopy(rec)
    bad["power"][1] = bad["power"][0] * 0.5
    assert any("exceeds rhs" in p for p in wl.check(inp, bad))


def test_grid_sup_matches_closed_form():
    # sup |x e^{-x^2}| = e^{-1/2} / sqrt(2) at x = 1/sqrt(2)
    f = checks.terms_from_spec([(Fraction(1), {1: Fraction(1)})])
    assert checks.seminorm_grid(f, 0, 0) == pytest.approx(0.5**0.5 * 2.718281828459045**-0.5, rel=1e-12)


# -- catalogue ------------------------------------------------------------------


@pytest.fixture(scope="module")
def catalogue_report(tmp_path_factory):
    wl = workloads.Catalogue()
    wl.warm_up(None)
    out = tmp_path_factory.mktemp("catalogue") / "report.json"
    assert wl.run({"seed": 42, "out": out, "stats": None}) == 0
    return wl.suite_names, out.read_text(encoding="utf-8")


def _edit(text, change):
    report = json.loads(text)
    change(report)
    return json.dumps(report, indent=2)


def _frechet_witness(report):
    return next(s["witness"] for s in report["suites"] if s["kind"] == "frechet")


def test_catalogue_accepts_real_report(catalogue_report):
    names, text = catalogue_report
    assert checks.check_report(text, 42, names) == []

    def retime(report):
        report["wall_clock_s"] = 1.5
        report["suites"][0]["wall_clock_s"] = 0.25

    assert checks.check_same_report(text, _edit(text, retime)) == []


def test_repeated_report_tolerates_last_bits_only(catalogue_report):
    names, text = catalogue_report

    def last_bit(report):
        w = _frechet_witness(report)
        w["delta"] = math.nextafter(w["delta"], 1.0)

    def relative_1e6(report):
        w = _frechet_witness(report)
        w["delta"] *= 1.000001

    assert checks.check_same_report(text, _edit(text, last_bit)) == []
    assert checks.check_same_report(text, _edit(text, relative_1e6))


def test_catalogue_rejects_flipped_verdict(catalogue_report):
    names, text = catalogue_report
    report = json.loads(text)
    report["suites"][3]["passed"] = False
    assert checks.check_report(json.dumps(report, indent=2), 42, names)


def test_catalogue_rejects_nan(catalogue_report):
    names, text = catalogue_report
    report = json.loads(text)
    report["suites"][0]["witness"]["tolerance"] = float("nan")
    assert any("strict JSON" in p for p in checks.check_report(json.dumps(report, indent=2), 42, names))


def test_catalogue_rejects_reordered_report(catalogue_report):
    names, text = catalogue_report
    report = json.loads(text)
    report["suites"][0], report["suites"][1] = report["suites"][1], report["suites"][0]
    reordered = json.dumps(report, indent=2)
    assert checks.check_report(reordered, 42, names)
    assert checks.check_same_report(text, reordered)


def test_catalogue_rejects_wrong_seed(catalogue_report):
    names, text = catalogue_report
    assert checks.check_report(text, 43, names)


# -- tracing and the benchmark declaration --------------------------------------


def _spin(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_excludes_children_and_waits():
    tracer = tracing.Tracer()
    inner = tracer.wrap("spaces.seminorm", lambda: _spin(0.02))

    def outer_fn():
        inner()
        _spin(0.01)
        time.sleep(0.05)  # waiting uses no CPU and is not charged

    tracer.wrap("seminorms.family_max", outer_fn)()
    doc = tracer.to_json()
    calls, total, self_s = doc["spans"]["seminorms.family_max"]
    assert calls == 1 and 0.03 <= total < 0.045
    assert 0.01 <= self_s < 0.02
    assert doc["pairs"] == {"seminorms.family_max>spaces.seminorm": 1}


def test_benchmark_json_names_what_the_benchmark_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    units = {name: v["unit"] for name, v in tracing.layer_metrics({"spans": {}, "pairs": {}, "counts": {}}).items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == units
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END

import importlib.util
import random
from pathlib import Path

import fsemcalc
from fsemcalc import differentiation
from fsemcalc.operators import Operator
from fsemcalc.spaces import SeqElement, SSpace

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("tracing", SCRIPT)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def test_every_layer_resolves_and_the_sample_loops_are_traced():
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        for targets in tracing.LAYERS.values():
            for mod_name, cls_name, attr in targets:
                owner = getattr(fsemcalc, mod_name)
                fn = getattr(owner, cls_name).__dict__[attr] if cls_name else getattr(owner, attr)
                assert hasattr(fn, "__wrapped__"), (mod_name, cls_name, attr)
        space = SSpace()
        op = Operator("power", {"m": 2}, space, space)
        x0 = SeqElement([1, -2], 1)
        differentiation.continuity_verify(op, x0, [1, 2], 0.1, rng=random.Random(0), n_samples=5)
        differentiation.verify_frechet(op, x0, [1, 2], 0.1, rng=random.Random(0), n_samples=5)
    finally:
        uninstall()
    doc = tracer.to_json()
    spans, pairs = doc["spans"], doc["pairs"]
    assert spans["differentiation.verify"][0] == 2
    assert spans["differentiation.scale_into"][0] >= 10
    assert spans["differentiation.dr_ratio"][0] == 5
    # the divisor max_I p(u) comes from the neighbourhood sampler, so each
    # (DR) sample measures only its ratio: one family_max per sample
    assert pairs["differentiation.dr_ratio>seminorms.family_max"] == 5

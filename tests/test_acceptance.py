"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Budgets and tolerances are pinned here; every random run is
seeded.
"""

import json
import random
import time
from fractions import Fraction

from fsemcalc.differentiation import (
    continuity_verify,
    fnorm_translate_backward,
    fnorm_translate_forward,
    gateaux_residual,
    scale_into,
    verify_frechet,
)
from fsemcalc.gausspoly import GaussPolyFn, leibniz_expand
from fsemcalc.operators import (
    Diagonal,
    IdentityScaled,
    MultiplyBy,
    Operator,
    analytic_frechet,
    bound_monomial,
    bound_power,
    bound_product,
    linmap_add,
)
from fsemcalc.ordering import credit_necessity_suite
from fsemcalc.seminorms import axiom_report, f_norm, family_max, index_set
from fsemcalc.spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace
from fsemcalc.suites import builtin_catalogue_config, run_config

SCH = SchwartzSpace(1)
S = SSpace()
GAUSS = GaussPolyFn.gaussian((Fraction(1),))
ONEX_GAUSS = GaussPolyFn.from_term({(0,): Fraction(1), (1,): Fraction(1)}, (Fraction(1),))
XGAUSS = GAUSS.monomial_mul((1,))


def _report(num, desc, ok, extra=""):
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {desc}" + (f" ({extra})" if extra else "")
    print(line, flush=True)
    assert ok, line


# -- 1: F-seminorm axiom suites ------------------------------------------------


def test_criterion_1_axiom_suites():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    failures = []
    families = [
        (SCH, [((a,), (b,)) for a in range(4) for b in range(4)]),
        (SigmaRhoSpace(0.5), list(range(1, 11))),
        (SigmaRhoSpace(0.3), list(range(1, 11))),
        (S, list(range(1, 11))),
    ]
    for space, sids in families:
        per = -(-1000 // len(sids))  # ceil: >= 1000 elements per family
        for sid in sids:
            r = axiom_report(space, sid, rng=rng, n_samples=per)
            if not r.passed:
                failures.append((space.tag, sid, r.counterexample))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "axioms (i)-(iv) + derived (v)-(ix) on 1000 elements per family",
        not failures and elapsed < 30.0,
        f"{elapsed:.1f}s, failures={failures[:2]}",
    )


# -- 2: symbolic oracle equivalence ---------------------------------------------


def test_criterion_2_symbolic_oracles():
    t0 = time.perf_counter()
    rng = random.Random(1002)
    bad_leibniz = 0
    for _ in range(200):
        g = SCH.random_element(rng, max_degree=6, exact=True)
        f = SCH.random_element(rng, max_degree=6, exact=True)
        beta = (rng.randint(0, 4),)
        if leibniz_expand(g, f, beta) != g.mul(f).diff(beta):
            bad_leibniz += 1
    bad_fourier = 0
    for _ in range(200):
        f = SCH.random_element(rng, max_degree=8, exact=True)
        if not f.fourier().inv_fourier().approx_eq(f, 1e-12):
            bad_fourier += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "Leibniz expansion exact on 200 pairs; Fourier round trip <= 1e-12 on 200",
        bad_leibniz == 0 and bad_fourier == 0 and elapsed < 60.0,
        f"{elapsed:.1f}s, leibniz_fail={bad_leibniz}, fourier_fail={bad_fourier}",
    )


# -- 3: derivative coincidence across the catalogue ------------------------------


def _catalogue_cases():
    sig = SigmaRhoSpace(0.5)
    for m in (1, 2, 3, 4):
        for fbar in (GaussPolyFn.zero(1), GAUSS, ONEX_GAUSS):
            yield (
                Operator("power", {"m": m}, SCH, SCH),
                fbar,
                XGAUSS,
                [((0,), (0,)), ((0,), (1,))],
                "schwartz",
            )
        for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([4, 1])):
            yield Operator("power", {"m": m}, sig, sig), xbar, SeqElement([1, 1]), [1, 2], "sigma"
        for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([3], tail=1)):
            yield Operator("power", {"m": m}, S, S), xbar, SeqElement([1, 1]), [1, 2], "s"
        for xbar in (SeqElement.zero(), SeqElement([2])):
            yield Operator("cross_power", {"m": m}, sig, S), xbar, SeqElement([1, 1]), [1, 2], "cross"


def _perturb(L, op):
    if isinstance(op.codomain, SchwartzSpace):
        return linmap_add(L, MultiplyBy(GAUSS, op.codomain))
    return linmap_add(L, Diagonal((1,), 1, op.codomain)) if isinstance(L, Diagonal) else linmap_add(
        L, IdentityScaled(1, op.codomain)
    )


def test_criterion_3_derivative_coincidence():
    t0 = time.perf_counter()
    rho = 0.5
    problems = []
    mags = [Fraction(1, 10**k) for k in range(1, 9)]
    for op, xbar, v, J, tag in _catalogue_cases():
        m = int(op.params["m"])
        L = analytic_frechet(op, xbar)
        Jset = index_set(op.codomain, J)
        run = []
        for t in mags:
            r = max(
                gateaux_residual(op, xbar, v, L, t, Jset),
                gateaux_residual(op, xbar, v, L, -t, Jset),
            )
            run.append(float(r))
        monotone = all(run[i + 1] <= run[i] * (1 + 1e-9) + 1e-15 for i in range(len(run) - 1))
        threshold = 10.0 ** (-4 * rho) if tag == "sigma" else 1e-6
        below = run[-1] < threshold
        rate_ok = True
        leading = xbar.entry(1) if not isinstance(xbar, GaussPolyFn) else None
        if tag == "sigma" and m >= 2 and (leading != 0 or m == 2):
            # residual ~ c t^rho: per-decade ratio within 10% of 10^-rho
            for i in range(3, len(run) - 1):
                ratio = run[i + 1] / run[i]
                if not (0.9 * 10**-rho <= ratio <= 1.1 * 10**-rho):
                    rate_ok = False
        plateau = gateaux_residual(op, xbar, v, _perturb(L, op), mags[-1], Jset)
        plateau_ok = plateau > 1e-2
        if not (monotone and below and rate_ok and plateau_ok):
            problems.append((op.describe(), m, tag, monotone, below, rate_ok, float(plateau)))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "44 catalogue (operator, point) pairs: residual decay + rate law + perturbed plateau",
        not problems and elapsed < 120.0,
        f"{elapsed:.1f}s, problems={problems[:3]}",
    )


# -- 4: constructive delta soundness ----------------------------------------------


def test_criterion_4_delta_recipes():
    t0 = time.perf_counter()
    rng = random.Random(1004)
    sig = SigmaRhoSpace(0.5)
    failures = []
    frechet_cases = []
    for m in (2, 3, 4):
        for fbar in (GAUSS, ONEX_GAUSS):
            frechet_cases.append((Operator("power", {"m": m}, SCH, SCH), fbar, [((0,), (0,)), ((0,), (1,))], "schwartz-power"))
        frechet_cases.append((Operator("power", {"m": m}, SCH, SCH), GaussPolyFn.zero(1), [((0,), (1,))], "schwartz-power-origin"))
        for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([4, 1])):
            frechet_cases.append((Operator("power", {"m": m}, sig, sig), xbar, [1, 2], "power-sigma"))
        for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([3], tail=1)):
            frechet_cases.append((Operator("power", {"m": m}, S, S), xbar, [1, 2], "power-s"))
        for xbar in (SeqElement.zero(), SeqElement([2])):
            frechet_cases.append((Operator("cross_power", {"m": m}, sig, S), xbar, [1, 2], "power-cross"))
    for eps in (0.5, 0.1, 0.01):
        for op, xbar, J, recipe in frechet_cases:
            w = verify_frechet(op, xbar, J, eps, delta_source="constructive", rng=rng, n_samples=500)
            if not (w.passed and w.recipe == recipe):
                failures.append(("frechet", op.describe(), eps, w.recipe, w.passed))
        for m in (2, 3, 4):
            for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([4, 1])):
                w = continuity_verify(
                    Operator("power", {"m": m}, sig, sig), xbar, [1, 2], eps, delta_source="constructive", rng=rng, n_samples=500
                )
                if not (w.passed and w.recipe == "continuity-power-sigma"):
                    failures.append(("continuity-sigma", m, eps, w.passed))
            for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([3], tail=1)):
                w = continuity_verify(
                    Operator("power", {"m": m}, S, S), xbar, [1, 2], eps, delta_source="constructive", rng=rng, n_samples=500
                )
                if not (w.passed and w.recipe == "continuity-power-s"):
                    failures.append(("continuity-s", m, eps, w.passed))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "boundary-biased (DR)/continuity sampling under every delta recipe, zero failures",
        not failures and elapsed < 180.0,
        f"{elapsed:.1f}s, failures={failures[:3]}",
    )


# -- 5: (DZ) exactness --------------------------------------------------------------


def test_criterion_5_dz_exactness():
    rng = random.Random(1005)
    sig = SigmaRhoSpace(0.5)
    sig3 = SigmaRhoSpace(0.3)
    bad = []
    cases = []
    for m in (1, 2, 3, 4):
        for space in (sig, sig3):
            for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([4, 1])):
                cases.append((Operator("power", {"m": m}, space, space), xbar))
            for xbar in (SeqElement.zero(), SeqElement([2])):
                cases.append((Operator("cross_power", {"m": m}, space, S), xbar))
        for xbar in (SeqElement.zero(), SeqElement([1]), SeqElement([3], tail=1)):
            cases.append((Operator("power", {"m": m}, S, S), xbar))
    for op, xbar in cases:
        J = index_set(op.codomain, [1, 2])
        I_len = 2
        L = analytic_frechet(op, xbar)
        for _ in range(20):
            tail = rng.choice([0, 1]) if isinstance(op.domain, SSpace) else 0
            u = SeqElement([0] * I_len + [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))], tail)
            num = op.codomain.sub(
                op.codomain.sub(op.apply(op.domain.add(xbar, u)), op.apply(xbar)), L.apply(u)
            )
            resid = family_max(op.codomain, num, J)
            if resid != 0.0:
                bad.append((op.describe(), u.to_json(), resid))
    _report(5, "kernel-supported perturbations give residual exactly 0 over J", not bad, f"bad={bad[:2]}")


# -- 6: explicit bound inequalities ---------------------------------------------------


def test_criterion_6_bound_inequalities():
    t0 = time.perf_counter()
    rng = random.Random(1006)
    bad = []
    for _ in range(500):
        f = SCH.random_element(rng, max_degree=6, exact=True)
        g = SCH.random_element(rng, max_degree=6, exact=True)
        alpha, beta = rng.randint(0, 3), rng.randint(0, 3)
        lhs, rhs = bound_product(g, f, alpha, beta)
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            bad.append(("product", lhs, rhs))
    for _ in range(500):
        f = SCH.random_element(rng, max_degree=6, exact=True)
        lam, alpha, beta = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        lhs, rhs = bound_monomial(f, lam, alpha, beta)
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            bad.append(("monomial", lhs, rhs))
    for _ in range(500):
        u = SCH.random_element(rng, max_degree=6, exact=True)
        m, alpha, beta = rng.randint(1, 4), rng.randint(0, 3), rng.randint(0, 3)
        lhs, rhs = bound_power(u, m, alpha, beta)
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            bad.append(("power", lhs, rhs))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "product/monomial/power seminorm bounds on 500 random instances each",
        not bad,
        f"{elapsed:.1f}s, bad={bad[:2]}",
    )


# -- 7: ordered-optimization suite ------------------------------------------------------


def test_criterion_7_order_suite():
    t0 = time.perf_counter()
    reports = credit_necessity_suite(random.Random(1007), budget=200)
    failures = [(r.details.get("case"), r.counterexample) for r in reports if not r.passed]
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "absolute minima, credit points, non-converse exhibits, order-increasing cone check",
        not failures and elapsed < 30.0,
        f"{elapsed:.1f}s, failures={failures[:2]}",
    )


# -- 8: F-norm translation ----------------------------------------------------------------


def test_criterion_8_fnorm_translation():
    rng = random.Random(1008)
    sig = SigmaRhoSpace(0.5)
    q2 = Operator("power", {"m": 2}, sig, sig)
    xbar = SeqElement([1])
    tx0 = q2.apply(xbar)
    eps = 0.1

    fwd = fnorm_translate_forward(q2, xbar, eps)
    delta = fwd["delta"]
    fwd_bad = 0
    hits = 0
    while hits < 500:
        u = sig.random_element(rng).scale(rng.uniform(0, 1))
        # shrink until the F-norm ball condition holds
        for _ in range(60):
            if f_norm(sig, u) < delta:
                break
            u = u.scale(0.5)
        if u.is_zero() or f_norm(sig, u) >= delta:
            continue
        hits += 1
        if f_norm(sig, q2.apply(xbar.add(u)).sub(tx0)) >= eps:
            fwd_bad += 1

    back = fnorm_translate_backward(q2, xbar, [1, 2], eps)
    I, bdelta = back["I"], back["delta"]
    J = index_set(sig, [1, 2])
    back_bad = 0
    hits = 0
    while hits < 500:
        u, _ = scale_into(sig, sig.random_direction(rng), I, rng.uniform(0, bdelta) or bdelta / 2)
        if u is None or family_max(sig, u, I) >= bdelta:
            continue
        hits += 1
        if family_max(sig, q2.apply(xbar.add(u)).sub(tx0), J) >= eps:
            back_bad += 1

    _report(
        8,
        "F-norm translation: forward implication and recovered pointwise witness on 500 samples",
        fwd_bad == 0 and back_bad == 0,
        f"forward_fail={fwd_bad}, backward_fail={back_bad}, delta={delta:.2e}/{bdelta:.2e}",
    )


# -- 9: determinism -------------------------------------------------------------------------


def _strip_timing(doc):
    doc = json.loads(json.dumps(doc, default=str))
    doc.pop("wall_clock_s", None)
    for s in doc["suites"]:
        s.pop("wall_clock_s", None)
    return doc


def test_criterion_9_determinism():
    cfg = builtin_catalogue_config()
    r1 = _strip_timing(run_config(cfg, seed_override=42))
    r2 = _strip_timing(run_config(cfg, seed_override=42))
    same = json.dumps(r1) == json.dumps(r2)
    all_passed = all(s["passed"] for s in r1["suites"])
    _report(9, "two seed-42 suite runs byte-identical modulo timing fields", same and all_passed)

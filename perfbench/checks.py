"""Independent output checks, computed apart from the program.

Nothing here imports fsemcalc.  Schwartz-space functions are rebuilt from
their JSON form (or from the benchmark's own input specs) as float numpy
polynomials times Gaussians and evaluated pointwise on dense grids; sequence
ratios are recomputed exactly in ``Fraction`` from the closed-form
seminorms.  Every check returns a list of problems, empty when the output is
correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

# Grid maxima are refined around the best coarse local maxima.  A supremum is
# never below a grid maximum, so the first tolerance only absorbs rounding.
GRID_POINTS = 2001
REFINE_TOP = 6
REFINE_POINTS = 65
REFINE_ROUNDS = 3
SUP_RTOL = 1e-9  # grid maximum may exceed a reported supremum by this much
GRID_RTOL = 1e-6  # and may fall short of it by this much after refinement
UNIT_ROUNDOFF = 2.0**-53


# ---------------------------------------------------------------------------
# Gaussian-polynomial functions as float numpy data: [(decay, ascending coeffs)]


def _num(v) -> float:
    return float(Fraction(v)) if isinstance(v, str) else float(v)


def _coeffs(pairs) -> np.ndarray:
    pairs = list(pairs)
    deg = max(e for e, _ in pairs)
    is_complex = any(isinstance(v, complex) and v.imag for _, v in pairs)
    c = np.zeros(deg + 1, dtype=complex if is_complex else float)
    for e, v in pairs:
        c[e] += v if is_complex else float(getattr(v, "real", v))
    return c


def terms_from_json(doc) -> list:
    """[(a, coeffs)] from a ``{"n": 1, "terms": [...]}`` element document."""
    if doc.get("n", 1) != 1:
        raise ValueError("only n = 1 elements are checked")
    return [
        (
            _num(t["decay"][0]),
            _coeffs((int(m["exp"][0]), complex(_num(m["re"]), _num(m["im"]))) for m in t["poly"]),
        )
        for t in doc["terms"]
    ]


def terms_from_spec(spec) -> list:
    """[(a, coeffs)] from the benchmark's own ``[(decay, {exp: coeff})]`` spec."""
    return [(float(decay), _coeffs((e, float(v)) for e, v in poly.items())) for decay, poly in spec]


def t_diff(terms) -> list:
    """d/dx of sum p(x) exp(-a x^2) is sum (p' - 2 a x p) exp(-a x^2)."""
    return [(a, P.polysub(P.polyder(c), P.polymulx(c) * (2.0 * a))) for a, c in terms]


def t_diff_n(terms, k: int) -> list:
    for _ in range(k):
        terms = t_diff(terms)
    return terms


def t_xpow(terms, k: int) -> list:
    return [(a, np.concatenate([np.zeros(k, dtype=c.dtype), c])) for a, c in terms]


def t_mul(f, g) -> list:
    """Product, with terms of equal decay merged."""
    out = {}
    for a, c in f:
        for b, d in g:
            cd = P.polymul(c, d)
            out[a + b] = P.polyadd(out[a + b], cd) if a + b in out else cd
    return list(out.items())


def t_pow(f, m: int) -> list:
    out = f
    for _ in range(m - 1):
        out = t_mul(out, f)
    return out


def t_abs(terms) -> list:
    return [(a, np.abs(c)) for a, c in terms]


def t_absdiff(terms) -> list:
    """Coefficientwise bound on d/dx: |p'| + 2 a |x p| with absolute coefficients."""
    return [(a, P.polyadd(np.abs(P.polyder(c)), P.polymulx(np.abs(c)) * (2.0 * a))) for a, c in terms]


def t_eval(terms, x):
    acc = 0.0
    for a, c in terms:
        acc = acc + P.polyval(x, c) * np.exp(-a * x * x)
    return acc if terms else np.zeros_like(x)


def t_radius(terms) -> float:
    """Beyond this radius every term is below exp(-70) of its peak scale."""
    return max(math.sqrt((len(c) + 1) / a) + math.sqrt(70.0 / a) for a, c in terms)


def grid_max(fn, radius: float) -> float:
    """Maximum of |fn| on a dense grid over [-radius, radius], refined by
    nested local grids around the best coarse local maxima."""
    x = np.linspace(-radius, radius, GRID_POINTS)
    v = np.abs(fn(x))
    best = float(v.max())
    peaks = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1
    if len(peaks) == 0:
        return best
    centers = x[peaks[np.argsort(v[peaks])[-REFINE_TOP:]]]
    offsets = np.linspace(-1.0, 1.0, REFINE_POINTS)
    h = x[1] - x[0]
    for _ in range(REFINE_ROUNDS):
        xs = centers[:, None] + h * offsets[None, :]
        vs = np.abs(fn(xs))
        best = max(best, float(vs.max()))
        centers = xs[np.arange(len(centers)), vs.argmax(axis=1)]
        h = h * (offsets[1] - offsets[0])
    return best


def seminorm_grid(terms, alpha: int, beta: int) -> float:
    """Grid estimate of sup |x^alpha D^beta f|."""
    g = t_xpow(t_diff_n(terms, beta), alpha)
    return grid_max(lambda x: t_eval(g, x), t_radius(g))


def compare_sup(label: str, reported: float, grid: float) -> list:
    """A reported supremum must not be below the grid maximum, and the
    refined grid must come close to it."""
    if grid > reported * (1.0 + SUP_RTOL):
        return [f"{label}: reported sup {reported!r} below grid max {grid!r}"]
    if grid < reported * (1.0 - GRID_RTOL):
        return [f"{label}: reported sup {reported!r} above refined grid max {grid!r}"]
    return []


# ---------------------------------------------------------------------------
# schwartz-frechet: power m, J = I = {(0,0), (0,1)}


def power_residual_grid(xbar, u, m: int, c: float):
    """Grid maxima of |R| and |R'| for R = ((xbar+u)^m - xbar^m - m xbar^{m-1} u) / c,
    expanded as sum_{k>=2} binom(m,k) xbar^{m-k} u^k so that nothing cancels."""
    dxbar, du = t_diff(xbar), t_diff(u)

    def value(x):
        xb, uu = t_eval(xbar, x), t_eval(u, x)
        return sum(math.comb(m, k) * xb ** (m - k) * uu**k for k in range(2, m + 1)) / c

    def slope(x):
        xb, dxb, uu, duu = t_eval(xbar, x), t_eval(dxbar, x), t_eval(u, x), t_eval(du, x)
        acc = 0.0
        for k in range(2, m + 1):
            b = math.comb(m, k)
            acc = acc + b * k * xb ** (m - k) * uu ** (k - 1) * duu
            if k < m:
                acc = acc + b * (m - k) * xb ** (m - k - 1) * dxb * uu**k
        return acc / c

    radius = t_radius(xbar + u)
    return grid_max(value, radius), grid_max(slope, radius)


def power_residual_rounding(xbar, u, m: int, c: float) -> float:
    """Bound on the rounding error of the program's ratio.  It forms
    (xbar+u)^m - xbar^m - (m xbar^{m-1}) u from float coefficients, so each
    coefficient may be off by gamma_n times the same expression taken with
    absolute coefficients; n counts the roundings that reach a coefficient."""
    ax, au = t_abs(xbar), t_abs(u)
    bound = t_pow(ax + au, m)
    if ax:
        bound += t_pow(ax, m) + [(a, m * cc) for a, cc in t_mul(t_pow(ax, m - 1), au)]
    deg = max(len(cc) for _, cc in xbar + u)
    n = m * (deg + 2) + 4
    radius = t_radius(bound)
    dbound = t_absdiff(bound)
    worst = max(grid_max(lambda x: t_eval(bound, x), radius), grid_max(lambda x: t_eval(dbound, x), radius))
    return 1.01 * n * UNIT_ROUNDOFF * worst / c


def check_schwartz_frechet(xbar_spec, m: int, epsilon: float, witness: dict, tally=None) -> list:
    """Verdict passed; every stored (DR) sample lies in the punctured
    neighbourhood; its residual ratio, evaluated pointwise on a dense grid,
    does not exceed the reported ratio beyond the rounding the program's
    float coefficients allow, and stays below epsilon.

    Where that rounding allowance is at least the reported ratio, the
    comparison with the reported ratio cannot fail and only the epsilon test
    is left; ``tally`` (a dict) counts the samples and those ones."""
    problems = []
    if not witness.get("passed"):
        problems.append("verdict did not pass")
    if witness["dz_residuals"]["max"] > 1e-12:
        problems.append("(DZ) residual is not zero")
    delta = witness["delta"]
    if not delta > 0.0:
        problems.append(f"delta {delta!r} is not positive")
    samples = witness["dr_samples"]
    if not samples or len(samples) != min(witness["n_dr"], 100):
        problems.append("stored (DR) samples missing")
    xbar = terms_from_spec(xbar_spec)
    for i, s in enumerate(samples):
        u = terms_from_json(s["u"])
        c = s["max_I"]
        p = max(seminorm_grid(u, 0, 0), seminorm_grid(u, 0, 1))
        problems += compare_sup(f"sample {i} max_I", c, p)
        if not 0.0 < c < delta:
            problems.append(f"sample {i}: max_I p(u) = {c!r} outside (0, {delta!r})")
            continue
        ratio = max(power_residual_grid(xbar, u, m, c))
        slack = power_residual_rounding(xbar, u, m, c)
        if tally is not None:
            tally["samples"] = tally.get("samples", 0) + 1
            tally["slack_covers_ratio"] = tally.get("slack_covers_ratio", 0) + (slack >= s["ratio"])
        if ratio > s["ratio"] * (1.0 + SUP_RTOL) + slack:
            problems.append(f"sample {i}: grid ratio {ratio!r} exceeds reported {s['ratio']!r} (+{slack:.3g})")
        if not ratio < epsilon:
            problems.append(f"sample {i}: grid ratio {ratio!r} not below epsilon {epsilon!r}")
    return problems


# ---------------------------------------------------------------------------
# sequence spaces: exact recomputation from the closed-form seminorms


def seq_from_json(doc):
    """(prefix, tail) as exact Fractions of the stored floats."""
    return [Fraction(_num(v)) for v in doc["prefix"]], Fraction(_num(doc["tail"]))


def seq_entry(x, k: int):
    prefix, tail = x
    return prefix[k - 1] if k <= len(prefix) else tail


def seq_seminorm(space: dict, t: Fraction) -> float:
    """|t|^rho on sigma_rho, |t| / (1 + |t|) on S."""
    t = abs(t)
    if space["space"] == "sigma_rho":
        return float(t) ** space["rho"]
    return float(t / (1 + t))


def seq_seminorm_slack(space: dict, t: float, err: float) -> float:
    """How far a seminorm value moves when its argument t moves by err.
    t / (1 + t) is 1-Lipschitz; t^rho has slope rho t^(rho-1), largest at
    the low end, and never moves by more than err^rho."""
    if space["space"] != "sigma_rho":
        return err
    rho, low = space["rho"], abs(t) - err
    if low <= 0.0:
        return err**rho
    return min(err**rho, rho * low ** (rho - 1.0) * err)


def power_residual_exact(xbar, u, m: int, k: int) -> tuple:
    """(residual, rounding bound) at index k for (xbar+u)^m - xbar^m - m xbar^{m-1} u.

    The residual is exact; the bound covers the program's float evaluation,
    which rounds each of the three cancelling terms."""
    a, b = seq_entry(xbar, k), seq_entry(u, k)
    r = sum(math.comb(m, j) * a ** (m - j) * b**j for j in range(2, m + 1))
    size = float((abs(a) + abs(b)) ** m + abs(a) ** m + m * abs(a) ** (m - 1) * abs(b))
    return r, (m + 4) * UNIT_ROUNDOFF * size


def seq_frechet_ratio(dom: dict, cod: dict, xbar, u, m: int, I, J) -> tuple:
    """(max_I p(u), ratio, rounding slack of the ratio) recomputed exactly."""
    c = max(seq_seminorm(dom, seq_entry(u, k)) for k in I)
    if c == 0.0:
        return c, None, 0.0
    ratio, slack = 0.0, 0.0
    for k in J:
        r, err = power_residual_exact(xbar, u, m, k)
        t = r / Fraction(c)
        ratio = max(ratio, seq_seminorm(cod, t))
        slack = max(slack, seq_seminorm_slack(cod, float(t), err / c))
    return c, ratio, slack


def seq_image_residual(cod: dict, x0, x, m: int, J) -> tuple:
    """(max_J q(x^m - x0^m), rounding slack) recomputed exactly."""
    out, slack = 0.0, 0.0
    for k in J:
        a, b = seq_entry(x0, k), seq_entry(x, k)
        out = max(out, seq_seminorm(cod, b**m - a**m))
        err = 4 * UNIT_ROUNDOFF * float(abs(a) ** m + abs(b) ** m)
        slack = max(slack, seq_seminorm_slack(cod, float(b**m - a**m), err))
    return out, slack


def _close(reported: float, exact: float, slack: float) -> bool:
    return abs(reported - exact) <= slack + 1e-12 * abs(exact) + 1e-300


def check_seq_frechet(inp: dict, witness: dict) -> list:
    """Verdict passed; each stored (DR) sample lies in the punctured
    neighbourhood and its ratio matches the exact one and stays below epsilon."""
    problems = []
    dom, cod, m, eps = inp["domain"], inp["codomain"], inp["m"], inp["epsilon"]
    if not witness.get("passed"):
        problems.append("verdict did not pass")
    if witness["dz_residuals"]["max"] > 1e-12:
        problems.append("(DZ) residual is not zero")
    I = [int(k) for k in witness["I"]]
    J = [int(k) for k in witness["J"]]
    delta = witness["delta"]
    samples = witness["dr_samples"]
    if not samples or len(samples) != min(witness["n_dr"], 100):
        problems.append("stored (DR) samples missing")
    xbar = inp["point"]
    for i, s in enumerate(samples):
        u = seq_from_json(s["u"])
        c, ratio, slack = seq_frechet_ratio(dom, cod, xbar, u, m, I, J)
        if not 0.0 < c < delta:
            problems.append(f"sample {i}: max_I p(u) = {c!r} outside (0, {delta!r})")
            continue
        if not _close(s["max_I"], c, 0.0):
            problems.append(f"sample {i}: max_I {s['max_I']!r}, exact {c!r}")
        if not _close(s["ratio"], ratio, slack):
            problems.append(f"sample {i}: ratio {s['ratio']!r}, exact {ratio!r} (+-{slack:.3g})")
        if not ratio < eps:
            problems.append(f"sample {i}: exact ratio {ratio!r} not below epsilon {eps!r}")
    return problems


def check_seq_continuity(inp: dict, witness: dict) -> list:
    """Verdict passed; each stored sample lies in the delta-neighbourhood and
    its image residual matches the exact one and stays below epsilon."""
    problems = []
    dom, cod, m, eps = inp["domain"], inp["codomain"], inp["m"], inp["epsilon"]
    if not witness.get("passed"):
        problems.append("verdict did not pass")
    I = [int(k) for k in witness["I"]]
    J = [int(k) for k in witness["J"]]
    delta = witness["delta"]
    samples = witness["samples"]
    if not samples or len(samples) != min(witness["n_samples"], 100):
        problems.append("stored samples missing")
    x0 = inp["point"]
    for i, s in enumerate(samples):
        x = seq_from_json(s["x"])
        # x = x0 + u was rounded to float, which may move it by one rounding
        # of |x_k|; beyond that it must lie in the neighbourhood
        c = max(seq_seminorm(dom, seq_entry(x, k) - seq_entry(x0, k)) for k in I)
        slack = max(
            seq_seminorm_slack(dom, float(seq_entry(x, k) - seq_entry(x0, k)), 2 * UNIT_ROUNDOFF * float(abs(seq_entry(x, k))))
            for k in I
        )
        if not c < delta + slack:
            problems.append(f"sample {i}: max_I p(x - x0) = {c!r} not below {delta!r} (+{slack:.3g})")
        res, slack = seq_image_residual(cod, x0, x, m, J)
        if not _close(s["image_residual"], res, slack):
            problems.append(f"sample {i}: image residual {s['image_residual']!r}, exact {res!r}")
        if not res < eps:
            problems.append(f"sample {i}: exact image residual {res!r} not below epsilon {eps!r}")
    return problems


def _scale_into_ball(dom: dict, u, I, target: float):
    """Exact multiple of u with max_I p = target (to float rounding), or None."""
    top = max(abs(seq_entry(u, k)) for k in I)
    if top == 0:
        return None
    if dom["space"] == "sigma_rho":
        lam = Fraction((target / float(top) ** dom["rho"]) ** (1.0 / dom["rho"]))
    else:
        t = Fraction(target)
        lam = t / ((1 - t) * top)
    prefix, tail = u
    return [lam * v for v in prefix], lam * tail


def own_points_check(inp: dict, witness: dict, rng, count: int) -> list:
    """Draw the benchmark's own points inside the returned (I, delta)
    neighbourhood and check the epsilon bound on them exactly."""
    dom, cod, m, eps = inp["domain"], inp["codomain"], inp["m"], inp["epsilon"]
    I = [int(k) for k in witness["I"]]
    J = [int(k) for k in witness["J"]]
    delta = witness["delta"]
    x0 = inp["point"]
    problems = []
    targets = [delta * (1.0 - 1e-9), delta / 2.0] + [rng.uniform(0.0, delta) for _ in range(count - 2)]
    for target in targets:
        u = None
        while u is None:
            raw = (
                [Fraction(rng.randint(-40, 40), rng.choice([1, 3, 7])) for _ in range(max(I) + 2)],
                Fraction(rng.randint(-4, 4), 2) if dom["space"] == "s" and rng.random() < 0.3 else Fraction(0),
            )
            u = _scale_into_ball(dom, raw, I, target)
        c = max(seq_seminorm(dom, seq_entry(u, k)) for k in I)
        if not 0.0 < c < delta:
            continue  # rounding put the point on the boundary: not inside
        if witness["kind"] == "frechet":
            _, value, _ = seq_frechet_ratio(dom, cod, x0, u, m, I, J)
        else:
            x = ([seq_entry(x0, k) + seq_entry(u, k) for k in range(1, max(len(x0[0]), len(u[0])) + 1)], x0[1] + u[1])
            value, _ = seq_image_residual(cod, x0, x, m, J)
        if not value < eps:
            problems.append(f"own point at max_I p = {c!r}: value {value!r} not below epsilon {eps!r}")
    return problems


# ---------------------------------------------------------------------------
# schwartz-bounds


def bound_target(kind: str, params: dict, g, f) -> list:
    """The function whose (alpha, beta) seminorm is the bound's lhs."""
    if kind == "product":
        return t_mul(g, f)
    if kind == "monomial":
        return t_xpow(f, params["lam"])
    return t_pow(f, params["m"])


def check_bound(kind: str, params: dict, g, f, lhs: float, rhs: float) -> list:
    """lhs <= rhs, and lhs is the supremum the grid finds for the same seminorm."""
    problems = []
    if not lhs <= rhs * (1.0 + 1e-9):
        problems.append(f"{kind}: lhs {lhs!r} exceeds rhs {rhs!r}")
    grid = seminorm_grid(bound_target(kind, params, g, f), params["alpha"], params["beta"])
    return problems + compare_sup(f"{kind} lhs", lhs, grid)


# ---------------------------------------------------------------------------
# catalogue reports

REPORT_SUITES = 24


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def parse_strict(text: str):
    """JSON with NaN and Infinity rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def check_report(text: str, seed: int, suite_names) -> list:
    """Strict JSON; the seed asked for; all 24 suites, in catalogue order, passed."""
    try:
        report = parse_strict(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    problems = []
    if report.get("schema") != "fsemcalc/1":
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')!r}, asked for {seed}")
    suites = report.get("suites", [])
    names = [s.get("name") for s in suites]
    if names != list(suite_names) or len(names) != REPORT_SUITES:
        problems.append(f"suites {names} differ from the catalogue's {list(suite_names)}")
    failed = [s.get("name") for s in suites if s.get("passed") is not True]
    if failed:
        problems.append(f"suites not passed: {failed}")
    summary = report.get("summary", {})
    if summary != {"total": len(suites), "passed": len(suites) - len(failed), "failed": len(failed)}:
        problems.append(f"summary {summary} does not count the suites")
    return problems


def _first_difference(a, b, path="$"):
    """Path of the first place where two parsed reports differ: keys and
    their order, strings, integers and booleans exactly, floats to 1e-9
    relative, wall_clock_s not at all."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return f"{path}: keys {list(a)} vs {list(b)}"
        for k in a:
            if k != "wall_clock_s":
                found = _first_difference(a[k], b[k], f"{path}.{k}")
                if found:
                    return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: {len(a)} vs {len(b)} items"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(a) is float and type(b) is float:
        return None if abs(a - b) <= 1e-9 * max(abs(a), abs(b)) else f"{path}: {a!r} vs {b!r}"
    return None if type(a) is type(b) and a == b else f"{path}: {a!r} vs {b!r}"


def check_same_report(first: str, second: str) -> list:
    """Two reports of one seed agree apart from wall_clock_s.  Floats are
    compared to 1e-9 relative, not bit for bit: the catalogue's suites share
    the supremum candidate cache across the thread pool, so the last bits of
    a supremum depend on which thread filled a key first."""
    try:
        found = _first_difference(parse_strict(first), parse_strict(second))
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    return [f"reports of one seed differ at {found}"] if found else []

"""Operator catalogue with closed-form derivative providers and bounds.

Every operator knows how to apply itself and how to expand itself at a base
point xbar: T(xbar + u) - T(xbar) = L* u + R(u), built once as a
TaylorExpansion.  Continuity, Gateaux and (DR) verdicts all read this one
expansion, so none of them applies T near xbar.  The polynomial kinds
(power, cross_power, poly) share one coefficient tuple (a_1, ..., a_m) with
T x = sum_j a_j x^j; their expansion is one table of Taylor coefficients
c_i at xbar, whose row 1 is L*.  Every other kind is linear, with remainder
0, and is its own derivative, x -> c x as IdentityScaled(c).

So a derivative or candidate is a linear Operator or a multiplier of its
codomain in one of three closed forms: Diagonal on sigma_rho and S,
MultiplyBy (u -> c u + g u) on Schwartz space, IdentityScaled on any space.
linmap_add and linmap_scale keep the multipliers of a space closed.  The
module also evaluates the explicit seminorm bounds for products, monomial
multiples and powers, and exhibits (family, C) continuity certificates for
the linear catalogue entries; the product rule and the monomial rule are
each stated once and shared by the bounds and the certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import multiindex as mi
from .gausspoly import MAX_ORDER, GaussPolyFn, _cmul, _config_choice, _config_int, _config_object, _is_exact, _is_number
from .seminorms import CheckReport, index_set
from .spaces import SchwartzSpace, SeqElement, SigmaRhoSpace, SSpace, space_from_json

__all__ = [
    "Operator",
    "LinearMap",
    "IdentityScaled",
    "Diagonal",
    "MultiplyBy",
    "analytic_frechet",
    "analytic_gateaux",
    "linmap_add",
    "linmap_scale",
    "bound_product",
    "bound_monomial",
    "bound_power",
    "linear_bound_check",
    "seminorm_bound",
]

# the params each kind takes; every kind but power, cross_power and poly is linear
KIND_PARAMS = {"identity": (), "scale": ("a",), "diff": ("gamma",), "mult": ("g",), "monomial": ("lam",), "fourier": (),
               "inv_fourier": (), "power": ("m",), "cross_power": ("m",), "poly": ("coeffs",)}
SCHWARTZ_ONLY = {"diff", "mult", "monomial", "fourier", "inv_fourier"}


@dataclass(frozen=True)
class Operator:
    kind: str
    params: dict = field(default_factory=dict)
    domain: object = None
    codomain: object = None

    def __post_init__(self):
        k = self.kind
        dom, cod = self.domain, self.codomain
        _config_choice(k, "operator kind", KIND_PARAMS)
        if k in SCHWARTZ_ONLY and not (isinstance(dom, SchwartzSpace) and isinstance(cod, SchwartzSpace)):
            raise ValueError(f"{k} is a Schwartz-space operator")
        if k == "cross_power":
            if not (isinstance(dom, SigmaRhoSpace) and isinstance(cod, SSpace)):
                raise ValueError("cross_power maps sigma_rho into S")
        elif dom is not None and cod is not None and dom.tag != cod.tag:
            raise ValueError(f"{k} maps a space to itself")
        if k in ("power", "cross_power"):
            _config_int(self.params.get("m"), f"{k}'s m", 1, MAX_ORDER)
        if k == "scale" and not _is_number(self.params.get("a")):
            raise ValueError(f"scale requires a number a, got {self.params.get('a')!r}")
        coeffs = self.params.get("coeffs")
        if k == "poly" and not (coeffs and all(map(_is_number, coeffs))):
            raise ValueError(f"poly requires a nonempty list of numbers (a_1..a_m), got {coeffs!r}")

    @property
    def coeffs(self):
        """(a_1, ..., a_m) with T x = sum_j a_j x^j for power, cross_power
        (x^m) and poly; None for every other kind."""
        if self.kind == "poly":
            return tuple(self.params["coeffs"])
        if self.kind in ("power", "cross_power"):
            return (0,) * (self.params["m"] - 1) + (1,)
        return None

    @property
    def is_linear(self) -> bool:
        a = self.coeffs
        return a is None or len(a) == 1

    def apply(self, x):
        k = self.kind
        if k == "identity":
            return x
        if k == "scale":
            return self.domain.scale(self.params["a"], x)
        if k in ("power", "cross_power"):
            m = self.params["m"]
            if isinstance(x, GaussPolyFn):
                return x.pow(m) if not x.is_zero() else x
            self.domain.validate(x)
            return x.power(m)
        if k == "poly":
            coeffs = self.params["coeffs"]
            if isinstance(x, GaussPolyFn):
                out = GaussPolyFn.zero(x.n)
                if not x.is_zero():
                    for i, a in enumerate(coeffs, start=1):
                        if a:
                            out = out.add(x.pow(i).scale(a))
                return out
            self.domain.validate(x)
            return x.poly_apply(coeffs)
        if k == "diff":
            return x.diff(self.params["gamma"])
        if k == "mult":
            return self.params["g"].mul(x)
        if k == "monomial":
            return x.monomial_mul(self.params["lam"])
        if k == "fourier":
            return x.fourier()
        return x.inv_fourier()

    def taylor_remainder(self, xbar) -> "TaylorExpansion":
        """The Taylor expansion of T at xbar, built once and read by the
        continuity, Gateaux and (DR) verdicts: its derivative L*, its
        remainder u -> T(xbar + u) - T(xbar) - L* u (a call) and its
        increment u -> T(xbar + u) - T(xbar).

        A linear kind has remainder the codomain origin and increment T u;
        its derivative is IdentityScaled(c) for x -> c x and the operator
        itself otherwise.  With T x = sum_j a_j x^j the increment is
        sum_{i>=1} c_i u^i, c_i = sum_{j>=i} a_j C(j, i) xbar^{j-i}, and the
        remainder its terms i >= 2, so no cancelling subtraction is made.
        Each sequence entry is one Horner pass, exact when both entries are
        and float otherwise; on Schwartz space the coefficient functions are
        built once, exactly when xbar and the a_j are.
        """
        if self.is_linear:
            c = _scalar(self)
            L = self if c is None else IdentityScaled(c, self.codomain)
            return TaylorExpansion(L, lambda u: self.codomain.zero(), L.apply)
        a = self.coeffs
        if a is None:
            raise ValueError(f"no derivative formula for kind {self.kind!r}")
        if isinstance(xbar, GaussPolyFn):
            return _function_expansion(a, xbar, self.codomain)
        self.domain.validate(xbar)
        return _sequence_expansion(a, xbar, self.codomain)

    def describe(self) -> str:
        k = self.kind
        if k in ("power", "cross_power"):
            return f"{k}^{self.params['m']}@{self.domain.tag}"
        if k == "poly":
            return f"poly{tuple(self.params['coeffs'])}@{self.domain.tag}"
        return f"{k}@{self.domain.tag}"

    def to_json(self) -> dict:
        params = dict(self.params)
        if "g" in params:
            params["g"] = params["g"].to_json()
        if "gamma" in params:
            params["gamma"] = list(params["gamma"])
        if "lam" in params:
            params["lam"] = list(params["lam"])
        return {
            "kind": self.kind,
            "params": params,
            "domain": self.domain.describe(),
            "codomain": self.codomain.describe(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Operator":
        """The operator of {"kind", "params", "domain", "codomain"}, with the
        params of KIND_PARAMS[kind]; params default to {} and the codomain to
        the domain."""
        doc = _config_object(doc, "an operator", ("kind", "params", "domain", "codomain"))
        kind = _config_choice(doc["kind"], "operator kind", KIND_PARAMS)
        params = dict(_config_object(doc.get("params", {}), f"a {kind} operator's params", KIND_PARAMS[kind]))
        dom = space_from_json(doc["domain"])
        cod = space_from_json(doc.get("codomain", doc["domain"]))
        if "g" in params:
            params["g"] = GaussPolyFn.from_json(params["g"])
        for key in ("gamma", "lam"):
            if key in params:
                params[key] = tuple(_config_int(e, f"an operator's {key} entry", 0, MAX_ORDER) for e in params[key])
        return cls(kind, params, dom, cod)


# ---------------------------------------------------------------------------
# closed-form Taylor expansions


@dataclass(frozen=True)
class TaylorExpansion:
    """T(xbar + u) - T(xbar) = derivative u + remainder(u) at one base point;
    increment(u) is the left side, read from u alone.  Calling the
    expansion gives the remainder."""

    derivative: "LinearMap | Operator"
    remainder: object
    increment: object

    def __call__(self, u):
        return self.remainder(u)


def _series_entry(form, b, first):
    """sum_{i>=first} c_i b^i by Horner over form = (exact, floats), the
    coefficients c_m, ..., c_first; exact when form and b both are."""
    exact, floats = form
    cs, b = (exact, b) if exact is not None and _is_exact(b) else (floats, float(b))
    acc = 0
    for c in cs:
        acc = acc * b + c
    return acc * b if first == 1 else acc * b * b


def _sequence_expansion(a, xbar: SeqElement, cod):
    m = len(a)
    # one row c_m, ..., c_1 per entry t of xbar, the tail last
    rows = [
        [sum(a[j - 1] * math.comb(j, i) * t ** (j - i) for j in range(i, m + 1)) for i in range(m, 0, -1)]
        for t in (*xbar.prefix, xbar.tail)
    ]

    def series(first):
        # rows >= first; the exact coefficients are None unless all are exact
        forms = [(cs if all(map(_is_exact, cs)) else None, [float(c) for c in cs]) for cs in (r[: m + 1 - first] for r in rows)]
        *prefix, tail = forms

        def at(u: SeqElement) -> SeqElement:
            up = u.prefix
            # with u's tail 0, each later entry is the series at 0, +-0,
            # which SeqElement would trim
            n = len(up) if u.tail == 0 else max(len(prefix), len(up))
            vals = [
                _series_entry(prefix[k] if k < len(prefix) else tail, up[k] if k < len(up) else u.tail, first)
                for k in range(n)
            ]
            return SeqElement(vals, _series_entry(tail, u.tail, first))

        return at

    return TaylorExpansion(Diagonal(tuple(r[-1] for r in rows[:-1]), rows[-1][-1], cod), series(2), series(1))


def _function_expansion(a, xbar: GaussPolyFn, cod):
    m = len(a)
    # c_i = a_i + g_i; the constant a_i is not in the class, so it scales u^i
    # and L* = MultiplyBy(g_1, c=a_1)
    g = {}
    for i in range(1, m + 1):
        g[i] = GaussPolyFn.zero(xbar.n)
        for j in range(i + 1, m + 1):
            if a[j - 1]:
                g[i] = g[i].add(xbar.pow(j - i).scale(_cmul(a[j - 1], math.comb(j, i))))

    def series(first):
        def at(u: GaussPolyFn) -> GaussPolyFn:
            out = ui = GaussPolyFn.zero(u.n)
            for i in range(1, m + 1):
                ui = u if i == 1 else ui.mul(u)
                if i >= first and a[i - 1]:
                    out = out.add(ui.scale(a[i - 1]))
                if i >= first and not g[i].is_zero():
                    out = out.add(g[i].mul(ui))
            return out

        return at

    return TaylorExpansion(MultiplyBy(g[1], cod, a[0]), series(2), series(1))


# ---------------------------------------------------------------------------
# linear maps (closed derivative forms)


class LinearMap:
    """A multiplier of its codomain: IdentityScaled, Diagonal or MultiplyBy."""


@dataclass(frozen=True)
class IdentityScaled(LinearMap):
    """u -> c u; c = 0 is the zero map."""

    c: object
    codomain: object = None

    def apply(self, u):
        return u if self.c == 1 else u.scale(self.c)


@dataclass(frozen=True)
class Diagonal(LinearMap):
    """Entrywise multiplication by (d_1, ..., d_N, tail, tail, ...)."""

    prefix: tuple
    tail: object = 0
    codomain: object = None

    def apply(self, u: SeqElement) -> SeqElement:
        def mul(d, v):
            return d * v if (d != 0 and v != 0) else 0

        n = max(len(self.prefix), u.support_len())
        return SeqElement([mul(self.entry(i), u.entry(i)) for i in range(1, n + 1)], mul(self.tail, u.tail))

    def entry(self, k: int):
        return self.prefix[k - 1] if k <= len(self.prefix) else self.tail


@dataclass(frozen=True)
class MultiplyBy(LinearMap):
    """u -> c u + g u; the constant c is not in the function class, so it is
    held apart from g."""

    g: GaussPolyFn
    codomain: object = None
    c: object = 0

    def apply(self, u: GaussPolyFn) -> GaussPolyFn:
        if not self.c:
            return self.g.mul(u)
        cu = IdentityScaled(self.c).apply(u)
        return cu if self.g.is_zero() else cu.add(self.g.mul(u))


def _plus_scalar(m: LinearMap, c, cod) -> LinearMap:
    """m + c id on cod, in the form of m."""
    if isinstance(m, IdentityScaled):
        return IdentityScaled(m.c + c, cod)
    if isinstance(m, Diagonal):
        return Diagonal(tuple(d + c for d in m.prefix), m.tail + c, cod)
    return MultiplyBy(m.g, cod, m.c + c)


def linmap_add(a: LinearMap, b: LinearMap) -> LinearMap:
    """a + b for two multipliers of one space, in their closed form."""
    cod = a.codomain or b.codomain
    if isinstance(a, IdentityScaled):
        return _plus_scalar(b, a.c, cod)
    if isinstance(b, IdentityScaled):
        return _plus_scalar(a, b.c, cod)
    if isinstance(a, Diagonal) and isinstance(b, Diagonal):
        n = max(len(a.prefix), len(b.prefix))
        return Diagonal(tuple(a.entry(i) + b.entry(i) for i in range(1, n + 1)), a.tail + b.tail, cod)
    if isinstance(a, MultiplyBy) and isinstance(b, MultiplyBy):
        return MultiplyBy(a.g.add(b.g), cod, a.c + b.c)
    raise TypeError(f"{a!r} and {b!r} are not multipliers of one space")


def linmap_scale(c, m: LinearMap) -> LinearMap:
    """c m, in the form of the multiplier m."""
    if isinstance(m, IdentityScaled):
        return IdentityScaled(c * m.c, m.codomain)
    if isinstance(m, Diagonal):
        return Diagonal(tuple(c * d for d in m.prefix), c * m.tail, m.codomain)
    return MultiplyBy(m.g.scale(c), m.codomain, c * m.c)


# ---------------------------------------------------------------------------
# analytic derivatives


def _scalar(op: Operator):
    """c when the linear operator op is x -> c x, else None."""
    if op.kind == "scale":
        return op.params["a"]
    if op.coeffs is not None:
        return op.coeffs[0]
    return 1 if op.kind == "identity" else None


def analytic_frechet(op: Operator, xbar) -> "LinearMap | Operator":
    """Closed-form derivative at a base point, read from the expansion that
    the verdicts read: IdentityScaled(c) for x -> c x, the operator itself
    for any other linear kind, row 1 of the Taylor table,
    x -> sum_j j a_j xbar^{j-1} x, for T x = sum_j a_j x^j."""
    return op.taylor_remainder(xbar).derivative


def analytic_gateaux(op: Operator, xbar, v):
    """Directional derivative along v != 0; coincides with the linear form."""
    if op.domain.is_zero(v):
        raise ValueError("direction must be nonzero")
    return analytic_frechet(op, xbar).apply(v)


# ---------------------------------------------------------------------------
# explicit seminorm bounds


def _as_mi(v):
    """A multi-index; an int k is (k,), as seminorms are taken at n = 1."""
    return mi.check((v,) if isinstance(v, int) else v)


def _product_rule(g: GaussPolyFn, alpha, beta):
    """Yield (id, C) for |g f|_{alpha,beta} <= sum C |f|_id: the Leibniz
    rule gives id = (alpha, k) and C = C(beta, k) |g|_{0,beta-k} for each
    k <= beta."""
    zero = mi.zero(len(beta))
    for k in mi.downward_closure(beta):
        yield (alpha, k), mi.binom(beta, k) * g.seminorm(zero, mi.sub(beta, k))


def _monomial_rule(lam, alpha, beta):
    """Yield (id, C) for |x^lam f|_{alpha,beta} <= sum C |f|_id.  For each
    k <= beta, D^{beta-k} x^lam = a_k x^{lam-beta+k}, a_k a product of
    falling factorials; where a_k != 0 the pair is
    id = (alpha + lam - beta + k, k), C = C(beta, k) a_k."""
    lo = tuple(max(0, b - l) for b, l in zip(beta, lam))
    for k in mi.box_range(lo, beta):
        a_k = math.prod(math.perm(l, b - kk) for l, b, kk in zip(lam, beta, k))
        if a_k:
            shift = tuple(a + l - b + kk for a, l, b, kk in zip(alpha, lam, beta, k))
            yield (shift, k), mi.binom(beta, k) * a_k


def _rule_bound(rule, f: GaussPolyFn) -> float:
    """sum C |f|_id over the (id, C) pairs of a seminorm rule, in rule order."""
    rhs = 0.0
    for sid, c in rule:
        rhs += c * f.seminorm(*sid)
    return rhs


def bound_product(g: GaussPolyFn, f: GaussPolyFn, alpha, beta):
    """(lhs, rhs) with lhs = |g f|_{alpha,beta} and rhs the product-rule
    binomial bound sum_k binom(beta,k) |g|_{0,beta-k} |f|_{alpha,k}."""
    alpha, beta = _as_mi(alpha), _as_mi(beta)
    return g.mul(f).seminorm(alpha, beta), _rule_bound(_product_rule(g, alpha, beta), f)


def bound_monomial(f: GaussPolyFn, lam, alpha, beta):
    """(lhs, rhs) for |x^lam f|_{alpha,beta} against the shifted-seminorm
    bound with falling-factorial coefficients."""
    lam, alpha, beta = _as_mi(lam), _as_mi(alpha), _as_mi(beta)
    return f.monomial_mul(lam).seminorm(alpha, beta), _rule_bound(_monomial_rule(lam, alpha, beta), f)


def bound_power(u: GaussPolyFn, m: int, alpha, beta):
    """(lhs, rhs) for |u^m|_{alpha,beta} <= 2^{m|beta|} M_alpha M_0^{m-1}
    where M_alpha / M_0 are maxima of |u|_{alpha,gamma} / |u|_{0,gamma}
    over gamma <= beta."""
    if m < 1:
        raise ValueError("m >= 1 required")
    alpha, beta = _as_mi(alpha), _as_mi(beta)
    if u.is_zero():
        return 0.0, 0.0
    lhs = u.pow(m).seminorm(alpha, beta)
    m_alpha = max(u.seminorm(alpha, g) for g in mi.downward_closure(beta))
    m_zero = max(u.seminorm((0,), g) for g in mi.downward_closure(beta))
    rhs = 2.0 ** (m * mi.order(beta)) * m_alpha * m_zero ** (m - 1)
    return lhs, rhs


# ---------------------------------------------------------------------------
# linear continuity certificates


def _family(rule):
    """(ids, max C) over the (id, C) pairs that a seminorm rule yields."""
    ids, c = [], 0.0
    for sid, c_k in rule:
        ids.append(sid)
        c = max(c, c_k)
    return ids, c


def seminorm_bound(op: Operator, q_sid):
    """(ids, C) with q(T x) <= C * sum_{p in ids} p(x) for a linear kind.

    The families and constants come from the closed-form seminorm identities
    of the catalogue (derivative shift, product rule, monomial rule, the
    Fourier integral estimate); the differential operator is exact with
    C = 1.
    """
    if not op.is_linear:
        raise ValueError(f"{op.kind} is not linear")
    k = op.kind
    dom = op.domain
    sid = dom.normalize_sid(q_sid)
    c = _scalar(op)
    if c is not None:
        return [sid], dom.scalar_factor(c)
    # the remaining linear kinds are Schwartz-only (Operator checks this)
    alpha, beta = sid
    if k == "diff":
        gamma = mi.check(op.params["gamma"])
        return [(alpha, mi.add(beta, gamma))], 1.0
    if k == "mult":
        return _family(_product_rule(op.params["g"], alpha, beta))
    if k == "monomial":
        return _family(_monomial_rule(mi.check(op.params["lam"]), alpha, beta))
    if k in ("fourier", "inv_fourier"):
        a, b = alpha[0], beta[0]
        # |xi^a D^b Ff| <= (2 pi)^{b-a} int |D^a(t^b f)| dt and the
        # integral is <= pi (|h|_{0,0} + |h|_{2,0}) for h = D^a(t^b f);
        # expand h by the monomial rule into seminorms of f, k-major.
        by_k = zip(_monomial_rule((b,), (0,), (a,)), _monomial_rule((b,), (2,), (a,)))
        ids, cmax = _family(pair for both in by_k for pair in both)
        return ids, (2 * math.pi) ** (b - a) * math.pi * cmax
    raise ValueError(f"no bound recipe for {k} on schwartz")


def linear_bound_check(op: Operator, J, *, rng, n_samples: int = 200) -> CheckReport:
    """Verify q(T x) <= C_q sum_{p in fam_q} p(x) on samples, with the
    (fam_q, C_q) exhibits produced by :func:`seminorm_bound`."""
    J = index_set(op.codomain, J)
    exhibits = {q: seminorm_bound(op, q) for q in J}
    for i in range(n_samples):
        x = op.domain.random_element(rng)
        tx = op.apply(x)
        for q, (ids, c) in exhibits.items():
            lhs = op.codomain.seminorm(q, tx)
            rhs = c * sum(op.domain.seminorm(p, x) for p in ids)
            if lhs > rhs * (1 + 1e-9) + 1e-12:
                return CheckReport(
                    "linear_bound",
                    False,
                    {"q": str(q), "lhs": lhs, "rhs": rhs, "element": op.domain.element_to_json(x)},
                    i,
                    1e-9,
                )
    details = {str(q): {"family_size": len(ids), "C": c} for q, (ids, c) in exhibits.items()}
    return CheckReport("linear_bound", True, None, n_samples, 1e-9, details=details)

"""The three concrete spaces and their seminorm families.

* Schwartz space on R (n = 1): elements are GaussPolyFn, seminorms
  ``|f|_{alpha,beta} = sup |x^alpha D^beta f|`` (a genuine seminorm family,
  homogeneous).
* sigma_rho (0 < rho < 1): finitely supported real sequences, F-seminorms
  ``|x|_{rho,k} = |t_k|^rho`` (not homogeneous).
* S: all real sequences, modelled as eventually constant; F-seminorms
  ``|x|_k = |t_k| / (1 + |t_k|)``.

Sequence elements carry a finite prefix plus a constant tail, which is the
smallest representation that admits every example in scope (sigma_rho needs
tail 0; S admits w = (1, 1, ...)).  Entries stay exact (int/Fraction) under
arithmetic whenever the inputs are exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import multiindex as mi
from .gausspoly import GaussPolyFn, GaussPolyTerm, SparsePoly, _cadd, _cmul, _config_choice, _config_number, _config_object, _json_num
from .seminorms import f_norm

__all__ = [
    "SeqElement",
    "SigmaRhoSpace",
    "SSpace",
    "SchwartzSpace",
    "space_from_json",
    "sigma_inclusion_check",
    "scaling_property_check",
]


class SeqElement:
    """Real sequence with a finite prefix and a constant tail.

    ``entry(n)`` is 1-based; entries beyond the prefix equal ``tail``.
    Trailing prefix entries equal to the tail are trimmed on construction,
    so equality is representation independent.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix=(), tail=0):
        prefix = list(prefix)
        while prefix and prefix[-1] == tail:
            prefix.pop()
        self.prefix = tuple(prefix)
        self.tail = tail

    @classmethod
    def zero(cls) -> "SeqElement":
        return cls((), 0)

    def entry(self, n: int):
        if n < 1:
            raise ValueError("sequence indices are 1-based")
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail

    def support_len(self) -> int:
        return len(self.prefix)

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0

    def _zip(self, other: "SeqElement"):
        return [(self.entry(i), other.entry(i)) for i in range(1, max(len(self.prefix), len(other.prefix)) + 1)]

    def add(self, other: "SeqElement") -> "SeqElement":
        return SeqElement([_cadd(a, b) for a, b in self._zip(other)], _cadd(self.tail, other.tail))

    def sub(self, other: "SeqElement") -> "SeqElement":
        # x + (-1)*y entrywise, so that sub is add of the negation on signed
        # zeros too: an exact zero has no sign, and -0.0 minus it is 0.0.
        return SeqElement(
            [_cadd(a, _cmul(-1, b)) for a, b in self._zip(other)], _cadd(self.tail, _cmul(-1, other.tail))
        )

    def scale(self, a) -> "SeqElement":
        return SeqElement([_cmul(a, v) for v in self.prefix], _cmul(a, self.tail))

    def power(self, m: int) -> "SeqElement":
        if m < 1:
            raise ValueError("power must be >= 1")
        return SeqElement([v**m for v in self.prefix], self.tail**m)

    def poly_apply(self, coeffs) -> "SeqElement":
        """Entrywise sum_i coeffs[i-1] * t^i (coeffs = (a_1, ..., a_m))."""

        def ap(t):
            acc = 0
            for a in reversed(coeffs):
                acc = _cmul(_cadd(acc, a), t)
            return acc

        return SeqElement([ap(v) for v in self.prefix], ap(self.tail))

    def entrywise_map(self, fn) -> "SeqElement":
        return SeqElement([fn(v) for v in self.prefix], fn(self.tail))

    def __eq__(self, other):
        if not isinstance(other, SeqElement):
            return NotImplemented
        return self.prefix == other.prefix and self.tail == other.tail

    def __hash__(self):
        return hash((self.prefix, self.tail))

    def to_json(self) -> dict:
        return {"prefix": [_json_num(v) for v in self.prefix], "tail": _json_num(self.tail)}

    @classmethod
    def from_json(cls, doc: dict) -> "SeqElement":
        """The element of {"prefix": [...], "tail": t}, whose entries are
        numbers or exact strings; any other document is refused."""
        if not (isinstance(doc, dict) and doc.keys() == {"prefix", "tail"} and isinstance(doc["prefix"], list)):
            raise ValueError(f"a sequence must be {{'prefix': [...], 'tail': t}}, got {doc!r:.80}")
        prefix = [_config_number(v, "a sequence entry") for v in doc["prefix"]]
        return cls(prefix, _config_number(doc["tail"], "a sequence entry"))

    def __repr__(self):
        return f"SeqElement({list(self.prefix)!r}, tail={self.tail!r})"


class _SpaceBase:
    """Element plumbing shared by every space; elements do the arithmetic."""

    def add(self, x, y):
        return x.add(y)

    def sub(self, x, y):
        return x.sub(y)

    def scale(self, a, x):
        return x.scale(a)

    def is_zero(self, x):
        return x.is_zero()

    def element_to_json(self, x):
        return x.to_json()

    def restrict(self, x, J):
        """x as far as the seminorms of J read it: x itself."""
        return x


class _SequenceSpaceBase(_SpaceBase):
    """Shared element plumbing for sigma_rho and S."""

    def zero(self):
        return SeqElement.zero()

    def normalize_sid(self, sid) -> int:
        k = int(sid)
        if k < 1:
            raise ValueError(f"sequence seminorm index must be >= 1, got {sid}")
        return k

    def enum_ids(self, count: int):
        return list(range(1, count + 1))

    def weight(self, sid) -> Fraction:
        return Fraction(1, 2) ** self.normalize_sid(sid)

    has_weights = True

    def element_from_json(self, doc):
        return SeqElement.from_json(doc)

    def support_ids(self, x):
        """Index set bounded by the representation; a separating witness for
        a nonzero element always lives here (prefix plus one tail index)."""
        return list(range(1, x.support_len() + 2))

    def family_max(self, x: SeqElement, ids) -> float:
        """max over the normalized ids k of phi(|t_k|), in one pass that reads
        each t_k from the prefix or the tail: the same floats, compared in
        the same order, as ``max(self.seminorm(k, x) for k in ids)``."""
        self.validate(x)
        prefix, tail, phi = x.prefix, x.tail, self._phi
        n = len(prefix)
        best = None
        for k in ids:
            v = phi(float(abs(prefix[k - 1] if k <= n else tail)))
            if best is None or v > best:
                best = v
        return best

    def restrict(self, x: SeqElement, J) -> SeqElement:
        """x as far as the seminorms of J read it: its entries up to max J,
        then 0.0.  Every map on these spaces is entrywise, so its image at
        the restriction has the same J-seminorms as its image at x.  The
        tail is 0.0, not x's: trimming then turns only entries of value 0
        into the tail, whose images have seminorm 0.0 in any type, where an
        exact entry equal to a float tail would become that float; and a
        float tail keeps the image's tail out of exact arithmetic."""
        m = max(J)
        if x.tail == 0 and len(x.prefix) <= m:
            return x
        return SeqElement((x.prefix + (x.tail,) * m)[:m], 0.0)

    def p_sup_prefix(self, x: SeqElement, m: int) -> float:
        return max((float(abs(x.entry(k))) for k in range(1, m + 1)), default=0.0)

    def random_direction(self, rng) -> SeqElement:
        x = self.random_element(rng)
        return x if not x.is_zero() else SeqElement([1], 0)


class SigmaRhoSpace(_SequenceSpaceBase):
    """sigma_rho: finite-support sequences, |x|_{rho,k} = |t_k|^rho."""

    def __init__(self, rho):
        rho = _config_number(rho, "rho")
        if not (0 < float(rho) < 1):
            raise ValueError(f"rho must satisfy 0 < rho < 1, got {rho}")
        self.rho = float(rho)

    @property
    def tag(self) -> str:
        return "sigma_rho"

    def describe(self) -> dict:
        return {"space": "sigma_rho", "rho": self.rho}

    def validate(self, x: SeqElement):
        if x.tail != 0:
            raise ValueError("sigma_rho elements must have tail 0 (finite support)")
        return x

    def _phi(self, t: float) -> float:
        return t**self.rho

    def seminorm(self, sid, x: SeqElement) -> float:
        self.validate(x)
        return self._phi(float(abs(x.entry(self.normalize_sid(sid)))))

    def scalar_factor(self, c) -> float:
        """K with p(c x) <= K p(x) for every p in the family: |c|^rho."""
        return abs(float(c)) ** self.rho

    def level_scalar(self, c: float, target: float) -> float:
        """s > 0 with p(s x) = target wherever p(x) = c: (target/c)^(1/rho)."""
        return (target / c) ** (1.0 / self.rho)

    def metric(self, x: SeqElement, y: SeqElement) -> float:
        # computed on the canonical difference element, so translation
        # invariance is exact whenever the entries are exact
        self.validate(x)
        self.validate(y)
        d = x.sub(y)
        return sum(float(abs(v)) ** self.rho for v in d.prefix)

    def p_sup(self, x: SeqElement) -> float:
        self.validate(x)
        return max((float(abs(v)) for v in x.prefix), default=0.0)

    def random_element(self, rng, exact: bool = False) -> SeqElement:
        k = rng.randint(0, 6)
        if exact:
            vals = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4])) for _ in range(k)]
        else:
            vals = [rng.uniform(-3, 3) for _ in range(k)]
        return SeqElement(vals, 0)


class SSpace(_SequenceSpaceBase):
    """S: all real sequences (eventually constant), |x|_k = |t_k|/(1+|t_k|)."""

    @property
    def tag(self) -> str:
        return "s"

    def describe(self) -> dict:
        return {"space": "s"}

    def validate(self, x: SeqElement):
        return x

    def _phi(self, t: float) -> float:
        return t / (1.0 + t)

    def seminorm(self, sid, x: SeqElement) -> float:
        return self._phi(float(abs(x.entry(self.normalize_sid(sid)))))

    def scalar_factor(self, c) -> float:
        """K with p(c x) <= K p(x) for every p in the family: max(1, |c|)."""
        return max(1.0, abs(float(c)))

    def level_scalar(self, c: float, target: float) -> float:
        """s > 0 with p(s x) = target wherever p(x) = c: p = t/(1+t) is
        increasing, so |t_k| = p/(1-p) and s = target(1-c)/((1-target)c).
        p < 1 on S, so a target at or above 1 is capped just below 1."""
        target = min(target, 1.0 - 2.0**-53)
        return target * (1.0 - c) / ((1.0 - target) * c)

    def fnorm_base(self, sid, x: SeqElement) -> float:
        # the F-norm construction wraps |t_k| itself, and that wrap IS this
        # family's F-seminorm; the metric is the F-norm of the difference
        return float(abs(x.entry(self.normalize_sid(sid))))

    def metric(self, x: SeqElement, y: SeqElement) -> float:
        """d(x, y) = sum 2^-n |t_n - s_n| / (1 + |t_n - s_n|), closed tail:
        the F-norm of x - y.

        Evaluated on the canonical difference element: the geometric tail is
        grouped at the trimmed prefix length, so translated pairs produce
        bitwise-identical values on exact entries.
        """
        return f_norm(self, x.sub(y))

    def random_element(self, rng, exact: bool = False) -> SeqElement:
        k = rng.randint(0, 6)
        if exact:
            vals = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 4])) for _ in range(k)]
            tail = rng.choice([0, 0, Fraction(rng.randint(-4, 4), 2)])
        else:
            vals = [rng.uniform(-3, 3) for _ in range(k)]
            tail = rng.choice([0, 0, rng.uniform(-2, 2)])
        return SeqElement(vals, tail)


class SchwartzSpace(_SpaceBase):
    """Schwartz space on R (n = 1) over the Gaussian-polynomial class."""

    has_weights = False

    def __init__(self, n: int = 1):
        if type(n) is not int or n != 1:
            raise ValueError(f"Schwartz space is 1-dimensional, got n = {n!r}")
        self.n = n

    @property
    def tag(self) -> str:
        return "schwartz"

    def describe(self) -> dict:
        return {"space": "schwartz", "n": self.n}

    def zero(self):
        return GaussPolyFn.zero(self.n)

    def normalize_sid(self, sid):
        alpha, beta = sid
        if isinstance(alpha, int):
            alpha = (alpha,)
        if isinstance(beta, int):
            beta = (beta,)
        alpha, beta = mi.check(alpha), mi.check(beta)
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError(f"seminorm index {sid} has wrong dimension for n={self.n}")
        return (alpha, beta)

    def seminorm(self, sid, f: GaussPolyFn) -> float:
        return f.seminorm(*self.normalize_sid(sid))

    def family_max(self, f: GaussPolyFn, ids) -> float:
        """max over the normalized (alpha, beta) in ids of
        sup |x^alpha D^beta f|, from fewer suprema than
        ``max(self.seminorm(s, f) for s in ids)``, and the same float.

        Each member h = x^alpha D^beta f is built once with its closed-form
        bound B >= sup |h| (:meth:`GaussPolyFn.sup_bound`).  The suprema are
        taken in decreasing-B order, and once a member's B (1 + 1e-12) is
        below the largest value taken so far, it and every later member are
        skipped.

        Why the margin suffices.  Let u = 2^-53, d the degree of h, G its
        decay groups and M its monomials, so G <= M.  Wherever ``sup_abs``
        evaluates h, the float |h| is within (4d + G + 8) u B of the exact
        value: Horner's rule costs gamma_{2d} of
        sum |c| |x|^k e^{-a x^2} <= B (Higham, Accuracy and Stability of
        Numerical Algorithms, 5.1); the rounded exponent -a x x moves
        e^{-a x^2} by a relative 1.01 gamma_2 a x^2, and
        a x^2 |x|^k e^{-a x^2} <= ((k + 2) / 2) (k / (2 a e))^(k/2); the
        exponential, the product, the sum over the groups and |.| add G + 4
        more roundings.  The float B is at most (M + 2d + 6) u B below the
        exact one: each base j / (2 a e) is off by 3u, which its power j / 2
        multiplies.  So while (6d + 2M + 14) u <= 1e-12, which holds for
        6d + 2M <= 8,900, a skipped member's float supremum is below its
        B (1 + 1e-12), hence below the running maximum, and cannot be the
        maximum.  The functions of the schwartz-frechet benchmark and the
        seed-42 catalogue have d <= 17 and M <= 83.  Each supremum taken is
        ``sup_abs`` of the same h.
        """
        members = []
        for alpha, beta in ids:
            h = f.diff(beta).monomial_mul(alpha)
            members.append((h.sup_bound(), h))
        members.sort(key=lambda m: -m[0])
        best = members[0][1].sup_abs()
        for bound, h in members[1:]:
            if bound * (1.0 + 1e-12) < best:
                break
            best = max(best, h.sup_abs())
        return best

    def scalar_factor(self, c) -> float:
        """K with p(c x) <= K p(x) for every p in the family: |c| (homogeneous)."""
        return abs(float(c))

    def level_scalar(self, c: float, target: float) -> float:
        """s > 0 with p(s x) = target wherever p(x) = c: target/c."""
        return target / c

    def enum_ids(self, count: int):
        """(alpha, beta) ordered by |alpha| + |beta|, then lexicographically."""
        out = []
        total = 0
        while len(out) < count:
            out.extend(((a,), (total - a,)) for a in range(total + 1))
            total += 1
        return out[:count]

    def weight(self, sid):
        raise ValueError("no weights configured for the Schwartz family")

    def element_from_json(self, doc):
        f = GaussPolyFn.from_json(doc)
        if f.n != self.n:
            raise ValueError(f"a function of dimension {f.n} is not in the Schwartz space of dimension {self.n}")
        return f

    def support_ids(self, f):
        return [(mi.zero(self.n), mi.zero(self.n))]

    def random_element(self, rng, max_degree: int = 4, max_terms: int = 2, exact: bool = True) -> GaussPolyFn:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            decay = (rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]),)
            poly = {}
            for _ in range(rng.randint(1, 3)):
                exp = (rng.randint(0, max_degree),)
                c = Fraction(rng.randint(-6, 6), rng.choice([1, 2])) if exact else rng.uniform(-3, 3)
                if c:
                    poly[exp] = c
            if poly:
                terms.append(GaussPolyTerm(SparsePoly(1, poly), decay))
        f = GaussPolyFn(1, terms)
        if f.is_zero():
            return GaussPolyFn.gaussian((Fraction(1),))
        return f

    def random_direction(self, rng) -> GaussPolyFn:
        return self.random_element(rng)


def space_from_json(doc: dict):
    """The space of {"space": "schwartz", "n": 1} (n optional), {"space":
    "sigma_rho", "rho": r} or {"space": "s"}; any other key is refused."""
    doc = _config_object(doc, "a space", ("space", "n", "rho"))
    kind = _config_choice(doc["space"], "space", ("schwartz", "sigma_rho", "s"))
    if kind == "schwartz":
        return SchwartzSpace(_config_object(doc, "a schwartz space", ("space", "n")).get("n", 1))
    if kind == "sigma_rho":
        return SigmaRhoSpace(_config_object(doc, "a sigma_rho space", ("space", "rho"))["rho"])
    _config_object(doc, "the space s", ("space",))
    return SSpace()


def sigma_inclusion_check(x: SeqElement, rho: float, gamma: float) -> dict:
    """sigma_rho inside sigma_gamma for rho < gamma: finite-support elements
    belong to both; termwise |t|^gamma <= |t|^rho wherever |t| <= 1."""
    if not (0 < rho < gamma < 1):
        raise ValueError("need 0 < rho < gamma < 1")
    SigmaRhoSpace(rho).validate(x)
    sum_rho = sum(float(abs(v)) ** rho for v in x.prefix)
    sum_gamma = sum(float(abs(v)) ** gamma for v in x.prefix)
    reversed_at = [i + 1 for i, v in enumerate(x.prefix) if abs(v) > 1]
    termwise = all(
        float(abs(v)) ** gamma <= float(abs(v)) ** rho + 1e-15 for v in x.prefix if abs(v) <= 1
    )
    return {
        "member_rho": True,
        "member_gamma": True,
        "sum_rho": sum_rho,
        "sum_gamma": sum_gamma,
        "termwise_small_entries": termwise,
        "entries_above_one": reversed_at,
        "passed": termwise,
    }


def scaling_property_check(x: SeqElement, a: float) -> dict:
    """S-seminorm scaling: |a| < 1 gives |ax|_k >= |a||x|_k; |a| >= 1 gives
    |ax|_k <= |a||x|_k.  Verified at every prefix index plus the tail."""
    s = SSpace()
    ax = x.scale(a)
    slack = 1e-12
    failures = []
    for k in range(1, x.support_len() + 2):
        lhs = s.seminorm(k, ax)
        rhs = abs(float(a)) * s.seminorm(k, x)
        ok = (lhs + slack >= rhs) if abs(float(a)) < 1 else (lhs <= rhs + slack)
        if not ok:
            failures.append({"k": k, "lhs": lhs, "rhs": rhs})
    return {"a": float(a), "passed": not failures, "failures": failures}

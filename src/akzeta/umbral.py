"""Sparse multivariate symbol algebra over the rationals.

Implements the Bernoulli symbols B_i (n-th power evaluates to the Bernoulli
number B_n), the uniform symbols U_j (n-th power evaluates to 1/(n+1), the
n-th moment of the uniform law on [0,1]), the formal variable z, and the
linear evaluation functional sending a monomial to the product of moments of
its independent symbols.

Expressions are immutable once built and all operations are pure functions;
there is no module state.  expr_power refuses an expansion whose predicted
monomial count exceeds its cap argument (DEFAULT_EXPANSION_CAP unless given)
with ExpansionCapError.
Negative symbol powers are not representable here; negative moments are the
business of the numerical layer.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Mapping

from .exact import ZPolynomial, bernoulli_number

__all__ = [
    "Symbol",
    "bernoulli_symbol",
    "uniform_symbol",
    "Z",
    "UmbralExpression",
    "ExpansionCapError",
    "DEFAULT_EXPANSION_CAP",
    "expect",
    "expr_power",
    "poly_symbol",
    "c_symbol",
]

# largest predicted monomial count expr_power expands unless given its own cap
DEFAULT_EXPANSION_CAP = 5_000_000


class ExpansionCapError(Exception):
    """Raised when a power expansion would exceed the monomial-count cap."""


class Symbol(tuple):
    """A formal symbol: kind 'B' (Bernoulli), 'U' (uniform) or 'z' (formal variable).

    Distinct (kind, index) pairs denote independent symbols.  A symbol is the
    tuple (kind, index), so hashing, equality and ordering run at C speed in
    the monomial dictionaries and sorts of the sparse algebra.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int = 0):
        if kind not in ("B", "U", "z"):
            raise ValueError(f"unknown symbol kind {kind!r}")
        if kind != "z" and index < 1:
            raise ValueError("symbol index must be >= 1")
        return tuple.__new__(cls, (kind, index))

    kind = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return "z" if self[0] == "z" else f"{self[0]}{self[1]}"


def bernoulli_symbol(i: int) -> Symbol:
    return Symbol("B", i)


def uniform_symbol(j: int) -> Symbol:
    return Symbol("U", j)


Z = Symbol("z")

# A monomial is a tuple of (Symbol, exponent) pairs sorted by symbol; the
# empty tuple is the constant monomial 1.
Monomial = tuple


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for s, e in b:
        merged[s] = merged.get(s, 0) + e
    return tuple(sorted(merged.items()))


def _mono_moment(m: Monomial) -> Fraction | None:
    """Moment of a monomial with the z part stripped; None if it vanishes."""
    out = Fraction(1)
    for s, e in m:
        if s.kind == "B":
            b = bernoulli_number(e)
            if b == 0:
                return None
            out *= b
        elif s.kind == "U":
            out *= Fraction(1, e + 1)
    return out


class UmbralExpression:
    """Sparse polynomial in Bernoulli/uniform symbols and z over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        t = {}
        if terms:
            for m, c in terms.items():
                if c:
                    t[m] = Fraction(c)
        self.terms = t

    @classmethod
    def constant(cls, c) -> "UmbralExpression":
        c = Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def symbol(cls, s: Symbol) -> "UmbralExpression":
        return cls({((s, 1),): Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Mapping[Symbol, int], coeff=Fraction(1)) -> "UmbralExpression":
        for e in exponents.values():
            if e < 0:
                raise ValueError("negative symbol powers are not representable")
        mono = tuple(sorted((s, e) for s, e in exponents.items() if e))
        return cls({mono: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = _as_expr(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, Fraction(0)) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        r = UmbralExpression.__new__(UmbralExpression)
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) + (-self)

    def __neg__(self):
        r = UmbralExpression.__new__(UmbralExpression)
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return UmbralExpression()
            r = UmbralExpression.__new__(UmbralExpression)
            r.terms = {m: c * q for m, c in self.terms.items()}
            return r
        if not isinstance(other, UmbralExpression):
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                v = out.get(m, Fraction(0)) + c1 * c2
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        r = UmbralExpression.__new__(UmbralExpression)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return expr_power(self, n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UmbralExpression.constant(other)
        if not isinstance(other, UmbralExpression):
            return NotImplemented
        return self.terms == other.terms

    def substitute(self, symbol: Symbol, replacement: "UmbralExpression") -> "UmbralExpression":
        """Ring substitution symbol -> replacement, exponents expanded."""
        out = UmbralExpression()
        powers = {0: UmbralExpression.constant(1)}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for s, ex in m:
                if s == symbol:
                    e = ex
                else:
                    rest.append((s, ex))
            if e not in powers:
                powers[e] = expr_power(replacement, e)
            base = UmbralExpression({tuple(rest): c})
            out = out + base * powers[e]
        return out

    def expect(self) -> ZPolynomial:
        """Apply the linear evaluation functional B_i^n -> B_n, U_j^n -> 1/(n+1);
        the z symbol survives as the variable."""
        coeffs: dict[int, Fraction] = {}
        for m, c in self.terms.items():
            zdeg = 0
            rest = []
            for s, e in m:
                if s.kind == "z":
                    zdeg = e
                else:
                    rest.append((s, e))
            mom = _mono_moment(tuple(rest))
            if mom is None:
                continue
            coeffs[zdeg] = coeffs.get(zdeg, Fraction(0)) + c * mom
        if not coeffs:
            return ZPolynomial()
        top = max(coeffs)
        return ZPolynomial([coeffs.get(i, Fraction(0)) for i in range(top + 1)])

    def expect_kind(self, kind: str) -> "UmbralExpression":
        """Evaluate only symbols of one kind, leaving the rest formal.

        Valid because distinct symbols are independent, so the functional
        factorizes over them.
        """
        out: dict = {}
        for m, c in self.terms.items():
            mom = Fraction(1)
            rest = []
            dead = False
            for s, e in m:
                if s.kind != kind:
                    rest.append((s, e))
                elif s.kind == "B":
                    b = bernoulli_number(e)
                    if b == 0:
                        dead = True
                        break
                    mom *= b
                else:
                    mom *= Fraction(1, e + 1)
            if dead:
                continue
            key = tuple(rest)
            v = out.get(key, Fraction(0)) + c * mom
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        r = UmbralExpression.__new__(UmbralExpression)
        r.terms = out
        return r

    def symbols(self) -> set[Symbol]:
        return {s for m in self.terms for s, _ in m}

    def render(self) -> str:
        """Canonical text form: monomials sorted, exponents explicit."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            if not m:
                parts.append(str(c))
                continue
            body = "*".join(f"{s}^{e}" for s, e in m)
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return self.render()


def _as_expr(x) -> UmbralExpression:
    if isinstance(x, UmbralExpression):
        return x
    return UmbralExpression.constant(Fraction(x))


def expr_power(expr: UmbralExpression, n: int, cap: int = DEFAULT_EXPANSION_CAP) -> UmbralExpression:
    """expr**n by multinomial expansion over the sparse term list.

    The predicted worst-case term count C(n + t - 1, t - 1) for a t-term base
    is checked against the cap (default 5e6 monomials) before any work
    happens.

    The expansion runs in integers: the base is scaled by the common
    denominator D of its coefficients, each monomial is packed into one int
    with a field per symbol wide enough for n times the largest exponent (so
    fields never carry and multiplying monomials is adding ints), and each
    output coefficient is divided by D**n once at the end.
    """
    if n < 0:
        raise ValueError("negative expression power")
    if n == 0:
        return UmbralExpression.constant(1)
    items = list(expr.terms.items())
    t = len(items)
    if t == 0:
        return UmbralExpression()
    if math.comb(n + t - 1, t - 1) > cap:
        raise ExpansionCapError(
            f"expansion of a {t}-term expression to power {n} exceeds cap {cap}"
        )
    syms = sorted({s for m, _ in items for s, _ in m})
    width = (n * max((e for m, _ in items for _, e in m), default=0)).bit_length()
    shift = {s: width * i for i, s in enumerate(syms)}
    den = math.lcm(*(c.denominator for _, c in items))
    # per term: packed monomial and integer coefficient raised to 0..n
    mono_pows = []
    coef_pows = []
    for m, c in items:
        packed = sum(e << shift[s] for s, e in m)
        num = c.numerator * (den // c.denominator)
        mono_pows.append([packed * e for e in range(n + 1)])
        coef_pows.append([num**e for e in range(n + 1)])
    binom = [[math.comb(r, e) for e in range(r + 1)] for r in range(n + 1)]
    last = t - 1
    out: dict = {}

    def descend(i: int, rem: int, coef: int, key: int):
        if i == last:
            key += mono_pows[i][rem]
            out[key] = out.get(key, 0) + coef * coef_pows[i][rem]
            return
        mp = mono_pows[i]
        cp = coef_pows[i]
        row = binom[rem]
        for e in range(rem + 1):
            descend(i + 1, rem - e, coef * row[e] * cp[e], key + mp[e])

    descend(0, n, 1, 0)
    scale = den**n
    mask = (1 << width) - 1
    terms = {}
    for key, c in out.items():
        if c:
            mono = []
            for s in syms:
                e = (key >> shift[s]) & mask
                if e:
                    mono.append((s, e))
            terms[tuple(mono)] = Fraction(c, scale)
    r = UmbralExpression.__new__(UmbralExpression)
    r.terms = terms
    return r


# the evaluation functional as a function; the acceptance criteria import it
expect = UmbralExpression.expect


def poly_symbol(k: int) -> UmbralExpression:
    """The order-k poly-Bernoulli symbol 1 + sum_{l=1}^{k} B_l prod_{j=l}^{k-1} U_j.

    Always uses symbol indices B_1..B_k and U_1..U_{k-1}; callers needing an
    independent copy must re-index through UmbralExpression.substitute.  For k = 1 the
    empty product is 1 and the result is 1 + B_1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    out = UmbralExpression.constant(1)
    for l in range(1, k + 1):
        expos = {bernoulli_symbol(l): 1}
        for j in range(l, k):
            expos[uniform_symbol(j)] = 1
        out = out + UmbralExpression.monomial(expos)
    return out


def c_symbol(k: int) -> UmbralExpression:
    """The companion symbol: poly_symbol(k) - 1; satisfies
    c_symbol(k) = B_k + U_{k-1} * c_symbol(k-1) with c_symbol(1) = B_1."""
    return poly_symbol(k) - UmbralExpression.constant(1)

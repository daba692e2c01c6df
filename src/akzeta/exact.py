"""Exact arithmetic layer: rationals, polynomials, the Appell lift, and the
combinatorial generators (Bernoulli numbers, Stirling rows, binomials)
everything else is built from.

Polynomials in z and the umbral module's symbol expressions share one
layout, the _Numerators base class defined here: a dict from int keys
(z-degrees, or packed monomials) to integer numerators over one positive
denominator, kept canonical, with the ring operations implemented once.

Number sequences are held the same way, in the layout of FLINT's fmpq_poly
(integer numerators over one common denominator) applied to the
exponential generating function: b_n = x_n / d for one d > 0, passed around
as the pair (x, d).  integer_numerators builds the pair from rationals, and
appell_polynomial lifts it to the polynomials sum_m C(n,m) b_m z^{n-m}.

All values are immutable after construction and every operation is a pure
function; the Bernoulli and Stirling caches grow under a lock, so
everything here is safe to share across threads.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Mapping, Sequence

__all__ = [
    "ZPolynomial",
    "bernoulli_numbers",
    "bernoulli_number",
    "bernoulli_polynomial",
    "appell_polynomial",
    "binomial",
    "stirling2",
    "stirling_row",
    "rational_to_json",
    "integer_numerators",
]


def rational_to_json(q: Fraction) -> dict:
    """Serialize a rational as decimal strings, {"num": ..., "den": ...}."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def binomial(n: int, m: int) -> int:
    """Binomial coefficient C(n, m); zero outside 0 <= m <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


# Shared caches.  They only ever grow, and only under _CACHE_LOCK: _grow
# builds the new rows in a local list and appends them in one list.extend,
# so a reader that checks the length and then indexes never sees a missing
# or misplaced row.
_CACHE_LOCK = threading.Lock()
_STIRLING_ROWS: list[list[int]] = [[1]]
_BERNOULLI: list[Fraction] = [Fraction(1)]


def _grow(cache: list, n: int, next_row) -> None:
    """Extend cache through index n; next_row(rows) returns row len(rows)."""
    with _CACHE_LOCK:
        rows = cache[:]
        while len(rows) <= n:
            rows.append(next_row(rows))
        cache.extend(rows[len(cache):])


def _next_stirling_row(rows: list[list[int]]) -> list[int]:
    prev = rows[-1]
    r = len(rows)
    row = [0] * (r + 1)
    for j in range(1, r + 1):
        row[j] = j * (prev[j] if j < r else 0) + prev[j - 1]
    return row


def _next_bernoulli(vals: list[Fraction]) -> Fraction:
    # sum_{j<n} C(n+1, j) B_j + (n+1) B_n = 0, summed as integers over the
    # lcm of the held denominators: one Fraction, one gcd, per row
    n = len(vals)
    den = math.lcm(*(b.denominator for b in vals))
    s = sum(math.comb(n + 1, j) * b.numerator * (den // b.denominator) for j, b in enumerate(vals))
    return Fraction(-s, (n + 1) * den)


def stirling_row(n: int) -> tuple[int, ...]:
    """The Stirling numbers of the second kind S(n, 0..n), copied from the
    shared cache, built by the triangular recurrence S(n,m) = m*S(n-1,m) + S(n-1,m-1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n >= len(_STIRLING_ROWS):
        _grow(_STIRLING_ROWS, n, _next_stirling_row)
    return tuple(_STIRLING_ROWS[n])


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind S(n, m); 0 when m < 0 or m > n."""
    row = stirling_row(n)
    return row[m] if 0 <= m <= n else 0


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n_max from t/(e^t - 1), convention B_1 = -1/2."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max >= len(_BERNOULLI):
        _grow(_BERNOULLI, n_max, _next_bernoulli)
    return _BERNOULLI[: n_max + 1]


def bernoulli_number(n: int) -> Fraction:
    return bernoulli_numbers(n)[n]


class _Numerators:
    """Integer numerators over one positive denominator, the layout shared by
    ZPolynomial (keys are z-degrees) and umbral.UmbralExpression (keys are
    packed monomials): terms maps each key to its numerator, and the form is
    canonical (no zero numerator, numerators and den coprime), so equality
    is a dict and an int comparison.  Key 0 is the constant term, and keys
    add under multiplication.  Operands of another class are NotImplemented.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: Mapping[int, int] | None = None, den: int = 1):
        if den < 1:
            raise ValueError("denominator must be positive")
        terms = {m: c for m, c in terms.items() if c} if terms else {}
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
        self.terms = terms
        self.den = den // g

    @classmethod
    def constant(cls, c):
        c = Fraction(c)
        return cls({0: c.numerator}, c.denominator)

    @classmethod
    def combination(cls, pairs):
        """sum c * p over the (p, c) pairs, p of this class and c an int or Fraction,
        summed over one lcm of the denominators and reduced by one gcd."""
        pairs = [(p, c) for p, c in pairs if c]
        den = math.lcm(*(p.den * c.denominator for p, c in pairs))
        out: dict[int, int] = {}
        for p, c in pairs:
            scale = c.numerator * (den // (p.den * c.denominator))
            for m, x in p.terms.items():
                out[m] = out.get(m, 0) + x * scale
        return cls(out, den)

    def _coerce(self, other):
        """other in self's ring: a constant for an int or Fraction, None for
        anything that is not of self's class."""
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        return other if type(other) is type(self) else None

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {m: c * a for m, c in self.terms.items()}
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c * b
        return type(self)(out, den)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return type(self)(
                {m: c * q.numerator for m, c in self.terms.items()}, self.den * q.denominator
            )
        if type(other) is not type(self):
            return NotImplemented
        out: dict[int, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return type(self)(out, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.terms == other.terms


class ZPolynomial(_Numerators):
    """Univariate polynomial in the formal variable z over the rationals:
    terms maps z-degrees to integer numerators over den.

    ZPolynomial(coeffs) takes the rationals coeffs[i] of z^i, low degree to
    high; ZPolynomial(terms, den) takes a dict of numerators.  Evaluation at
    a rational point is exact.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence | Mapping[int, int] = (), den: int = 1):
        if not isinstance(coeffs, dict):
            nums, d = integer_numerators(coeffs)
            coeffs, den = dict(enumerate(nums)), den * d
        super().__init__(coeffs, den)

    @classmethod
    def variable(cls) -> "ZPolynomial":
        return cls({1: 1})

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients low degree to high, through the degree."""
        return tuple(self.coefficient(i) for i in range(self.degree + 1))

    def coefficient(self, i: int) -> Fraction:
        return Fraction(self.terms.get(i, 0), self.den)

    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return math.prod([self] * n, start=ZPolynomial.constant(1))

    def __call__(self, x):
        """Evaluate by Horner on the numerators; x is a rational or another
        polynomial."""
        top = self.degree
        if isinstance(x, ZPolynomial):
            acc = ZPolynomial()
            for i in range(top, -1, -1):
                acc = acc * x + self.terms.get(i, 0)
            return acc * Fraction(1, self.den)
        # sum_i c_i p^i q^(top-i) over den q^top, for x = p/q
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        acc, qpow = 0, 1
        for i in range(top, -1, -1):
            acc = acc * p + self.terms.get(i, 0) * qpow
            qpow *= q
        return Fraction(acc * q, self.den * qpow)

    def shift(self, a) -> "ZPolynomial":
        """Return p(z + a), for a = r/s, by the integer Taylor shift (repeated
        synthetic division by w - r) of s^degree p(w/s), then w = s z; O(degree^2)
        integer operations."""
        a = Fraction(a)
        r, s = a.numerator, a.denominator
        top = self.degree
        c = [self.terms.get(i, 0) * s ** (top - i) for i in range(top + 1)]
        if r:
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    c[j] += r * c[j + 1]
        return ZPolynomial({j: cj * s**j for j, cj in enumerate(c)}, self.den * s ** max(top, 0))

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def to_json(self) -> list:
        return [rational_to_json(c) for c in self.coeffs]

    def __repr__(self):
        parts = []
        for i in sorted(self.terms, reverse=True):
            c = Fraction(self.terms[i], self.den)
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "z" if mag == 1 else f"{mag}*z"
            else:
                term = f"z^{i}" if mag == 1 else f"{mag}*z^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) or "0"


def integer_numerators(values: Sequence) -> tuple[list[int], int]:
    """Integers x_i and one positive denominator d with values[i] = x_i / d,
    d the least common denominator of the rationals in values."""
    qs = [Fraction(c) for c in values]
    d = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (d // q.denominator) for q in qs], d


def appell_polynomial(numbers: tuple[Sequence[int], int], n: int) -> ZPolynomial:
    """sum_m C(n,m) b_m z^{n-m}, n! [t^n] of e^{zt} sum b_m t^m / m!, for
    b_m = x_m / d given as the integer_numerators pair (x, d); needs
    0 <= n < len(x), and reads x_0..x_n only."""
    x, d = numbers
    if not 0 <= n < len(x):
        raise IndexError(f"n = {n} outside 0..{len(x) - 1}")
    return ZPolynomial({n - m: math.comb(n, m) * x[m] for m in range(n + 1)}, d)


def bernoulli_polynomial(n: int) -> ZPolynomial:
    """The Bernoulli polynomial B_n(z), exactly.

    B_n(0) = B_n and B_n(1) = (-1)^n B_n under the B_1 = -1/2 convention.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return appell_polynomial(integer_numerators(bernoulli_numbers(n)), n)

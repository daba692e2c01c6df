"""Sparse multivariate symbol algebra over the rationals.

Implements the Bernoulli symbols B_i (n-th power evaluates to the Bernoulli
number B_n), the uniform symbols U_j (n-th power evaluates to 1/(n+1), the
n-th moment of the uniform law on [0,1]), the formal variable z, and the
linear evaluation functional sending a monomial to the product of moments of
its independent symbols.

An expression is held in the one exact layout, defined and given its ring
operations in the exact module and shared with ZPolynomial: a dict from
packed monomials to integer numerators over one positive common
denominator, kept canonical.  This module adds what is specific to symbols:
packing, the exponent guard on products, powers, substitution, the
closed-form simplex integral, evaluation and rendering.  A monomial is one int in which
every symbol owns a fixed 16-bit exponent field: z field 0, B_i field
2i - 1, U_j field 2j.  Multiplying monomials is adding ints, and once B and
U are evaluated the key is the z-degree.  Exponents are at most MAX_EXPONENT
= 2^15 - 1, so the top bit of each field is a guard: a product can set it
but cannot carry into the next field, and an operation whose result would
exceed MAX_EXPONENT raises OverflowError instead.  The largest exponent the
CLI's inputs reach is a few dozen.

Expressions are immutable once built and all operations are pure functions;
the only module state is the memo of integer moment rows, a functools.cache,
which is thread-safe.  expr_power, expect_power and expect_powers share one
breadth-first expansion; expect_power multiplies in each symbol's moments
in the step that makes its exponent final, so the full power is never
built, and expect_powers gives every power expr^0 .. expr^n_max from one
pass.  All refuse an expansion whose predicted monomial count for the top
power exceeds DEFAULT_EXPANSION_CAP with ExpansionCapError.
Negative symbol powers are not representable here; negative moments are the
business of the numerical layer.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import itemgetter, or_
from typing import Mapping

from .exact import ZPolynomial, _Numerators, bernoulli_numbers, integer_numerators

__all__ = [
    "Symbol",
    "bernoulli_symbol",
    "uniform_symbol",
    "Z",
    "UmbralExpression",
    "ExpansionCapError",
    "DEFAULT_EXPANSION_CAP",
    "expect",
    "expect_power",
    "expect_powers",
    "expr_power",
    "poly_symbol",
    "c_symbol",
]

# largest predicted monomial count a power expansion expands
DEFAULT_EXPANSION_CAP = 5_000_000

# exponent fields of a packed monomial: 15 exponent bits and one guard bit
MAX_EXPONENT = (1 << 15) - 1
_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)


class ExpansionCapError(Exception):
    """Raised when a power expansion would exceed the monomial-count cap."""


class Symbol(tuple):
    """A formal symbol: kind 'B' (Bernoulli), 'U' (uniform) or 'z' (formal variable).

    Distinct (kind, index) pairs denote independent symbols.  A symbol is the
    tuple (kind, index), so hashing, equality and ordering run at C speed.
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


def _offset(s: Symbol) -> int:
    """Lowest bit of the symbol's exponent field: z field 0, B_i 2i - 1, U_j 2j."""
    kind, index = s
    if kind == "z":
        return 0
    return _WIDTH * (2 * index - (kind == "B"))


def _kind(field: int) -> str:
    return "UB"[field % 2] if field else "z"


def _fields(key: int):
    """(field number, exponent) of each nonzero exponent field of a packed monomial."""
    field = 0
    while key:
        if key & _MASK:
            yield field, key & _MASK
        key >>= _WIDTH
        field += 1


def _decode(key: int) -> tuple:
    """The (Symbol, exponent) pairs of a packed monomial, sorted by symbol."""
    pairs = [(Symbol(_kind(f), (f + 1) // 2) if f else Z, e) for f, e in _fields(key)]
    return tuple(sorted(pairs))


def _check_exponents(keys) -> None:
    """Raise OverflowError when an exponent field of some key has reached its
    guard bit, i.e. holds more than MAX_EXPONENT."""
    seen = functools.reduce(or_, keys, 0)
    fields = seen.bit_length() // _WIDTH + 1
    # the guard bit of every field: _GUARD times the base-2^16 repunit
    if seen & (_GUARD * (((1 << (_WIDTH * fields)) - 1) // _MASK)):
        raise OverflowError(f"a symbol exponent exceeds {MAX_EXPONENT}")


@functools.cache
def _moment_row(kind: str, top: int) -> tuple[tuple[int, ...], int]:
    """The moments E[s^0], ..., E[s^top] of a kind-symbol s as integer
    numerators over their least common denominator."""
    if kind == "B":
        moments = bernoulli_numbers(top)
    else:
        moments = [Fraction(1, e + 1) for e in range(top + 1)]
    row, d = integer_numerators(moments)
    return tuple(row), d


def _check_kinds(kinds) -> None:
    if not kinds or not set(kinds) <= {"B", "U"}:
        raise ValueError("kinds must be 'B', 'U' or both")


def _moments(kinds, bounds) -> tuple[list, int]:
    """The (field offset, moment row) pairs of the symbols of the given kinds
    among the (field, exponent bound) pairs, and the product of the rows'
    denominators.  A row reaches 2^b - 1 for a b-bit bound, so the memo holds
    at most 16 rows per kind."""
    rows, den = [], 1
    for field, bound in bounds:
        if _kind(field) in kinds:
            row, d = _moment_row(_kind(field), (1 << bound.bit_length()) - 1)
            rows.append((field * _WIDTH, row))
            den *= d
    return rows, den


def _evaluate(terms: dict[int, int], rows: list) -> dict[int, int]:
    """Multiply each numerator by the moments that its key selects from the
    (field offset, moment row) pairs, and clear those fields: zero terms drop
    out and equal keys merge."""
    clear = ~sum(_MASK << off for off, _ in rows)
    out: dict[int, int] = {}
    for m, c in terms.items():
        for off, row in rows:
            c *= row[(m >> off) & _MASK]
            if not c:
                break
        else:
            m &= clear
            out[m] = out.get(m, 0) + c
    return out


class UmbralExpression(_Numerators):
    """Sparse polynomial in Bernoulli/uniform symbols and z over the rationals:
    terms maps packed monomials to integer numerators over the denominator den."""

    __slots__ = ()

    @classmethod
    def symbol(cls, s: Symbol) -> "UmbralExpression":
        return cls({1 << _offset(s): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[Symbol, int], coeff=Fraction(1)) -> "UmbralExpression":
        key = 0
        for s, e in exponents.items():
            if e < 0:
                raise ValueError("negative symbol powers are not representable")
            if e > MAX_EXPONENT:
                raise OverflowError(f"a symbol exponent exceeds {MAX_EXPONENT}")
            key += e << _offset(s)
        c = Fraction(coeff)
        return cls({key: c.numerator}, c.denominator)

    def __mul__(self, other):
        out = super().__mul__(other)
        if out is not NotImplemented:
            _check_exponents(out.terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return expr_power(self, n)

    def substitute(self, symbol: Symbol, replacement: "UmbralExpression") -> "UmbralExpression":
        """Ring substitution symbol -> replacement, exponents expanded."""
        off = _offset(symbol)
        by_power: dict[int, dict[int, int]] = {}
        for m, c in self.terms.items():
            e = (m >> off) & _MASK
            by_power.setdefault(e, {})[m - (e << off)] = c
        powers = list(expect_powers(replacement, max(by_power, default=0), ()))
        return UmbralExpression.combination(
            (UmbralExpression(rest, self.den) * powers[e], 1) for e, rest in by_power.items()
        )

    def simplex_integral(self, symbols) -> "UmbralExpression":
        """The integral of self over 0 <= s_1 <= ... <= s_r <= 1, density
        1/(s_2 ... s_r), s_j = symbols[j - 1], in closed form over one lcm:
        s_1^e_1 ... s_r^e_r goes to prod_j 1/(e_1 + ... + e_j + 1), and the
        other fields pass through."""
        offs = [_offset(s) for s in symbols]
        clear = ~sum(_MASK << off for off in offs)
        parts = []
        for m, c in self.terms.items():
            q = p = 1
            for off in offs:
                p += m >> off & _MASK
                q *= p
            parts.append((m & clear, c, q))
        den = math.lcm(*(q for _, _, q in parts))
        out: dict[int, int] = {}
        for m, c, q in parts:
            out[m] = out.get(m, 0) + c * (den // q)
        return UmbralExpression(out, self.den * den)

    def expect_kind(self, *kinds: str) -> "UmbralExpression":
        """Evaluate the symbols of the given kinds ('B', 'U' or both), leaving
        the rest formal: distinct symbols are independent, so the functional
        factorizes, and each evaluated symbol multiplies the numerators by its
        kind's integer moment row and the denominator by that row's one."""
        _check_kinds(kinds)
        rows, d = _moments(kinds, _fields(functools.reduce(or_, self.terms, 0)))
        return UmbralExpression(_evaluate(self.terms, rows), self.den * d) if rows else self

    def expect(self) -> ZPolynomial:
        """Apply the linear evaluation functional B_i^n -> B_n, U_j^n -> 1/(n+1);
        the z symbol survives as the variable."""
        r = self.expect_kind("B", "U")  # keys are now z-degrees
        return ZPolynomial(r.terms, r.den)

    def render(self) -> str:
        """Canonical text form: monomials sorted, exponents explicit."""
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted((_decode(m), Fraction(c, self.den)) for m, c in self.terms.items()):
            if not mono:
                parts.append(str(c))
                continue
            body = "*".join(f"{s}^{e}" for s, e in mono)
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return self.render()


def _expand(expr: UmbralExpression, n: int, kinds: tuple, every: bool = False):
    """An iterator over expr**n (every=True: expr**0 .. expr**n), the given
    kinds evaluated, by one breadth-first multinomial expansion: a state is a
    partial monomial with the power u used so far, the terms are taken one at
    a time (fewer formal symbols first, then those holding an evaluated one),
    a term raised to e carries C(u + e, e), and equal keys merge.  The step of
    the last term holding an evaluated symbol multiplies each contribution by
    its moment and clears its field, so zero products (B_j, odd j >= 3) drop
    out at once.  The last term takes all the power left, for one power at a
    time (_evaluate closes its fields).  The cap and exponent checks, the full
    expansion's of expr**n, run before the return."""
    if n < 0:
        raise ValueError("negative expression power")
    wanted = range(n + 1) if every else (n,)
    t = len(expr.terms)
    if n == 0 or t == 0:  # x^0 = 1, 0^n = 0
        return (UmbralExpression.constant(1 if v == 0 else 0) for v in wanted)
    if math.comb(n + t - 1, t - 1) > DEFAULT_EXPANSION_CAP:
        raise ExpansionCapError(
            f"expansion of a {t}-term expression to power {n} exceeds cap {DEFAULT_EXPANSION_CAP}"
        )
    # a symbol's exponents reach n times its largest exponent in the base
    seen = _fields(functools.reduce(or_, expr.terms, 0))
    tops = [(f, n * max(m >> f * _WIDTH & _MASK for m in expr.terms)) for f, _ in seen]
    if max((top for _, top in tops), default=0) > MAX_EXPONENT:
        raise OverflowError(f"a symbol exponent exceeds {MAX_EXPONENT}")
    rows, d = _moments(kinds, tops)
    held = sum(_MASK << off for off, _ in rows)
    items = sorted(
        expr.terms.items(),
        key=lambda mc: (len(list(_fields(mc[0] & ~held))), not mc[0] & held, mc[0]),
    )
    last = {f * _WIDTH: i for i, (m, _) in enumerate(items) for f, _ in _fields(m)}
    closing = [[] for _ in items]  # the rows to apply right after items[i]
    for off, row in rows:
        closing[last[off]].append((off, row))
    frontier = {0: {0: 1}}  # power used -> {partial monomial: numerator}
    for (m, c), close in zip(items[:-1], closing):
        powers = [c**e for e in range(n + 1)]
        clear = ~sum(_MASK << off for off, _ in close)
        step: dict[int, dict[int, int]] = {}
        for used, states in frontier.items():
            for e in range(n - used + 1):
                add, mult = m * e, math.comb(used + e, e) * powers[e]
                out = step.setdefault(used + e, {})
                for key, coef in states.items():
                    key += add
                    coef *= mult
                    for off, row in close:
                        coef *= row[key >> off & _MASK]
                    if coef:
                        key &= clear
                        out[key] = out.get(key, 0) + coef
        frontier = step
    (m, c), close = items[-1], closing[-1]
    powers = [c**e for e in range(n + 1)]

    def power(v: int) -> UmbralExpression:
        out: dict[int, int] = {}
        for used, states in frontier.items():
            if used <= v:
                add, mult = m * (v - used), math.comb(v, used) * powers[v - used]
                for key, coef in states.items():
                    key += add
                    out[key] = out.get(key, 0) + coef * mult
        return UmbralExpression(_evaluate(out, close) if close else out, expr.den**v * d)

    return map(power, wanted)


def expr_power(expr: UmbralExpression, n: int) -> UmbralExpression:
    """expr**n, fully expanded.  Raises ExpansionCapError when the predicted
    count C(n + t - 1, t - 1) of a t-term base's monomials exceeds
    DEFAULT_EXPANSION_CAP, OverflowError when n times an exponent would
    exceed MAX_EXPONENT."""
    return next(_expand(expr, n, ()))


def expect_power(expr: UmbralExpression, n: int, kinds=("B", "U")) -> UmbralExpression:
    """expr_power(expr, n).expect_kind(*kinds), exactly and with the same
    checks, without building the full power.  With both kinds the keys are
    z-degrees, and .expect() reads the result as a ZPolynomial."""
    _check_kinds(kinds)
    return next(_expand(expr, n, kinds))


def expect_powers(expr: UmbralExpression, n_max: int, kinds=("B", "U")):
    """An iterator over expect_power(expr, n, kinds), n = 0..n_max, from one
    expansion (with kinds empty, over expr_power(expr, n)); each power is built
    when reached.  Raises at the call what expect_power(expr, n_max) raises."""
    if kinds:
        _check_kinds(kinds)
    return _expand(expr, n_max, kinds, every=True)


# the evaluation functional as a function; the acceptance criteria import it
expect = UmbralExpression.expect


def poly_symbol(k: int) -> UmbralExpression:
    """The order-k poly-Bernoulli symbol 1 + sum_{l=1}^{k} B_l prod_{j=l}^{k-1} U_j.

    Always uses symbol indices B_1..B_k and U_1..U_{k-1}; callers needing an
    independent copy must re-index through UmbralExpression.substitute.  For k = 1 the
    empty product is 1 and the result is 1 + B_1.
    """
    return UmbralExpression({0: 1, **c_symbol(k).terms})


def c_symbol(k: int) -> UmbralExpression:
    """The companion symbol: poly_symbol(k) - 1; satisfies
    c_symbol(k) = B_k + U_{k-1} * c_symbol(k-1) with c_symbol(1) = B_1.  The
    packed terms B_l U_l ... U_{k-1} are written directly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bs = [1 << _offset(bernoulli_symbol(l)) for l in range(1, k + 1)]
    us = [1 << _offset(uniform_symbol(j)) for j in range(1, k)]
    return UmbralExpression({bs[i] + sum(us[i:]): 1 for i in range(k)})

"""Poly-Bernoulli polynomials B_n^{(k)}(z) and the companion family C_n^{(k)}(z)
computed along three independent routes (generating-function coefficients,
symbolic moments, Stirling-number closed form), plus the exact
integral-transform representations through Bernoulli-Barnes polynomials on
the unit cube and on the ordered simplex.

The three routes share one signature (n_max, k, variant), one argument check
and one result, and ROUTES names them.  The series route composes Li_k(x)/x
with x = 1-e^{-t} by Horner's rule on integer polynomials in y = e^{-t}, and
reads the EGF numerators off through n! [t^n] e^{-it} = (-i)^n; the symbolic
route evaluates the nested symbol S_k = 1 + C_k through its moment
sequences, on integer numerators; the Stirling route sums integers over one
denominator lcm(1..n_max+1)^k.  Each computes one family and reaches the
other through bc_convert, the binomial transform: the two generating
functions differ by the factor e^{-t}, as S_k = 1 + C_k says.  Each hands
the integer numerators it computed, over their denominator, to a frozen
PolyBernoulliTable, which reduces them once; the polynomials are their
Appell lifts (exact.appell_polynomial).

The transforms expand their integrands in the sparse symbol algebra of the
umbral module, whose expect_power evaluates each symbol during the
expansion.  On the cube the weight cancels the Barnes prefactor, so that
transform is the one expectation E[(z + 1 + C_k)^n]; on the simplex the
Bernoulli symbols are evaluated during the expansion and the variables
integrated in closed form; their _row forms give every n <= n_max from one
all-powers expansion (umbral.expect_powers).  bernoulli_barnes takes
rational parameters.

Route agreement across all of these is the central correctness invariant of
the package.

The series route's Li_k(1-e^{-t})/(1-e^{-t}) is composed once per (n_max, k),
in O(n_max^2) integer operations, into an lru_cache of 64 immutable results
(_li_composed), thread-safe and bit-identical to a fresh composition, which
B, C and repeated tables share.  A table's polynomials are lifted once per
distinct reduced numerators, the key of a second lru_cache of 64 tuples
(_lifts), thread-safe too: equal tables (series and Stirling B, a C->B round
trip, repeated requests) share the immutable polynomials, entries lists
them, and value(n) lifts one alone.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Union

from .exact import (
    ZPolynomial,
    appell_polynomial,
    bernoulli_numbers,
    integer_numerators,
    stirling_row,
)
from .umbral import (
    UmbralExpression,
    Z,
    bernoulli_symbol,
    c_symbol,
    expect_power,
    expect_powers,
    uniform_symbol,
)

__all__ = [
    "PolyBernoulliTable",
    "ROUTES",
    "poly_bernoulli_series",
    "poly_bernoulli_umbral",
    "poly_bernoulli_stirling",
    "stirling_table",
    "umbral_numbers",
    "route_disagreement",
    "bc_convert",
    "bernoulli_barnes",
    "barnes_transform_cube",
    "barnes_transform_cube_row",
    "simplex_transform",
    "simplex_transform_row",
]

VARIANTS = ("B", "C")


@dataclass(frozen=True)
class PolyBernoulliTable:
    """The z = 0 numbers b_0..b_n_max of one (k, variant), tagged with their
    route, held as one pair (x, d) of integer numerators over one positive
    denominator, b_n = x_n / d, reduced on construction so that d and the x_n
    are coprime.  The polynomials are their lifts through the e^{zt} factor;
    the table is frozen, so the cached lifts cannot go stale."""

    k: int
    variant: str
    route: str
    numerators: tuple[tuple[int, ...], int] = ((), 1)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        x, d = self.numerators
        g = math.gcd(d, *x)
        object.__setattr__(self, "numerators", (tuple(v // g for v in x), d // g))

    @property
    def n_max(self) -> int:
        return len(self.numerators[0]) - 1

    @cached_property
    def entries(self) -> list[ZPolynomial]:
        """The polynomials, entry_n(z) = sum_m C(n,m) b_m z^{n-m}, built once
        per distinct numerators (_lifts)."""
        return list(_lifts(self.numerators))

    def value(self, n: int) -> ZPolynomial:
        """Entry n alone, lifted from the numerators; 0 <= n <= n_max."""
        return appell_polynomial(self.numerators, n)

    def number(self, n: int) -> Fraction:
        """The number at z = 0 (B_n^{(k)} or C_n^{(k)}), 0 <= n <= n_max."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"n = {n} outside 0..{self.n_max}")
        return Fraction(self.numerators[0][n], self.numerators[1])

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "variant": self.variant,
            "route": self.route,
            "entries": [p.to_json() for p in self.entries],
        }


@lru_cache(maxsize=64)
def _lifts(numerators: tuple[tuple[int, ...], int]) -> tuple[ZPolynomial, ...]:
    """Every Appell lift of one reduced numerators pair: equal tables share them."""
    return tuple(appell_polynomial(numerators, n) for n in range(len(numerators[0])))


def _check_route_args(n_max: int, k: int, variant: str) -> None:
    """The argument check of every route."""
    if n_max < 0 or k < 1:
        raise ValueError("need n_max >= 0 and k >= 1")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def poly_bernoulli_series(n_max: int, k: int, variant: str = "B") -> PolyBernoulliTable:
    """Coefficient extraction from Li_k(1-e^{-t})/(1-e^{-t}), the B family's
    generating function: entries are n! times the t^n coefficient, extended
    to polynomials by the e^{zt} factor.  It is the one composition of
    Li_k(x)/x with x = 1-e^{-t} (_li_composed).  The C family's
    Li_k(1-e^{-t})/(e^t-1) is e^{-t} times it, bc_convert's "B->C".
    """
    _check_route_args(n_max, k, variant)
    table = PolyBernoulliTable(k, "B", "series", _li_composed(n_max, k))
    return bc_convert(table, "B->C") if variant == "C" else table


@lru_cache(maxsize=64)
def _li_composed(n_max: int, k: int) -> tuple[tuple[int, ...], int]:
    """Li_k(x)/x = sum_j x^j/(j+1)^k at x = 1-e^{-t}, through t^n_max, as EGF
    numerators over lk = lcm(1..n_max+1)^k.  x = O(t), so the terms j > n_max
    cannot reach t^n_max, and the sum stops there.

    Horner's rule in the basis y = e^{-t}: each partial sum is a polynomial
    sum_i q_i y^i with integer q_i over lk, and multiplying it by x = 1 - y is
    a two-term update.  n! [t^s] e^{-it} = (-i)^s then reads the numerators
    off as x_s = sum_i q_i (-i)^s: O(n_max^2) integer operations in all.
    """
    lk = math.lcm(*range(1, n_max + 2)) ** k
    q = [lk // (n_max + 1) ** k]
    for j in range(n_max - 1, -1, -1):
        q = [lk // (j + 1) ** k + q[0]] + [b - a for a, b in zip(q, q[1:])] + [-q[-1]]
    x = []
    for _ in range(n_max + 1):
        x.append(sum(q))
        q = [-i * v for i, v in enumerate(q)]
    return tuple(x), lk


def _umbral_table(n_max: int, k: int, variant: str = "B") -> PolyBernoulliTable:
    """E[S_k^n] (B variant) or E[C_k^n] (C variant) for n = 0..n_max.

    The companion symbol nests as C_1 = B_1, C_k = B_k + U_{k-1} C_{k-1} over
    independent symbols, so the evaluation functional factorizes and the
    moments follow by binomial convolution, in O(k n^2) exact operations:

      E[C_k^j] = sum_i C(j,i) B_{j-i} E[C_{k-1}^i] / (i+1).

    The convolution runs on integer numerators over one denominator: the
    Bernoulli numerators over d, and 1/(i+1) as (L/(i+1))/L, L = lcm(1..n+1).
    The B variant E[S_k^j] = E[(1 + C_k)^j] is bc_convert's "C->B".
    """
    _check_route_args(n_max, k, variant)
    bern, d = integer_numerators(bernoulli_numbers(n_max))
    lcm = math.lcm(*range(1, n_max + 2))
    moments, den = bern, d
    for _ in range(2, k + 1):
        lowered = [x * (lcm // (i + 1)) for i, x in enumerate(moments)]
        moments = [
            sum(math.comb(j, i) * bern[j - i] * lowered[i] for i in range(j + 1))
            for j in range(n_max + 1)
        ]
        den *= d * lcm
        g = math.gcd(den, *moments)
        moments, den = [x // g for x in moments], den // g
    table = PolyBernoulliTable(k, "C", "umbral", (moments, den))
    return bc_convert(table, "C->B") if variant == "B" else table


def umbral_numbers(n_max: int, k: int, variant: str = "B") -> list[Fraction]:
    """The symbolic route's numbers E[S_k^n] or E[C_k^n], n = 0..n_max."""
    return list(map(_umbral_table(n_max, k, variant).number, range(n_max + 1)))


def poly_bernoulli_umbral(n: int, k: int, variant: str = "B") -> ZPolynomial:
    """B_n^{(k)}(z) or C_n^{(k)}(z) as the expectation of (z + symbol)^n,
    lifted from the symbol's moment numerators."""
    return _umbral_table(n, k, variant).value(n)


def stirling_table(n_max: int, k: int, variant: str = "B") -> PolyBernoulliTable:
    """The Stirling closed form B_n^{(k)} = (-1)^n sum_m (-1)^m m! S(n,m) /
    (m+1)^k for n <= n_max, every number an integer sum over the one
    denominator L = lcm(1..n_max+1)^k with one shared weight row
    w_m = (-1)^m m! L/(m+1)^k; the C variant through bc_convert."""
    _check_route_args(n_max, k, variant)
    lk = math.lcm(*range(1, n_max + 2)) ** k
    w = [(-1) ** m * math.factorial(m) * (lk // (m + 1) ** k) for m in range(n_max + 1)]
    sums = [(-1) ** n * sum(map(operator.mul, w, stirling_row(n))) for n in range(n_max + 1)]
    table = PolyBernoulliTable(k, "B", "stirling", (sums, lk))
    return bc_convert(table, "B->C") if variant == "C" else table


def poly_bernoulli_stirling(n: int, k: int) -> Fraction:
    """B_n^{(k)} by the Stirling closed form (stirling_table)."""
    return stirling_table(n, k).number(n)


ROUTES = {"series": poly_bernoulli_series, "umbral": _umbral_table, "stirling": stirling_table}


def route_disagreement(numbers: list[Fraction], k: int, variant: str = "B") -> dict | None:
    """Cross-check series numbers for n = 0..len(numbers)-1 against the
    symbolic and Stirling routes.

    Returns None when all three agree, else the first disagreement as
    {"n", "series", "umbral", "stirling"}.
    """
    others = {name: ROUTES[name](len(numbers) - 1, k, variant) for name in ("umbral", "stirling")}
    for n, series in enumerate(numbers):
        got = {name: t.number(n) for name, t in others.items()}
        if any(v != series for v in got.values()):
            return {"n": n, "series": series, **got}
    return None


def bc_convert(table: PolyBernoulliTable, direction: str) -> PolyBernoulliTable:
    """Binomial transform between the B and C families, entry-wise:

      C_n = sum_l C(n,l) (-1)^{n-l} B_l      (direction "B->C")
      B_n = sum_l C(n,l) C_l                 (direction "C->B")

    Exact, and an involution pair (B->C then C->B is the identity).  It is
    the EGF product with e^{-t} or e^{t}, and the lift to polynomials is the
    product with e^{zt}, so the two commute: the transform maps the table's
    integer numerators, over its one denominator, by repeated differences
    (B->C) or sums (C->B), in O(n^2) additions.
    """
    if direction not in ("B->C", "C->B"):
        raise ValueError("direction must be 'B->C' or 'C->B'")
    if table.variant != direction[0]:
        raise ValueError(f"{direction} conversion needs a {direction[0]}-variant table")
    sign = -1 if direction == "B->C" else 1
    x, d = table.numerators
    rows = []
    while x:  # rows[n] heads the n-th pass of x_i <- x_{i+1} + sign x_i
        rows.append(x[0])
        x = [b + sign * a for a, b in zip(x, x[1:])]
    return PolyBernoulliTable(table.k, direction[-1], table.route, (rows, d))


def bernoulli_barnes(n: int, a: list) -> ZPolynomial:
    """The Bernoulli-Barnes polynomial (1/prod a_i) E[(z + sum a_i B_i)^n] over
    independent Bernoulli symbols: n! times the t^n coefficient of
    e^{zt} prod t/(e^{a_i t} - 1), for a nonempty list of nonzero rationals a.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not a:
        raise ValueError("parameter list must be nonempty")
    a = [Fraction(ai) for ai in a]
    if 0 in a:
        raise ValueError("parameters must be nonzero")
    base = UmbralExpression.symbol(Z)
    for i, ai in enumerate(a, start=1):
        base = base + UmbralExpression.symbol(bernoulli_symbol(i)) * ai
    return expect_power(base, n).expect() * (1 / math.prod(a))


def barnes_transform_cube(n: int, k: int, z: Union[Fraction, None] = None):
    """Exact unit-cube integral transform of the Bernoulli-Barnes polynomial:

    integrates 𝔅_n^{(k)}(a; z+1) u_1 u_2^2 ... u_{k-1}^{k-1} over [0,1]^{k-1},
    with a_i = u_i ... u_{k-1} (a_k = 1).  The weight is prod a_i, so it
    cancels the 1/prod(a_i) prefactor exactly and leaves
    E[(z + 1 + sum a_i B_i)^n], where sum a_i B_i is the companion symbol
    C_k; one expectation then evaluates the B and the u-variables together
    (each u-monomial integrates to 1/(exponent+1)), during the expansion.
    Returns B_n^{(k)}(z) as a polynomial for z=None, else the rational value.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    zt = UmbralExpression.symbol(Z) if z is None else UmbralExpression.constant(z)
    poly = expect_power(c_symbol(k) + zt + 1, n).expect()
    return poly if z is None else poly.coefficient(0)


def barnes_transform_cube_row(n_max: int, k: int, z: Union[Fraction, None] = None) -> list:
    """barnes_transform_cube(n, k, z) for n = 0..n_max, from one all-powers
    expansion of z + 1 + C_k."""
    if n_max < 0 or k < 1:
        raise ValueError("need n_max >= 0 and k >= 1")
    zt = UmbralExpression.symbol(Z) if z is None else UmbralExpression.constant(z)
    polys = [e.expect() for e in expect_powers(c_symbol(k) + zt + 1, n_max)]
    return polys if z is None else [p.coefficient(0) for p in polys]


def _simplex_base(k: int, z) -> UmbralExpression:
    """1 + z + B_k + v_{k-1} B_{k-1} + ... + v_1 B_1, the v's as U symbols."""
    if k < 2:
        raise ValueError("simplex transform requires k >= 2")
    zt = UmbralExpression.symbol(Z) if z is None else UmbralExpression.constant(z)
    base = [zt, UmbralExpression.constant(1), UmbralExpression.symbol(bernoulli_symbol(k))]
    for l in range(1, k):
        base.append(UmbralExpression.monomial({uniform_symbol(l): 1, bernoulli_symbol(l): 1}))
    return UmbralExpression.combination((p, 1) for p in base)


def _simplex_value(expr: UmbralExpression, k: int, z):
    """The simplex integral of expr, a polynomial in the v's and z."""
    poly = expr.simplex_integral([uniform_symbol(j) for j in range(1, k)]).expect()
    return poly if z is None else poly.coefficient(0)


def simplex_transform(n: int, k: int, z: Union[Fraction, None] = None):
    """Exact ordered-simplex representation: the integral over
    0 <= v_1 <= ... <= v_{k-1} <= 1 of

        E[(1 + z + B_k + v_{k-1} B_{k-1} + ... + v_1 B_1)^n] / (v_2 ... v_{k-1}),

    the Bernoulli symbols evaluated during the expansion, then the v's
    integrated in closed form (UmbralExpression.simplex_integral), exactly.
    Returns B_n^{(k)}(z).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _simplex_value(expect_power(_simplex_base(k, z), n, ("B",)), k, z)


def simplex_transform_row(n_max: int, k: int, z: Union[Fraction, None] = None) -> list:
    """simplex_transform(n, k, z) for n = 0..n_max, the Bernoulli symbols
    evaluated in one all-powers expansion."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [_simplex_value(e, k, z) for e in expect_powers(_simplex_base(k, z), n_max, ("B",))]

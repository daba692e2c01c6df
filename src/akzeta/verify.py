"""Executable identity checks for the poly-Bernoulli family.

Every recurrence, connection relation, difference identity and integral
transform is run either as an exact coefficient-wise polynomial comparison
(never sampled at points, never floating) or, for the numerical layer, as a
comparison within an explicitly recorded tolerance.  Results are frozen and
aggregate into a structured report whose JSON rendering is byte-stable for a
fixed configuration.
An exact check is a lazy stream of (witness, lhs, rhs) cases that _scan
compares: the first case whose sides differ is reported and no later case is
built, and a check whose stream is empty is a skip.  A numeric check is a
lazy stream of (witness, got, want, bound) cases that _scan_within judges
the same way, failing where |got - want| exceeds the bound.
Sums of polynomials are one combination over one denominator, and the symbol
checks expand each base once for all the powers they compare (expect_powers).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

from .exact import (
    ZPolynomial,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_polynomial,
    binomial,
)
from .polybernoulli import (
    PolyBernoulliTable,
    barnes_transform_cube_row,
    bc_convert,
    poly_bernoulli_series,
    route_disagreement,
    simplex_transform_row,
)
from .umbral import (
    UmbralExpression,
    Z,
    bernoulli_symbol,
    c_symbol,
    expect_power,
    expect_powers,
    poly_symbol,
    uniform_symbol,
)

__all__ = [
    "VerifyConfig",
    "IdentityCheck",
    "VerificationReport",
    "run_all",
    "SUITES",
]

SUITES = ("all", "umbral", "recurrence", "transforms", "zeta")


@dataclass(frozen=True)
class VerifyConfig:
    """Grid bounds for the identity checks; the full run at the defaults
    takes about half a second.  m_max bounds only the step m of the
    multistep-difference check: the zeta checks run fixed grids."""

    n_max: int = 15
    k_max: int = 4
    m_max: int = 5
    suite: str = "all"
    corrupt: bool = False  # test hook: inject a corrupted table entry

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"suite must be one of {SUITES}")
        if self.n_max < 0 or self.k_max < 1 or self.m_max < 0:
            raise ValueError("need n_max >= 0, k_max >= 1 and m_max >= 0")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    params: dict
    status: str = "pass"  # pass | fail | skip
    witness: dict | None = None
    lhs: str | None = None
    rhs: str | None = None
    tolerance: float | None = None  # recorded for numeric checks, None when exact

    def fail(self, witness: dict, lhs=None, rhs=None) -> "IdentityCheck":
        """This check, failed at witness with both sides as text."""
        return replace(self, status="fail", witness=witness,
                       lhs=None if lhs is None else str(lhs), rhs=None if rhs is None else str(rhs))

    def to_json(self) -> dict:
        """Every field that is set, in field order."""
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class VerificationReport:
    checks: list[IdentityCheck]
    config: VerifyConfig

    @property
    def totals(self) -> dict:
        t = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            t[c.status] += 1
        return t

    @property
    def has_failures(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "totals": self.totals,
        }

    def to_text(self) -> str:
        width = max(len(c.name) for c in self.checks) if self.checks else 10
        lines = []
        for c in self.checks:
            extra = ""
            if c.tolerance is not None:
                extra = f"  (tol {c.tolerance:g})"
            if c.status == "fail" and c.witness:
                extra += f"  witness={c.witness}"
            lines.append(f"{c.name:<{width}}  {c.status.upper():4}{extra}")
        t = self.totals
        lines.append(f"{t['pass']} passed, {t['fail']} failed, {t['skip']} skipped")
        return "\n".join(lines)


def _scan(name: str, params: dict, cases) -> IdentityCheck:
    """The exact check name over its lazy stream of (witness, lhs, rhs) cases:
    it fails at the first case whose sides differ, and skips if there is none."""
    status = "skip"
    for witness, lhs, rhs in cases:
        if lhs != rhs:
            return IdentityCheck(name, params).fail(witness, lhs, rhs)
        status = "pass"
    return IdentityCheck(name, params, status)


def _scan_within(name: str, params: dict, tolerance: float, cases) -> IdentityCheck:
    """The numeric check name, recording its tolerance, over the lazy stream
    cases(zetanum) of (witness, got, want, bound) cases: it fails at the first
    case unless |got - want| <= bound, so a NaN fails too.  zetanum is
    imported here, so numpy loads only when a numeric check runs."""
    from . import zetanum

    for witness, got, want, bound in cases(zetanum):
        if not abs(got - want) <= bound:
            return IdentityCheck(name, params, tolerance=tolerance).fail(witness, got, want)
    return IdentityCheck(name, params, tolerance=tolerance)


# ---------------------------------------------------------------------------
# exact recurrence checks


def _tables(n_max: int, k_max: int, variant: str) -> list[PolyBernoulliTable]:
    return [poly_bernoulli_series(n_max, k, variant) for k in range(1, k_max + 1)]


def _gathered(polys: list, table: PolyBernoulliTable, n: int, l_sign: bool) -> ZPolynomial:
    """sum_m C(n,m) b_{n-m} sum_l C(m,l) s polys[l] / (n-l+1), b the table's numbers and
    s = (-1)^(m-l) if l_sign else (-1)^m: one combination, each polys[l] an integer m-sum."""
    x, d = table.numerators
    return ZPolynomial.combination(
        (polys[l], Fraction(sum(
            binomial(n, m) * binomial(m, l) * (-1) ** (m - l * l_sign) * x[n - m]
            for m in range(l, n + 1)
        ), d * (n - l + 1)))
        for l in range(n + 1)
    )


def check_order_reduction(n_max: int, k_max: int) -> IdentityCheck:
    """The order-lowering recurrence expressing B_n^{(k)}(z) through the
    (k-1)-family and shifted Bernoulli polynomials, plus its companion form:

      B_n^{(k)}(z) = sum_m C(n,m) B_{n-m}^{(k-1)} sum_l C(m,l) (-1)^{m-l} B_l(z+1)/(n-l+1)
      C_n^{(k)}(z) = sum_m C(n,m) B_m(z) C_{n-m}^{(k-1)} / (n-m+1)
    """
    def cases():
        tb = _tables(n_max, k_max, "B")
        tc = _tables(n_max, k_max, "C")
        bshift = [bernoulli_polynomial(l).shift(1) for l in range(n_max + 1)]
        bpoly = [bernoulli_polynomial(l) for l in range(n_max + 1)]
        for k in range(2, k_max + 1):
            xc, dc = tc[k - 2].numerators
            for n in range(n_max + 1):
                yield {"variant": "B", "n": n, "k": k}, tb[k - 1].entries[n], _gathered(bshift, tb[k - 2], n, True)
                rhs_c = ZPolynomial.combination(
                    (bpoly[m], Fraction(binomial(n, m) * xc[n - m], dc * (n - m + 1)))
                    for m in range(n + 1)
                )
                yield {"variant": "C", "n": n, "k": k}, tc[k - 1].entries[n], rhs_c
    return _scan("recurrence-order-reduction", {"n_max": n_max, "k_max": k_max}, cases())


def check_refuted_variant(n_max: int = 6, k_max: int = 3) -> IdentityCheck:
    """The published variant of the order-lowering recurrence with B_l(z) in
    place of B_l(z+1) is numerically incorrect; this check *passes* when it
    finds a concrete counterexample for each sign reading of the transcribed
    formula, and fails if any reading agrees everywhere on the grid.

    Reading 1 keeps the printed signs (-1)^m ... (-1)^l; reading 2 drops the
    inner sign (the transcription is ambiguous about its placement).  Each
    reading's counterexample is the first failure of its scan, k outer.
    """
    name = "recurrence-variant-refuted"
    params = {"n_max": n_max, "k_max": k_max}
    tb = _tables(n_max, k_max, "B")
    bpoly = [bernoulli_polynomial(l) for l in range(n_max + 1)]
    witnesses = {}
    for reading in (1, 2):
        # reading 1's sign (-1)^m (-1)^l is (-1)^(m-l); reading 2's is (-1)^m
        found = _scan(name, params, (
            ({"n": n, "k": k}, tb[k - 1].entries[n], _gathered(bpoly, tb[k - 2], n, reading == 1))
            for k in range(2, k_max + 1) for n in range(n_max + 1)
        ))
        if found.status != "fail":
            return found.fail({"reading": reading, "note": "no counterexample in range"})
        witnesses[f"reading_{reading}"] = {**found.witness, "got": found.rhs, "expected": found.lhs}
    return IdentityCheck(name, params, witness=witnesses)  # witnesses of refutation, status "pass"


def check_connection(n_max: int, k_max: int) -> IdentityCheck:
    """Connection relation through values at -1, and the expansion of the
    companion family in Bernoulli polynomials:

      B_n^{(k)}(z) = (1/(n+1)) sum_l C(n+1,l+1) B_{n-l}(z+1) B_l^{(k-1)}(-1)
      C_n^{(k)}(z) = (1/(n+1)) sum_l C(n+1,l+1) B_{n-l}(z)   C_l^{(k-1)}
    """
    def cases():
        tb = _tables(n_max, k_max, "B")
        tc = _tables(n_max, k_max, "C")
        bshift = [bernoulli_polynomial(l).shift(1) for l in range(n_max + 1)]
        bpoly = [bernoulli_polynomial(l) for l in range(n_max + 1)]
        for k in range(2, k_max + 1):
            at_m1 = [tb[k - 2].entries[l](Fraction(-1)) for l in range(n_max + 1)]
            prev_c = [tc[k - 2].number(l) for l in range(n_max + 1)]
            for n in range(n_max + 1):
                cs = [Fraction(binomial(n + 1, l + 1), n + 1) for l in range(n + 1)]
                rhs = ZPolynomial.combination((bshift[n - l], c * at_m1[l]) for l, c in enumerate(cs))
                yield {"variant": "B", "n": n, "k": k}, tb[k - 1].entries[n], rhs
                rhs_c = ZPolynomial.combination((bpoly[n - l], c * prev_c[l]) for l, c in enumerate(cs))
                yield {"variant": "C", "n": n, "k": k}, tc[k - 1].entries[n], rhs_c
    return _scan("connection-relation", {"n_max": n_max, "k_max": k_max}, cases())


def check_difference(n_max: int, k_max: int) -> IdentityCheck:
    """One-step difference identities:

      B_n^{(k)}(z) - B_n^{(k)}(z-1) = sum_{l>=1} C(n,l) z^{n-l} B_{l-1}^{(k-1)}(-1)
      C_n^{(k)}(z+1) - C_n^{(k)}(z) = sum_{l>=1} C(n,l) z^{n-l} C_{l-1}^{(k-1)}
    """
    def cases():
        tb = _tables(n_max, k_max, "B")
        tc = _tables(n_max, k_max, "C")
        for k in range(2, k_max + 1):
            prev_at_m1 = [tb[k - 2].entries[l](Fraction(-1)) for l in range(n_max + 1)]
            for n in range(n_max + 1):
                lhs = tb[k - 1].entries[n] - tb[k - 1].entries[n].shift(-1)
                # the coefficient of z^{n-l} is the l-th term, so list l from n down
                rhs = ZPolynomial([binomial(n, l) * prev_at_m1[l - 1] for l in range(n, 0, -1)])
                yield {"variant": "B", "n": n, "k": k}, lhs, rhs
                lhs_c = tc[k - 1].entries[n].shift(1) - tc[k - 1].entries[n]
                rhs_c = ZPolynomial([binomial(n, l) * tc[k - 2].number(l - 1) for l in range(n, 0, -1)])
                yield {"variant": "C", "n": n, "k": k}, lhs_c, rhs_c
    return _scan("difference-identity", {"n_max": n_max, "k_max": k_max}, cases())


def check_multistep_difference(n_max: int, k_max: int, m_max: int) -> IdentityCheck:
    """Integer-step difference identities, eliminating the step sum with the
    power-sum (Faulhaber) formula, which is itself re-verified exactly:

      B_n^{(k)}(m+z) - B_n^{(k)}(z)
        = sum_l C(n,l) B_{l-1}^{(k-1)}(-1) (B_{n-l+1}(m+z+1) - B_{n-l+1}(z+1))/(n-l+1)

    with the companion variant carrying B_{n-l+1}(m+z) - B_{n-l+1}(z), and

      sum_{i=0}^{m-1} (1+z+i)^p = (B_{p+1}(m+z+1) - B_{p+1}(z+1))/(p+1).
    Each B_{p+1}(z+j) is shifted once and the power sums accumulate; the
    table scan starts at m = 1, as at m = 0 both sides are 0 by construction.
    """
    def cases():
        # Faulhaber sub-check, z formal.  Its right sides are the B-variant steps
        # of the identity above; the C-variant steps are those polynomials at z - 1.
        step_b, step_c = {}, {}
        bases = [ZPolynomial({0: 1 + i, 1: 1}) for i in range(m_max)]
        powers = [ZPolynomial.constant(1)] * m_max  # (1 + z + i)^p
        for p in range(n_max + 1):
            shifted = [bernoulli_polynomial(p + 1).shift(j) for j in range(m_max + 2)]
            for mm, lhs in enumerate(itertools.accumulate(powers, initial=ZPolynomial())):
                step_b[p, mm] = (shifted[mm + 1] - shifted[1]) * Fraction(1, p + 1)
                yield {"sub": "faulhaber", "p": p, "m": mm}, lhs, step_b[p, mm]
                step_c[p, mm] = (shifted[mm] - shifted[0]) * Fraction(1, p + 1)
            powers = [w * b for w, b in zip(powers, bases)]
        tb, tc = _tables(n_max, k_max, "B"), _tables(n_max, k_max, "C")
        for k in range(2, k_max + 1):
            prev_at_m1 = [tb[k - 2].entries[l](Fraction(-1)) for l in range(n_max + 1)]
            for n in range(n_max + 1):
                cb = [binomial(n, l) * prev_at_m1[l - 1] for l in range(1, n + 1)]
                cc = [binomial(n, l) * tc[k - 2].number(l - 1) for l in range(1, n + 1)]
                for mm in range(1, m_max + 1):
                    lhs = tb[k - 1].entries[n].shift(mm) - tb[k - 1].entries[n]
                    rhs = ZPolynomial.combination((step_b[n - l, mm], c) for l, c in enumerate(cb, 1))
                    yield {"variant": "B", "n": n, "k": k, "m": mm}, lhs, rhs
                    lhs_c = tc[k - 1].entries[n].shift(mm) - tc[k - 1].entries[n]
                    rhs_c = ZPolynomial.combination((step_c[n - l, mm], c) for l, c in enumerate(cc, 1))
                    yield {"variant": "C", "n": n, "k": k, "m": mm}, lhs_c, rhs_c
    return _scan("multistep-difference", {"n_max": n_max, "k_max": k_max, "m_max": m_max}, cases())


def check_divided_difference(n_max: int, k_max: int) -> IdentityCheck:
    """The symbolic forward-difference conversion, on monomials f = z^n:

      E[f(1+z+S_k)] - E[f(z+S_k)] = E[(f(z+1+X) - f(z+1)) / X],  k >= 2,

    where S_k is the order-k poly-Bernoulli symbol, X = S_{k-1} - 1 is the
    companion symbol (so z+1+X = z+S_{k-1}), and the division is exact on the
    numerator: ((y+X)^n - y^n)/X = sum_j C(n,j) y^{n-j} X^{j-1}.  The left
    side is evaluated during its expansion (expect_power); the quotient is
    expanded before the evaluation functional is applied.  As X -> 0 the
    right side degenerates to f'(z); the k = 1 form E[f(1+z+B)] - E[f(z+B)]
    = f'(z) is checked on n = 3.
    Both left sides and the powers of X (once, those of y = z + 1) are
    expanded once per k for all n; the scan runs k outer, n inner.
    """
    def cases():
        zsym = UmbralExpression.symbol(Z)
        top = max(n_max - 1, 0)  # the largest power of y = z + 1 and of X in the quotient
        zp1_pow = list(expect_powers(zsym + 1, top, ()))
        for k in range(2, k_max + 1):
            sk = poly_symbol(k)
            comp_pow = list(expect_powers(c_symbol(k - 1), top, ()))
            upper = list(expect_powers(zsym + sk + 1, n_max))
            lower = list(expect_powers(zsym + sk, n_max))
            for n in range(n_max + 1):
                lhs = upper[n].expect() - lower[n].expect()
                quotient = UmbralExpression.combination(
                    (zp1_pow[n - j] * comp_pow[j - 1], binomial(n, j)) for j in range(1, n + 1)
                )
                yield {"n": n, "k": k}, lhs, quotient.expect()
        # k = 1 derivative case on n = 3
        b1 = UmbralExpression.symbol(bernoulli_symbol(1))
        lhs = expect_power(zsym + b1 + 1, 3).expect() - expect_power(zsym + b1, 3).expect()
        yield {"sub": "k1-derivative", "n": 3}, lhs, ZPolynomial([0, 0, 3])
    return _scan("divided-difference-extension", {"n_max": n_max, "k_max": k_max}, cases())


def check_generating_product(k_max: int, order: int = 8) -> IdentityCheck:
    """Generating-function product identity behind the companion family: with
    p_i = prod_{j=i}^{k-1} u_j, expanding  prod_{i=1}^{k} (t p_i)/(e^{t p_i}-1)
    in t with polynomial u-coefficients and integrating every u-monomial over
    the unit cube reproduces sum_n C_n^{(k)} t^n / n!, order by order.

    The product runs in the symbol ring with z playing t: each factor is
    sum_nu (B_nu / nu!) p_i^nu z^nu, and the evaluation functional integrates
    the u-monomials.  Untruncated, the coefficients of z^n for n <= order are
    those of the truncated series product.
    """
    def cases():
        for k in range(1, min(k_max, 3) + 1):
            ordk = order if k <= 2 else min(order, 6)
            ref = poly_bernoulli_series(ordk, k, "C")
            prod = UmbralExpression.constant(1)
            for i in range(1, k + 1):
                syms = [uniform_symbol(j) for j in range(i, k)] + [Z]
                prod = prod * UmbralExpression.combination(
                    (UmbralExpression.monomial(dict.fromkeys(syms, nu)), b / math.factorial(nu))
                    for nu, b in enumerate(bernoulli_numbers(ordk))
                )
            integrated = prod.expect()
            for n in range(ordk + 1):
                yield {"k": k, "n": n}, integrated.coefficient(n) * math.factorial(n), ref.number(n)
    return _scan("generating-product", {"k_max": k_max, "order": order}, cases())


# ---------------------------------------------------------------------------
# umbral axioms and table invariants


def check_cancellation(n_max: int = 30) -> IdentityCheck:
    """E[(U + B)^n] = 1 if n = 0 else 0: the two symbols annihilate."""
    def cases():
        base = UmbralExpression.symbol(uniform_symbol(1)) + UmbralExpression.symbol(
            bernoulli_symbol(1)
        )
        for n, power in enumerate(expect_powers(base, n_max)):
            yield {"n": n}, power.expect(), ZPolynomial.constant(1 if n == 0 else 0)
    return _scan("umbral-cancellation", {"n_max": n_max}, cases())


def check_periodicity(n_max: int = 30) -> IdentityCheck:
    """E[(1 + B)^n] = (-1)^n E[B^n], checked both directly and through the
    substitution B -> -B."""
    def cases():
        b1 = UmbralExpression.symbol(bernoulli_symbol(1))
        shifted, plain = list(expect_powers(b1 + 1, n_max)), list(expect_powers(b1, n_max, ()))
        for n in range(n_max + 1):
            lhs = shifted[n].expect()
            yield {"n": n, "form": "direct"}, lhs, plain[n].expect() * Fraction((-1) ** n)
            yield {"n": n, "form": "substitution"}, lhs, plain[n].substitute(bernoulli_symbol(1), -b1).expect()
    return _scan("umbral-periodicity", {"n_max": n_max}, cases())


def check_independence(bound: int = 10) -> IdentityCheck:
    """E[B_1^a B_2^b U_1^c] = B_a B_b / (c+1) for a, b, c <= bound, one expectation
    per c: the (a, b) grid is tagged by z^(a + tb), t = bound + 1, which bound <= 180
    keeps <= MAX_EXPONENT.  Only a mismatch scans a, b, c, a outermost."""
    if bound > 180:
        raise ValueError("bound must be <= 180: the z tags reach (bound + 1)^2 - 1")
    t = bound + 1
    grid = UmbralExpression.constant(1)
    for s, w in ((bernoulli_symbol(1), 1), (bernoulli_symbol(2), t)):
        grid = grid * UmbralExpression.combination(
            (UmbralExpression.monomial({s: e, Z: w * e}), 1) for e in range(t)
        )
    got = [(grid * UmbralExpression.monomial({uniform_symbol(1): c})).expect() for c in range(t)]
    bern = [bernoulli_number(e) for e in range(t)]
    want = ZPolynomial([bern[i % t] * bern[i // t] for i in range(t * t)])
    params = {"bound": bound}
    if all(g == want * Fraction(1, c + 1) for c, g in enumerate(got)):
        return IdentityCheck("umbral-independence", params)  # every case compared at once
    return _scan("umbral-independence", params, (
        ({"a": a, "b": b, "c": c}, got[c].coefficient(a + t * b), bern[a] * bern[b] * Fraction(1, c + 1))
        for a, b, c in itertools.product(range(t), repeat=3)
    ))


def check_symbol_recursion(k_max: int = 6) -> IdentityCheck:
    """poly_symbol(k) = 1 + B_k + U_{k-1} (poly_symbol(k-1) - 1), sharing the
    lower-index symbols, and c_symbol(k) = poly_symbol(k) - 1, as exact
    expression identities."""
    def cases():
        one = UmbralExpression.constant(1)
        for k in range(2, k_max + 1):
            b, u = UmbralExpression.symbol(bernoulli_symbol(k)), UmbralExpression.symbol(uniform_symbol(k - 1))
            yield {"k": k}, poly_symbol(k), one + b + u * (poly_symbol(k - 1) - one)
            yield {"k": k, "form": "companion"}, c_symbol(k), poly_symbol(k) - one
    return _scan("umbral-symbol-recursion", {"k_max": k_max}, cases())


def check_route_agreement(n_max: int, k_max: int, corrupt: bool = False) -> IdentityCheck:
    """Series, symbolic and Stirling routes agree exactly at z = 0.

    The corrupt flag is a negative-control hook: it perturbs one series entry
    and must make the check fail with a witness.
    """
    chk = IdentityCheck("route-agreement", {"n_max": n_max, "k_max": k_max, "corrupt": corrupt})
    for k in range(1, k_max + 1):
        series = poly_bernoulli_series(n_max, k, "B")
        numbers = [series.number(n) for n in range(n_max + 1)]
        if corrupt and k == 1:
            numbers[min(1, n_max)] += 1
        bad = route_disagreement(numbers, k, "B")
        if bad is not None:
            return chk.fail(
                {"n": bad["n"], "k": k},
                f"series={bad['series']}",
                f"umbral={bad['umbral']}, stirling={bad['stirling']}",
            )
    return chk


def check_classical_reduction(n_max: int = 30) -> IdentityCheck:
    """k = 1 collapse: B_n^{(1)}(z) = B_n(z+1) and C_n^{(1)}(z) = B_n(z)."""
    def cases():
        tb = poly_bernoulli_series(n_max, 1, "B")
        tc = poly_bernoulli_series(n_max, 1, "C")
        for n in range(n_max + 1):
            yield {"variant": "B", "n": n}, tb.entries[n], bernoulli_polynomial(n).shift(1)
            yield {"variant": "C", "n": n}, tc.entries[n], bernoulli_polynomial(n)
    return _scan("classical-reduction", {"n_max": n_max}, cases())


def check_companion_shift(n_max: int, k_max: int) -> IdentityCheck:
    """C_n^{(k)}(z) = B_n^{(k)}(z-1) as polynomials, plus the binomial
    conversion round trip B -> C -> B."""
    def cases():
        for k in range(1, k_max + 1):
            tb = poly_bernoulli_series(n_max, k, "B")
            tc = poly_bernoulli_series(n_max, k, "C")
            for n in range(n_max + 1):
                yield {"n": n, "k": k}, tc.entries[n], tb.entries[n].shift(-1)
            back = bc_convert(bc_convert(tb, "B->C"), "C->B")
            for n in range(n_max + 1):
                yield {"n": n, "k": k, "sub": "roundtrip"}, back.entries[n], tb.entries[n]
    return _scan("companion-shift", {"n_max": n_max, "k_max": k_max}, cases())


def check_monic_degree(n_max: int, k_max: int) -> IdentityCheck:
    """Every entry has degree exactly n with leading coefficient 1.  A table's
    entries are the lifts of its numbers, whose leading coefficient is b_0, so
    this can fail only when b_0 != 1."""
    chk = IdentityCheck("monic-degree", {"n_max": n_max, "k_max": k_max})
    for k in range(1, k_max + 1):
        for variant in ("B", "C"):
            t = poly_bernoulli_series(n_max, k, variant)
            for n in range(n_max + 1):
                p = t.entries[n]
                if p.degree != n or p.leading_coefficient() != 1:
                    return chk.fail({"n": n, "k": k, "variant": variant}, p, "monic of degree n")
    return chk


def _check_transform(name: str, row, k_first: int, n_max: int, k_max: int) -> IdentityCheck:
    """row(n_max, k, z), the transform for every n <= n_max from one
    expansion, against the series table for formal z and at z in {0, 1, -1},
    over k_first <= k <= k_max; the scan runs n outer, then formal z, 0, 1,
    -1, so it reports the failure that a per-n scan would."""
    def cases():
        points = (Fraction(0), Fraction(1), Fraction(-1))
        for k in range(k_first, k_max + 1):
            ref = poly_bernoulli_series(n_max, k, "B")
            formal = row(n_max, k)
            values = [row(n_max, k, z) for z in points]
            for n in range(n_max + 1):
                yield {"n": n, "k": k, "z": "formal"}, formal[n], ref.entries[n]
                for z, gz in zip(points, values):
                    yield {"n": n, "k": k, "z": str(z)}, gz[n], ref.entries[n](z)
    return _scan(name, {"n_max": n_max, "k_max": k_max}, cases())


def check_cube_transform(n_max: int = 12, k_max: int = 4) -> IdentityCheck:
    """Unit-cube Bernoulli-Barnes transform reproduces B_n^{(k)}(z), exactly,
    for formal z and at z in {0, 1, -1}."""
    return _check_transform("cube-transform", barnes_transform_cube_row, 1, n_max, k_max)


def check_simplex_transform(n_max: int = 10, k_max: int = 4) -> IdentityCheck:
    """Ordered-simplex representation reproduces B_n^{(k)}(z), exactly."""
    return _check_transform("simplex-transform", simplex_transform_row, 2, n_max, k_max)


# ---------------------------------------------------------------------------
# numeric spot checks: lazy streams of (witness, got, want, bound) cases,
# built from the zetanum module that _scan_within passes in


def check_moment_realization() -> IdentityCheck:
    """The sech^2 quadrature reproduces B_n for n <= 8 to 1e-10 relative."""
    def cases(zetanum):
        for n in range(9):
            r = zetanum.bernoulli_moment_quadrature(n)
            exact = float(bernoulli_number(n))
            yield {"n": n}, r.value, exact, 1e-10 * abs(exact) if exact else 1e-12
            yield {"n": n}, r.imag_residue, 0.0, 1e-9
    return _scan_within("zeta-moment-realization", {"n_max": 8}, 1e-10, cases)


def check_polygamma_bridge() -> IdentityCheck:
    """Negative k=1 moments match the polygamma closed form on both branches."""
    def cases(zetanum):
        for m in (1, 2):
            for z in (0.25, 0.75, 1.0, 2.0):
                if z > 0.5:
                    closed = (-1) ** (m - 1) / math.factorial(m - 1) * zetanum.polygamma(m, z)
                else:
                    closed = -zetanum.polygamma(m, 1 - z) / math.factorial(m - 1)
                yield {"m": m, "z": z}, zetanum.negative_moment(1, m, z).value, closed, 1e-8
    return _scan_within("zeta-polygamma-bridge", {"m_max": 2}, 1e-8, cases)


def check_reference_values() -> IdentityCheck:
    """The three k = 2 negative moments against their published six-digit
    decimal values."""
    def cases(zetanum):
        res = zetanum.negative_moment_batch(2, [1, 2, 3], 0.0)
        for m, (target, tol) in {1: (-1.20206, 5e-6), 2: (1.3529, 5e-5), 3: (-1.45884, 5e-6)}.items():
            yield {"m": m, "tol": tol}, res[m].value, target, tol
            yield {"m": m, "tol": tol}, res[m].imag_residue, 0.0, 1e-9
    return _scan_within("zeta-reference-values", {"k": 2}, 5e-5, cases)


def check_two_route_zeta() -> IdentityCheck:
    """Mellin integral vs negative-moment route for zeta_2(m), m <= 3."""
    def cases(zetanum):
        res = zetanum.negative_moment_batch(2, [1, 2, 3], 0.0)
        for m in (1, 2, 3):
            yield {"m": m}, zetanum.ak_zeta_mellin(2, m), (-1) ** m * res[m].value, 1e-6
    return _scan_within("zeta-two-route", {"k": 2, "m_max": 3}, 1e-6, cases)


def check_telescoping() -> IdentityCheck:
    """Both quadrature realizations of zeta(3) from the telescoped series;
    both within 1e-6 of zeta(3) puts them within 2e-6 of each other."""
    def cases(zetanum):
        for r in zetanum.telescoping_check(2):
            yield {"k": 2}, r.value, 1.2020569031595942854, 1e-6
    return _scan_within("zeta-telescoping", {"k": 2}, 1e-6, cases)


def check_double_integral() -> IdentityCheck:
    """The two-axis sech^2 integral of the weight-(3,1) starred value agrees
    with its closed form pi^4/72 and with zeta_2(2) from the moment kernel.

    Both quadratures integrate the unit-interval axis in closed form, so the
    closed form is the independent side of the check."""
    def cases(zetanum):
        two = zetanum.zeta_star_3_1_double().value
        yield {"sub": "closed-form"}, two, math.pi**4 / 72, 1e-6
        yield {}, two, zetanum.negative_moment(2, 2, 0.0).value, 1e-6
    return _scan_within("zeta-double-integral", {"weight": "(3,1)"}, 1e-6, cases)


# ---------------------------------------------------------------------------


def run_all(config: VerifyConfig | None = None) -> VerificationReport:
    """Run the selected suite; check order in the report is fixed by name."""
    config = config or VerifyConfig()
    n, k, m = config.n_max, config.k_max, config.m_max
    checks: list[IdentityCheck] = []
    want = config.suite

    if want in ("all", "umbral"):
        checks.append(check_cancellation(30))
        checks.append(check_periodicity(30))
        checks.append(check_independence(10))
        checks.append(check_symbol_recursion(6))
    if want in ("all", "recurrence"):
        checks.append(check_order_reduction(n, k))
        # the refuting counterexample sits at n = 1, k = 2, so never scan less
        checks.append(check_refuted_variant(max(1, min(n, 6)), max(2, min(k, 3))))
        checks.append(check_connection(n, k))
        checks.append(check_difference(n, k))
        checks.append(check_multistep_difference(n, k, m))
        checks.append(check_divided_difference(n, k))
    if want in ("all", "transforms"):
        checks.append(check_route_agreement(n, k, corrupt=config.corrupt))
        checks.append(check_classical_reduction(30))
        checks.append(check_companion_shift(n, k))
        checks.append(check_monic_degree(n, k))
        checks.append(check_cube_transform(min(n, 12), k))
        checks.append(check_simplex_transform(min(n, 10), k))
        checks.append(check_generating_product(k, 8))
    if want in ("all", "zeta"):
        checks.append(check_moment_realization())
        checks.append(check_polygamma_bridge())
        checks.append(check_reference_values())
        checks.append(check_two_route_zeta())
        checks.append(check_telescoping())
        checks.append(check_double_integral())

    checks.sort(key=lambda c: c.name)
    return VerificationReport(checks, config)

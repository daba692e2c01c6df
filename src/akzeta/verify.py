"""Executable identity checks for the poly-Bernoulli family.

Every recurrence, connection relation, difference identity and integral
transform is run either as an exact coefficient-wise polynomial comparison
(never sampled at points, never floating) or, for the numerical layer, as a
comparison within an explicitly recorded tolerance.  Results aggregate into a
structured report whose JSON rendering is byte-stable for a fixed
configuration.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .exact import (
    ZPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
)
from .polybernoulli import (
    PolyBernoulliTable,
    barnes_transform_cube,
    bc_convert,
    poly_bernoulli_series,
    route_disagreement,
    simplex_transform,
)
from .umbral import (
    UmbralExpression,
    Z,
    bernoulli_symbol,
    c_symbol,
    expr_power,
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
    """Grid bounds for the identity checks; defaults keep the full run under
    a couple of minutes."""

    n_max: int = 15
    k_max: int = 4
    m_max: int = 5
    suite: str = "all"
    corrupt: bool = False  # test hook: inject a corrupted table entry

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"suite must be one of {SUITES}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class IdentityCheck:
    name: str
    params: dict
    status: str = "pass"  # pass | fail | skip
    witness: dict | None = None
    lhs: str | None = None
    rhs: str | None = None
    tolerance: float | None = None  # recorded for numeric checks, None when exact

    def fail(self, witness: dict, lhs=None, rhs=None) -> "IdentityCheck":
        self.status = "fail"
        self.witness = witness
        self.lhs = None if lhs is None else str(lhs)
        self.rhs = None if rhs is None else str(rhs)
        return self

    def to_json(self) -> dict:
        out = {"name": self.name, "params": self.params, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.lhs is not None:
            out["lhs"] = self.lhs
            out["rhs"] = self.rhs
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


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

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

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


# ---------------------------------------------------------------------------
# exact recurrence checks


def _tables(n_max: int, k_max: int, variant: str) -> list[PolyBernoulliTable]:
    return [poly_bernoulli_series(n_max, k, variant) for k in range(1, k_max + 1)]


def check_order_reduction(n_max: int, k_max: int) -> IdentityCheck:
    """The order-lowering recurrence expressing B_n^{(k)}(z) through the
    (k-1)-family and shifted Bernoulli polynomials, plus its companion form:

      B_n^{(k)}(z) = sum_m C(n,m) B_{n-m}^{(k-1)} sum_l C(m,l) (-1)^{m-l} B_l(z+1)/(n-l+1)
      C_n^{(k)}(z) = sum_m C(n,m) B_m(z) C_{n-m}^{(k-1)} / (n-m+1)
    """
    chk = IdentityCheck("recurrence-order-reduction", {"n_max": n_max, "k_max": k_max})
    tb = _tables(n_max, k_max, "B")
    tc = _tables(n_max, k_max, "C")
    bshift = [bernoulli_polynomial(l).shift(1) for l in range(n_max + 1)]
    bpoly = [bernoulli_polynomial(l) for l in range(n_max + 1)]
    for k in range(2, k_max + 1):
        for n in range(n_max + 1):
            rhs = ZPolynomial()
            for m in range(n + 1):
                inner = ZPolynomial()
                for l in range(m + 1):
                    c = Fraction(binomial(m, l) * (-1) ** (m - l), n - l + 1)
                    inner = inner + bshift[l] * c
                rhs = rhs + inner * (binomial(n, m) * tb[k - 2].number(n - m))
            lhs = tb[k - 1].entries[n]
            if lhs != rhs:
                return chk.fail({"variant": "B", "n": n, "k": k}, lhs, rhs)
            rhs_c = ZPolynomial()
            for m in range(n + 1):
                c = Fraction(binomial(n, m), n - m + 1) * tc[k - 2].number(n - m)
                rhs_c = rhs_c + bpoly[m] * c
            lhs_c = tc[k - 1].entries[n]
            if lhs_c != rhs_c:
                return chk.fail({"variant": "C", "n": n, "k": k}, lhs_c, rhs_c)
    return chk


def check_refuted_variant(n_max: int = 6, k_max: int = 3) -> IdentityCheck:
    """The published variant of the order-lowering recurrence with B_l(z) in
    place of B_l(z+1) is numerically incorrect; this check *passes* when it
    finds a concrete counterexample for each sign reading of the transcribed
    formula, and fails if any reading agrees everywhere on the grid.

    Reading 1 keeps the printed signs (-1)^m ... (-1)^l; reading 2 drops the
    inner sign (the transcription is ambiguous about its placement).
    """
    cases = (n_max + 1) * max(k_max - 1, 0) * 2
    chk = IdentityCheck(
        "recurrence-variant-refuted",
        {"n_max": n_max, "k_max": k_max, "cases_scanned": cases},
    )
    tb = _tables(n_max, k_max, "B")
    bpoly = [bernoulli_polynomial(l) for l in range(n_max + 1)]
    witnesses = {}
    for reading in (1, 2):
        found = None
        for k in range(2, k_max + 1):
            for n in range(n_max + 1):
                rhs = ZPolynomial()
                for m in range(n + 1):
                    inner = ZPolynomial()
                    for l in range(m + 1):
                        sign = (-1) ** l if reading == 1 else 1
                        c = Fraction(binomial(m, l) * sign, n - l + 1)
                        inner = inner + bpoly[l] * c
                    rhs = rhs + inner * (binomial(n, m) * (-1) ** m * tb[k - 2].number(n - m))
                if tb[k - 1].entries[n] != rhs:
                    found = {"n": n, "k": k, "got": str(rhs), "expected": str(tb[k - 1].entries[n])}
                    break
            if found:
                break
        if found is None:
            return chk.fail({"reading": reading, "note": "no counterexample in range"})
        witnesses[f"reading_{reading}"] = found
    chk.witness = witnesses  # witnesses of refutation, status stays "pass"
    return chk


def check_connection(n_max: int, k_max: int) -> IdentityCheck:
    """Connection relation through values at -1, plus the equivalent
    expansion of the companion family in Bernoulli polynomials:

      B_n^{(k)}(z) = (1/(n+1)) sum_l C(n+1,l+1) B_{n-l}(z+1) B_l^{(k-1)}(-1)
      C_n^{(k)}(z) = (1/(n+1)) sum_l C(n+1,l+1) B_{n-l}(z)   C_l^{(k-1)}
      C_n^{(k)}(z) = (1/(n+1)) sum_p C(n+1,p) C_{p-1}^{(k-1)} B_{n-p+1}(z)
    """
    chk = IdentityCheck("connection-relation", {"n_max": n_max, "k_max": k_max})
    tb = _tables(n_max, k_max, "B")
    tc = _tables(n_max, k_max, "C")
    bshift = [bernoulli_polynomial(l).shift(1) for l in range(n_max + 1)]
    bpoly = [bernoulli_polynomial(l) for l in range(n_max + 1)]
    for k in range(2, k_max + 1):
        prev_at_m1 = [tb[k - 2].entries[l](Fraction(-1)) for l in range(n_max + 1)]
        for n in range(n_max + 1):
            rhs = ZPolynomial()
            rhs_c = ZPolynomial()
            for l in range(n + 1):
                c = Fraction(binomial(n + 1, l + 1), n + 1)
                rhs = rhs + bshift[n - l] * (c * prev_at_m1[l])
                rhs_c = rhs_c + bpoly[n - l] * (c * tc[k - 2].number(l))
            if tb[k - 1].entries[n] != rhs:
                return chk.fail({"variant": "B", "n": n, "k": k}, tb[k - 1].entries[n], rhs)
            if tc[k - 1].entries[n] != rhs_c:
                return chk.fail({"variant": "C", "n": n, "k": k}, tc[k - 1].entries[n], rhs_c)
            # periodic-expansion form, re-indexed with p = l + 1
            rhs_f = ZPolynomial()
            for p in range(1, n + 2):
                c = Fraction(binomial(n + 1, p), n + 1)
                rhs_f = rhs_f + bpoly[n - p + 1] * (c * tc[k - 2].number(p - 1))
            if tc[k - 1].entries[n] != rhs_f:
                return chk.fail({"variant": "C-fourier", "n": n, "k": k}, tc[k - 1].entries[n], rhs_f)
    return chk


def check_difference(n_max: int, k_max: int) -> IdentityCheck:
    """One-step difference identities:

      B_n^{(k)}(z) - B_n^{(k)}(z-1) = sum_{l>=1} C(n,l) z^{n-l} B_{l-1}^{(k-1)}(-1)
      C_n^{(k)}(z+1) - C_n^{(k)}(z) = sum_{l>=1} C(n,l) z^{n-l} C_{l-1}^{(k-1)}
    """
    chk = IdentityCheck("difference-identity", {"n_max": n_max, "k_max": k_max})
    tb = _tables(n_max, k_max, "B")
    tc = _tables(n_max, k_max, "C")
    for k in range(2, k_max + 1):
        prev_at_m1 = [tb[k - 2].entries[l](Fraction(-1)) for l in range(n_max + 1)]
        for n in range(n_max + 1):
            lhs = tb[k - 1].entries[n] - tb[k - 1].entries[n].shift(-1)
            # the coefficient of z^{n-l} is the l-th term, so list l from n down
            rhs = ZPolynomial([binomial(n, l) * prev_at_m1[l - 1] for l in range(n, 0, -1)])
            if lhs != rhs:
                return chk.fail({"variant": "B", "n": n, "k": k}, lhs, rhs)
            lhs_c = tc[k - 1].entries[n].shift(1) - tc[k - 1].entries[n]
            rhs_c = ZPolynomial([binomial(n, l) * tc[k - 2].number(l - 1) for l in range(n, 0, -1)])
            if lhs_c != rhs_c:
                return chk.fail({"variant": "C", "n": n, "k": k}, lhs_c, rhs_c)
    return chk


def check_multistep_difference(n_max: int, k_max: int, m_max: int) -> IdentityCheck:
    """Integer-step difference identities, eliminating the step sum with the
    power-sum (Faulhaber) formula, which is itself re-verified exactly:

      B_n^{(k)}(m+z) - B_n^{(k)}(z)
        = sum_l C(n,l) B_{l-1}^{(k-1)}(-1) (B_{n-l+1}(m+z+1) - B_{n-l+1}(z+1))/(n-l+1)

    with the companion variant carrying B_{n-l+1}(m+z) - B_{n-l+1}(z), and

      sum_{i=0}^{m-1} (1+z+i)^p = (B_{p+1}(m+z+1) - B_{p+1}(z+1))/(p+1).
    """
    chk = IdentityCheck(
        "multistep-difference", {"n_max": n_max, "k_max": k_max, "m_max": m_max}
    )
    # Faulhaber sub-check, z formal.  Its right sides are the B-variant steps
    # of the identity above; the C-variant steps are those polynomials at z - 1.
    step_b, step_c = {}, {}
    for p in range(n_max + 1):
        bp1 = bernoulli_polynomial(p + 1)
        for mm in range(m_max + 1):
            lhs = ZPolynomial()
            for i in range(mm):
                lhs = lhs + ZPolynomial([Fraction(1 + i), Fraction(1)]) ** p
            rhs = (bp1.shift(mm + 1) - bp1.shift(1)) * Fraction(1, p + 1)
            if lhs != rhs:
                return chk.fail({"sub": "faulhaber", "p": p, "m": mm}, lhs, rhs)
            step_b[p, mm] = rhs
            step_c[p, mm] = (bp1.shift(mm) - bp1) * Fraction(1, p + 1)
    tb = _tables(n_max, k_max, "B")
    tc = _tables(n_max, k_max, "C")
    for k in range(2, k_max + 1):
        prev_at_m1 = [tb[k - 2].entries[l](Fraction(-1)) for l in range(n_max + 1)]
        for n in range(n_max + 1):
            for mm in range(m_max + 1):
                lhs = tb[k - 1].entries[n].shift(mm) - tb[k - 1].entries[n]
                rhs = ZPolynomial()
                for l in range(1, n + 1):
                    rhs = rhs + step_b[n - l, mm] * (binomial(n, l) * prev_at_m1[l - 1])
                if lhs != rhs:
                    return chk.fail({"variant": "B", "n": n, "k": k, "m": mm}, lhs, rhs)
                lhs_c = tc[k - 1].entries[n].shift(mm) - tc[k - 1].entries[n]
                rhs_c = ZPolynomial()
                for l in range(1, n + 1):
                    rhs_c = rhs_c + step_c[n - l, mm] * (binomial(n, l) * tc[k - 2].number(l - 1))
                if lhs_c != rhs_c:
                    return chk.fail({"variant": "C", "n": n, "k": k, "m": mm}, lhs_c, rhs_c)
    return chk


def check_divided_difference(n_max: int, k_max: int) -> IdentityCheck:
    """The symbolic forward-difference conversion, on monomials f = z^n:

      E[f(1+z+S_k)] - E[f(z+S_k)] = E[(f(z+1+X) - f(z+1)) / X],  k >= 2,

    where S_k is the order-k poly-Bernoulli symbol, X = S_{k-1} - 1 is the
    companion symbol (so z+1+X = z+S_{k-1}), and the division is exact on the
    numerator: ((y+X)^n - y^n)/X = sum_j C(n,j) y^{n-j} X^{j-1}.  The quotient
    is expanded before the evaluation functional is applied.  As X -> 0 the
    right side degenerates to f'(z); the k = 1 form E[f(1+z+B)] - E[f(z+B)]
    = f'(z) is checked on n = 3.
    """
    chk = IdentityCheck("divided-difference-extension", {"n_max": n_max, "k_max": k_max})
    zsym = UmbralExpression.symbol(Z)
    zp1 = zsym + UmbralExpression.constant(1)
    for k in range(2, k_max + 1):
        sk = poly_symbol(k)
        comp = c_symbol(k - 1)
        comp_pow = [UmbralExpression.constant(1)]
        for _ in range(n_max):
            comp_pow.append(comp_pow[-1] * comp)
        for n in range(n_max + 1):
            lhs = expr_power(zsym + sk + 1, n).expect() - expr_power(zsym + sk, n).expect()
            quotient = UmbralExpression()
            for j in range(1, n + 1):
                yj = expr_power(zp1, n - j)
                quotient = quotient + yj * comp_pow[j - 1] * Fraction(binomial(n, j))
            rhs = quotient.expect()
            if lhs != rhs:
                return chk.fail({"n": n, "k": k}, lhs, rhs)
    # k = 1 derivative case on n = 3
    b1 = UmbralExpression.symbol(bernoulli_symbol(1))
    lhs = expr_power(zsym + b1 + 1, 3).expect() - expr_power(zsym + b1, 3).expect()
    if lhs != ZPolynomial([0, 0, 3]):
        return chk.fail({"sub": "k1-derivative", "n": 3}, lhs, ZPolynomial([0, 0, 3]))
    return chk


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
    chk = IdentityCheck("generating-product", {"k_max": k_max, "order": order})
    for k in range(1, min(k_max, 3) + 1):
        ordk = order if k <= 2 else min(order, 6)
        ref = poly_bernoulli_series(ordk, k, "C")
        prod = UmbralExpression.constant(1)
        for i in range(1, k + 1):
            factor = UmbralExpression()
            for nu in range(ordk + 1):
                expos = {uniform_symbol(j): nu for j in range(i, k)}
                expos[Z] = nu
                factor = factor + UmbralExpression.monomial(
                    expos, bernoulli_number(nu) / math.factorial(nu)
                )
            prod = prod * factor
        integrated = prod.expect()
        for n in range(ordk + 1):
            got = integrated.coefficient(n) * math.factorial(n)
            if got != ref.number(n):
                return chk.fail({"k": k, "n": n}, got, ref.number(n))
    return chk


# ---------------------------------------------------------------------------
# umbral axioms and table invariants


def check_cancellation(n_max: int = 30) -> IdentityCheck:
    """E[(U + B)^n] = 1 if n = 0 else 0: the two symbols annihilate."""
    chk = IdentityCheck("umbral-cancellation", {"n_max": n_max})
    base = UmbralExpression.symbol(uniform_symbol(1)) + UmbralExpression.symbol(
        bernoulli_symbol(1)
    )
    for n in range(n_max + 1):
        got = expr_power(base, n).expect()
        want = ZPolynomial.constant(1 if n == 0 else 0)
        if got != want:
            return chk.fail({"n": n}, got, want)
    return chk


def check_periodicity(n_max: int = 30) -> IdentityCheck:
    """E[(1 + B)^n] = (-1)^n E[B^n], checked both directly and through the
    substitution B -> -B."""
    chk = IdentityCheck("umbral-periodicity", {"n_max": n_max})
    b1 = UmbralExpression.symbol(bernoulli_symbol(1))
    for n in range(n_max + 1):
        lhs = expr_power(b1 + 1, n).expect()
        rhs = expr_power(b1, n).expect() * Fraction((-1) ** n)
        if lhs != rhs:
            return chk.fail({"n": n, "form": "direct"}, lhs, rhs)
        neg = expr_power(b1, n).substitute(bernoulli_symbol(1), -b1).expect()
        if lhs != neg:
            return chk.fail({"n": n, "form": "substitution"}, lhs, neg)
    return chk


def check_independence(bound: int = 10) -> IdentityCheck:
    """E[B_1^a B_2^b U_1^c] factorizes as B_a B_b / (c+1)."""
    chk = IdentityCheck("umbral-independence", {"bound": bound})
    for a in range(bound + 1):
        for b in range(bound + 1):
            for c in range(bound + 1):
                expr = UmbralExpression.monomial(
                    {bernoulli_symbol(1): a, bernoulli_symbol(2): b, uniform_symbol(1): c}
                )
                got = expr.expect().coefficient(0)
                want = bernoulli_number(a) * bernoulli_number(b) * Fraction(1, c + 1)
                if got != want:
                    return chk.fail({"a": a, "b": b, "c": c}, got, want)
    return chk


def check_symbol_recursion(k_max: int = 6) -> IdentityCheck:
    """poly_symbol(k) = 1 + B_k + U_{k-1} (poly_symbol(k-1) - 1), sharing the
    lower-index symbols, as an exact expression identity."""
    chk = IdentityCheck("umbral-symbol-recursion", {"k_max": k_max})
    for k in range(2, k_max + 1):
        rhs = (
            UmbralExpression.constant(1)
            + UmbralExpression.symbol(bernoulli_symbol(k))
            + UmbralExpression.symbol(uniform_symbol(k - 1))
            * (poly_symbol(k - 1) - UmbralExpression.constant(1))
        )
        if poly_symbol(k) != rhs:
            return chk.fail({"k": k}, poly_symbol(k).render(), rhs.render())
        if c_symbol(k) != poly_symbol(k) - UmbralExpression.constant(1):
            return chk.fail({"k": k, "form": "companion"})
    return chk


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
    chk = IdentityCheck("classical-reduction", {"n_max": n_max})
    tb = poly_bernoulli_series(n_max, 1, "B")
    tc = poly_bernoulli_series(n_max, 1, "C")
    for n in range(n_max + 1):
        if tb.entries[n] != bernoulli_polynomial(n).shift(1):
            return chk.fail({"variant": "B", "n": n}, tb.entries[n], bernoulli_polynomial(n).shift(1))
        if tc.entries[n] != bernoulli_polynomial(n):
            return chk.fail({"variant": "C", "n": n}, tc.entries[n], bernoulli_polynomial(n))
    return chk


def check_companion_shift(n_max: int, k_max: int) -> IdentityCheck:
    """C_n^{(k)}(z) = B_n^{(k)}(z-1) as polynomials, plus the binomial
    conversion round trip B -> C -> B."""
    chk = IdentityCheck("companion-shift", {"n_max": n_max, "k_max": k_max})
    for k in range(1, k_max + 1):
        tb = poly_bernoulli_series(n_max, k, "B")
        tc = poly_bernoulli_series(n_max, k, "C")
        for n in range(n_max + 1):
            if tc.entries[n] != tb.entries[n].shift(-1):
                return chk.fail({"n": n, "k": k}, tc.entries[n], tb.entries[n].shift(-1))
        back = bc_convert(bc_convert(tb, "B->C"), "C->B")
        for n in range(n_max + 1):
            if back.entries[n] != tb.entries[n]:
                return chk.fail({"n": n, "k": k, "sub": "roundtrip"}, back.entries[n], tb.entries[n])
    return chk


def check_monic_degree(n_max: int, k_max: int) -> IdentityCheck:
    """Every entry has degree exactly n with leading coefficient 1."""
    chk = IdentityCheck("monic-degree", {"n_max": n_max, "k_max": k_max})
    for k in range(1, k_max + 1):
        for variant in ("B", "C"):
            t = poly_bernoulli_series(n_max, k, variant)
            for n in range(n_max + 1):
                p = t.entries[n]
                if p.degree != n or p.leading_coefficient() != 1:
                    return chk.fail({"n": n, "k": k, "variant": variant}, p, "monic of degree n")
    return chk


def _check_transform(name: str, transform, k_first: int, n_max: int, k_max: int) -> IdentityCheck:
    """transform(n, k) against the series table, for formal z and at z in
    {0, 1, -1}, over k_first <= k <= k_max and n <= n_max."""
    chk = IdentityCheck(name, {"n_max": n_max, "k_max": k_max})
    for k in range(k_first, k_max + 1):
        ref = poly_bernoulli_series(n_max, k, "B")
        for n in range(n_max + 1):
            got = transform(n, k)
            if got != ref.entries[n]:
                return chk.fail({"n": n, "k": k, "z": "formal"}, got, ref.entries[n])
            for z in (Fraction(0), Fraction(1), Fraction(-1)):
                gz = transform(n, k, z)
                if gz != ref.entries[n](z):
                    return chk.fail({"n": n, "k": k, "z": str(z)}, gz, ref.entries[n](z))
    return chk


def check_cube_transform(n_max: int = 12, k_max: int = 4) -> IdentityCheck:
    """Unit-cube Bernoulli-Barnes transform reproduces B_n^{(k)}(z), exactly,
    for formal z and at z in {0, 1, -1}."""
    return _check_transform("cube-transform", barnes_transform_cube, 1, n_max, k_max)


def check_simplex_transform(n_max: int = 10, k_max: int = 4) -> IdentityCheck:
    """Ordered-simplex representation reproduces B_n^{(k)}(z), exactly."""
    return _check_transform("simplex-transform", simplex_transform, 2, n_max, k_max)


# ---------------------------------------------------------------------------
# numeric spot checks (tolerances recorded in the check); each imports
# zetanum itself, so numpy loads only when a zeta check runs


def check_moment_realization() -> IdentityCheck:
    """The sech^2 quadrature reproduces B_n for n <= 8 to 1e-10 relative."""
    from . import zetanum

    chk = IdentityCheck("zeta-moment-realization", {"n_max": 8}, tolerance=1e-10)
    for n in range(9):
        r = zetanum.bernoulli_moment_quadrature(n)
        exact = float(bernoulli_number(n))
        if exact == 0.0:
            ok = abs(r.value) < 1e-12
        else:
            ok = abs(r.value - exact) / abs(exact) < 1e-10
        if not ok or r.imag_residue > 1e-9:
            return chk.fail({"n": n}, r.value, exact)
    return chk


def check_polygamma_bridge() -> IdentityCheck:
    """Negative k=1 moments match the polygamma closed form on both branches."""
    from . import zetanum

    chk = IdentityCheck("zeta-polygamma-bridge", {"m_max": 2}, tolerance=1e-8)
    for m in (1, 2):
        for z in (0.25, 0.75, 1.0, 2.0):
            r = zetanum.negative_moment(1, m, z)
            if z > 0.5:
                closed = (-1) ** (m - 1) / math.factorial(m - 1) * zetanum.polygamma(m, z)
            else:
                closed = -zetanum.polygamma(m, 1 - z) / math.factorial(m - 1)
            if abs(r.value - closed) > 1e-8:
                return chk.fail({"m": m, "z": z}, r.value, closed)
    return chk


def check_reference_values() -> IdentityCheck:
    """The three k = 2 negative moments against their published six-digit
    decimal values."""
    from . import zetanum

    chk = IdentityCheck("zeta-reference-values", {"k": 2}, tolerance=5e-5)
    res = zetanum.negative_moment_batch(2, [1, 2, 3], 0.0)
    targets = {1: (-1.20206, 5e-6), 2: (1.3529, 5e-5), 3: (-1.45884, 5e-6)}
    for m, (target, tol) in targets.items():
        r = res[m]
        if abs(r.value - target) > tol or r.imag_residue > 1e-9 or r.levels_used > 3:
            return chk.fail({"m": m, "tol": tol}, r.value, target)
    return chk


def check_two_route_zeta() -> IdentityCheck:
    """Mellin integral vs negative-moment route for zeta_2(m), m <= 3."""
    from . import zetanum

    chk = IdentityCheck("zeta-two-route", {"k": 2, "m_max": 3}, tolerance=1e-6)
    res = zetanum.negative_moment_batch(2, [1, 2, 3], 0.0)
    for m in (1, 2, 3):
        mellin = zetanum.ak_zeta_mellin(2, m)
        moment = (-1) ** m * res[m].value
        if abs(mellin - moment) > 1e-6:
            return chk.fail({"m": m}, mellin, moment)
    return chk


def check_telescoping() -> IdentityCheck:
    """Both quadrature realizations of zeta(3) from the telescoped series."""
    from . import zetanum

    chk = IdentityCheck("zeta-telescoping", {"k": 2}, tolerance=1e-6)
    z3 = 1.2020569031595942854
    a, b = zetanum.telescoping_check(2)
    if abs(a.value - z3) > 1e-6 or abs(b.value - z3) > 1e-6:
        return chk.fail({"k": 2}, (a.value, b.value), z3)
    if abs(a.value - b.value) > 2e-6:
        return chk.fail({"k": 2, "sub": "mutual"}, a.value, b.value)
    return chk


def check_double_integral() -> IdentityCheck:
    """The two-axis sech^2 integral of the weight-(3,1) starred value agrees
    with its closed form pi^4/72 and with zeta_2(2) from the moment kernel.

    Both quadratures integrate the unit-interval axis in closed form, so the
    closed form is the independent side of the check."""
    from . import zetanum

    chk = IdentityCheck("zeta-double-integral", {"weight": "(3,1)"}, tolerance=1e-6)
    two = zetanum.zeta_star_3_1_double()
    closed = math.pi**4 / 72
    if abs(two.value - closed) > 1e-6:
        return chk.fail({"sub": "closed-form"}, two.value, closed)
    moment = zetanum.negative_moment(2, 2, 0.0)
    if abs(two.value - moment.value) > 1e-6:
        return chk.fail({}, two.value, moment.value)
    return chk


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
        checks.append(check_refuted_variant(min(n, 6), min(k, 3)))
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

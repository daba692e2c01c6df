"""Exact layer: independent oracles for the generators, ring laws for
polynomials, and the integer EGF composition egf_compose against Fraction
references; egf_compose is in turn the oracle of polybernoulli._li_composed."""
import itertools
import math
import operator
import sys
import threading
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akzeta import exact, polybernoulli
from akzeta.exact import (
    ZPolynomial,
    bernoulli_numbers,
    bernoulli_polynomial,
    bernoulli_number,
    binomial,
    integer_numerators,
    rational_to_json,
    stirling2,
    stirling_row,
)
from akzeta.umbral import UmbralExpression, Z

# --- independent oracles -----------------------------------------------------


def series_reciprocal_oracle(coeffs, order):
    """Solve q * c = 1 coefficient by coefficient; standalone on purpose."""
    out = [Fraction(1) / coeffs[0]]
    for n in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, n + 1):
            s += coeffs[j] * out[n - j]
        out.append(-s / coeffs[0])
    return out


def series_mul_reference(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def series_compose_reference(outer, inner, order):
    """outer(inner) by Horner's rule, term by term in Fraction arithmetic."""
    acc = [Fraction(outer[order])] + [Fraction(0)] * order
    for j in range(order - 1, -1, -1):
        acc = series_mul_reference(acc, inner, order)
        acc[0] += outer[j]
    return acc


# Horner over integer binomial convolutions, O(n^3): the reference for the
# series route's e^{-it} Horner
def egf_compose(outer: Sequence, inner: tuple[Sequence[int], int]) -> tuple[list[int], int]:
    """The truncated composition outer(inner) as EGF numerators (x, D), D > 0.

    outer holds rationals, the ordinary coefficients of t^0, t^1, ...; inner
    is (g, d), its EGF numerators n! [t^n] inner = g_n / d over d > 0, and
    needs g_0 = 0.  The result runs through t^n for n + 1 the shorter length.

    Horner's rule: with outer's c_n = P_n / L, the n!-scaled coefficients of
    every Horner partial sum are integers over L d^j, so each step is one
    integer binomial convolution.
    """
    g, d = inner
    if g[0]:
        raise ValueError("composition requires inner constant term zero")
    n = min(len(outer), len(g)) - 1
    p, scale = integer_numerators(outer[: n + 1])
    # the n!-scaled product acc * g at t^s is sum_{i<s} C(s,i) acc_i g_{s-i}
    weights = [[math.comb(s, i) * g[s - i] for i in range(s)] for s in range(n + 1)]
    # acc = sum_{l>=j} a_l g^{l-j}; inner's valuation >= 1 makes every later
    # Horner step a multiplication by t or more, so t^0..t^{n-j} suffice
    acc = [p[n]]
    dpow = 1
    for j in range(n - 1, -1, -1):
        dpow *= d
        acc = [p[j] * dpow] + [
            sum(map(operator.mul, weights[s], acc)) for s in range(1, n - j + 1)
        ]
    return acc, scale * dpow


def bernoulli_recurrence_oracle(n_max):
    """B_0..B_n_max by sum_{j<n} C(n+1, j) B_j + (n+1) B_n = 0, one Fraction
    addition per term: the reference for the cache's rows summed over one lcm."""
    vals = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = Fraction(0)
        for j in range(n):
            s += math.comb(n + 1, j) * vals[j]
        vals.append(-s / (n + 1))
    return vals


def bernoulli_oracle(n_max):
    """B_n as n! times the reciprocal of (e^t - 1)/t."""
    body = [Fraction(1, math.factorial(i + 1)) for i in range(n_max + 1)]
    rec = series_reciprocal_oracle(body, n_max)
    return [rec[n] * math.factorial(n) for n in range(n_max + 1)]


def bernoulli_polynomial_oracle(n):
    """n! times the t^n coefficient of e^{zt} t/(e^t - 1), per z-degree."""
    bern = bernoulli_oracle(n)
    coeffs = []
    for j in range(n + 1):  # degree j in z comes from e^{zt}'s t^j/j!
        c = bern[n - j] / math.factorial(n - j) / math.factorial(j)
        coeffs.append(c * math.factorial(n))
    return ZPolynomial(coeffs)


class DensePolynomial:
    """The dense Fraction-per-coefficient polynomial that ZPolynomial's
    integer-numerator layout replaced, kept as the reference: coefficients
    low degree to high, trailing zeros trimmed."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def _zip(self, other, op):
        other = other if isinstance(other, DensePolynomial) else DensePolynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return DensePolynomial([op(self.coefficient(i), other.coefficient(i)) for i in range(n)])

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __rsub__(self, other):
        return DensePolynomial([other]) - self

    def __mul__(self, other):
        if not isinstance(other, DensePolynomial):
            return DensePolynomial([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DensePolynomial(out)

    def __pow__(self, n):
        out = DensePolynomial([1])
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, x):
        acc = DensePolynomial() if isinstance(x, DensePolynomial) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a):
        """p(z + a) by the Taylor shift in Fractions."""
        c = list(self.coeffs)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += a * c[j + 1]
        return DensePolynomial(c)

    def __eq__(self, other):
        other = other if isinstance(other, DensePolynomial) else DensePolynomial([other])
        return self.coeffs == other.coeffs

    def to_json(self):
        return [rational_to_json(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
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
        return " ".join(parts)


def partitions_into_blocks(n, m):
    """Count set partitions of {0..n-1} into m nonempty blocks, brute force."""
    count = 0
    for assignment in itertools.product(range(m), repeat=n):
        used = set(assignment)
        if len(used) == m:
            # canonical: block labels appear in first-use order
            first = {}
            ok = True
            for x in assignment:
                if x not in first:
                    if x != len(first):
                        ok = False
                        break
                    first[x] = True
            if ok:
                count += 1
    return count


# --- generators ---------------------------------------------------------------


def test_bernoulli_trivial_and_derived():
    assert bernoulli_numbers(0) == [Fraction(1)]
    assert bernoulli_numbers(2) == [Fraction(1), Fraction(-1, 2), Fraction(1, 6)]
    assert bernoulli_numbers(12)[-1] == Fraction(-691, 2730)
    assert bernoulli_numbers(30) == bernoulli_oracle(30)


def test_bernoulli_rows_match_fraction_recurrence():
    assert bernoulli_numbers(200) == bernoulli_recurrence_oracle(200)


def test_bernoulli_odd_vanish():
    B = bernoulli_numbers(29)
    for n in range(3, 30, 2):
        assert B[n] == 0


def test_bernoulli_polynomial_examples():
    assert bernoulli_polynomial(0) == ZPolynomial([1])
    assert bernoulli_polynomial(1) == bernoulli_polynomial_oracle(1)
    assert bernoulli_polynomial(1) == ZPolynomial([Fraction(-1, 2), 1])
    assert bernoulli_polynomial(2) == bernoulli_polynomial_oracle(2)
    assert bernoulli_polynomial(2) == ZPolynomial([Fraction(1, 6), -1, 1])


def test_bernoulli_polynomial_special_values():
    B = bernoulli_numbers(30)
    for n in range(31):
        p = bernoulli_polynomial(n)
        assert p(Fraction(0)) == B[n]
        assert p(Fraction(1)) == (-1) ** n * B[n]


def test_stirling_examples():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 5) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(4, 2) == partitions_into_blocks(4, 2)
    for n in range(7):
        for m in range(n + 1):
            if 0 < m:
                assert stirling2(n, m) == partitions_into_blocks(n, m)
    assert stirling2(3, 5) == 0
    assert stirling_row(4) == (0, 1, 7, 6, 1)
    with pytest.raises(ValueError):
        stirling_row(-1)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(10, 5) == 252
    assert binomial(4, -1) == 0
    assert binomial(4, 9) == 0
    # Pascal triangle oracle
    row = [1]
    for n in range(1, 12):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        for m, v in enumerate(row):
            assert binomial(n, m) == v
    with pytest.raises(ValueError):
        binomial(-1, 0)


# --- polynomials ---------------------------------------------------------------


def test_zpolynomial_basics():
    p = ZPolynomial([1, 2, 1])
    q = ZPolynomial([0, 1])
    assert (p * q).degree == 3
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert p.shift(1) == ZPolynomial([4, 4, 1])
    assert ZPolynomial([1, 0, 0]).degree == 0
    assert ZPolynomial().is_zero()
    assert (p - p).is_zero()
    assert hash(p) == hash(ZPolynomial([Fraction(2, 2), 2, 1]))
    assert p.leading_coefficient() == 1 and ZPolynomial().leading_coefficient() == 0


def test_zpolynomial_canonical_form():
    half = ZPolynomial([Fraction(2, 4), 0, Fraction(-3, 2)])
    assert (half.terms, half.den) == ({0: 1, 2: -3}, 2)
    assert (half * 2).den == 1 and half * 2 == ZPolynomial([1, 0, -3])
    assert ZPolynomial({0: 6, 3: 4, 5: 0}, 10) == ZPolynomial([Fraction(3, 5), 0, 0, Fraction(2, 5)])
    zero = half - half
    assert zero.den == 1 and zero.terms == {} and zero.degree == -1 and repr(zero) == "0"
    # equal numerators over different denominators are different polynomials
    assert ZPolynomial([1, 2]) != ZPolynomial([Fraction(1, 3), Fraction(2, 3)])
    assert ZPolynomial([1]) == 1 and 1 == ZPolynomial([1]) and ZPolynomial([Fraction(1, 2)]) != 1
    with pytest.raises(ValueError):
        ZPolynomial({0: 1}, 0)


def test_zpolynomial_and_symbol_expressions_never_mix():
    z_expr, z_poly = UmbralExpression.symbol(Z), ZPolynomial.variable()
    assert z_expr.expect() == z_poly
    # the same numerators under the same keys, but different rings
    assert (z_expr.terms, z_expr.den) == (z_poly.terms, z_poly.den)
    assert z_expr != z_poly and z_poly != z_expr
    assert not UmbralExpression.constant(3) == ZPolynomial.constant(3)
    assert z_poly.__eq__(z_expr) is NotImplemented and z_expr.__eq__(z_poly) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(z_poly, z_expr)
        with pytest.raises(TypeError):
            op(z_expr, z_poly)


def loop_sum(cls, pairs):
    acc = cls()
    for p, c in pairs:
        acc = acc + p * c
    return acc


def test_combination_equals_loop_sum():
    zs = UmbralExpression.symbol(Z)
    polys = [
        ZPolynomial([Fraction(1, 6), -1, 1]),
        ZPolynomial([Fraction(3, 4), 0, 0, Fraction(-5, 9)]),
        ZPolynomial([2, 7]),
        ZPolynomial(),
    ]
    exprs = [zs * Fraction(2, 3) + 1, zs * zs * Fraction(-1, 10), UmbralExpression.constant(Fraction(5, 14))]
    coeffs = [Fraction(7, 15), 0, -3, Fraction(-22, 21), 1, Fraction(0, 5)]
    for cls, items in ((ZPolynomial, polys), (UmbralExpression, exprs)):
        pairs = [(items[i % len(items)], c) for i, c in enumerate(coeffs)]
        for cut in range(len(pairs) + 1):
            got, ref = cls.combination(pairs[:cut]), loop_sum(cls, pairs[:cut])
            assert type(got) is cls
            assert (got.terms, got.den) == (ref.terms, ref.den)
        assert cls.combination([]) == cls() and cls.combination(iter([])).den == 1
    # terms that cancel leave the canonical zero
    p = polys[0]
    zero = ZPolynomial.combination([(p, Fraction(1, 3)), (p * 2, Fraction(-1, 6))])
    assert (zero.terms, zero.den) == ({}, 1)


def test_zpolynomial_degree_multiplicative():
    for a in range(4):
        for b in range(4):
            p = ZPolynomial([1] * (a + 1))
            q = ZPolynomial([2] * (b + 1))
            assert (p * q).degree == a + b


def test_zpolynomial_json_roundtrip():
    p = ZPolynomial([Fraction(1, 6), -1, 1])
    assert [Fraction(int(c["num"]), int(c["den"])) for c in p.to_json()] == list(p.coeffs)
    assert rational_to_json(Fraction(-3, 7)) == {"num": "-3", "den": "7"}


poly_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=12), min_size=0, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(poly_coeffs, st.fractions(min_value=-4, max_value=4, max_denominator=12)),
        max_size=5,
    )
)
def test_combination_matches_loop_sum(raw):
    pairs = [(ZPolynomial(a), c) for a, c in raw]
    assert ZPolynomial.combination(pairs) == loop_sum(ZPolynomial, pairs)


@settings(max_examples=100, deadline=None)
@given(
    poly_coeffs,
    poly_coeffs,
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.integers(min_value=0, max_value=4),
)
def test_zpolynomial_matches_dense_fraction_reference(a, b, q, n):
    p, r = ZPolynomial(a), ZPolynomial(b)
    pd, rd = DensePolynomial(a), DensePolynomial(b)

    def same(got, ref):
        assert isinstance(got, ZPolynomial)
        assert got.coeffs == ref.coeffs and got.degree == ref.degree
        assert repr(got) == repr(ref) and got.to_json() == ref.to_json()
        assert got == ZPolynomial(ref.coeffs)

    same(p, pd)
    same(p + r, pd + rd)
    same(p - r, pd - rd)
    same(p + q, pd + q)
    same(q + p, pd + q)
    same(q - p, q - pd)
    same(p * r, pd * rd)
    same(p * q, pd * q)
    same(q * p, pd * q)
    same(p * int(q), pd * int(q))
    same(-p, pd * -1)
    same(p**n, pd**n)
    same(p(r), pd(rd))
    same(p.shift(q), pd.shift(q))
    assert p(q) == pd(q) and p(int(q)) == pd(int(q))
    assert (p == r) == (pd == rd) and (p == q) == (pd == q)
    # p / 2 keeps p's numerators when one is odd; only den tells them apart
    assert (p * Fraction(1, 2) == p) == p.is_zero()


# --- integer EGF kernels ---------------------------------------------------------


def to_egf(coeffs):
    """(x, d) with n! c_n = x_n / d, from the rational ordinary coefficients c."""
    return integer_numerators([Fraction(c) * math.factorial(n) for n, c in enumerate(coeffs)])


def from_egf(egf):
    """The ordinary coefficients of a kernel's result; its denominator must be positive."""
    x, d = egf
    assert d > 0
    return [Fraction(xn, d * math.factorial(n)) for n, xn in enumerate(x)]


def test_series_compose_examples():
    t2 = [0, 0, 1, 0, 0, 0, 0]
    t = [0, 1, 0, 0, 0, 0, 0]
    assert from_egf(egf_compose(t, to_egf(t2))) == [0, 0, 1, 0, 0, 0, 0]
    # (e^t - 1) o log(1 + t) = t
    expm1 = [0] + [Fraction(1, math.factorial(n)) for n in range(1, 7)]
    log1p = [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, 7)]
    assert from_egf(egf_compose(expm1, to_egf(log1p))) == [0, 1, 0, 0, 0, 0, 0]


def test_series_compose_rejects_nonzero_constant():
    exp = [Fraction(1, math.factorial(n)) for n in range(5)]
    with pytest.raises(ValueError):
        egf_compose(exp, to_egf(exp))


def test_polylog_composition_matches_stirling_closed_form():
    # n! coeff of Li_2(1-e^{-t})/(1-e^{-t}), Li_2(x)/x composed with
    # x = 1-e^{-t}, must equal (-1)^n sum_m (-1)^m m! S(n,m)/(m+1)^2
    order = 9
    w = [0] + [(-1) ** (n + 1) for n in range(1, order + 1)]  # 1 - e^{-t}, over 1
    li2_over_x = [Fraction(1, (n + 1) ** 2) for n in range(order + 1)]
    q, d = egf_compose(li2_over_x, (w, 1))
    assert len(q) == order + 1
    for n in range(order + 1):
        closed = sum(
            (
                Fraction((-1) ** m * math.factorial(m) * stirling2(n, m), (m + 1) ** 2)
                for m in range(n + 1)
            ),
            Fraction(0),
        ) * (-1) ** n
        assert Fraction(q[n], d) == closed


def li_composed_oracle(n, k):
    """Li_k(x)/x at x = 1-e^{-t} by egf_compose, as _li_composed returns it."""
    w = [0] + [(-1) ** (j + 1) for j in range(1, n + 1)]
    x, d = egf_compose([Fraction(1, (j + 1) ** k) for j in range(n + 1)], (w, 1))
    return tuple(x), d


def test_li_composed_matches_egf_compose_oracle():
    # the e^{-it} Horner against Horner over convolutions, as the (x, d) pair
    kernel = polybernoulli._li_composed.__wrapped__
    cases = [(n, k) for n in range(61) for k in range(1, 9)]
    for n, k in cases + [(0, 17), (0, 30), (100, 30)]:
        assert kernel(n, k) == li_composed_oracle(n, k), (n, k)
    assert polybernoulli._li_composed(40, 6) == li_composed_oracle(40, 6)


def test_bernoulli_gf_series():
    # t/(e^t - 1) = log(1+y)/y at y = e^t - 1, whose EGF numerators are 0, 1, 1, ...
    log1p_over_y = [Fraction((-1) ** j, j + 1) for j in range(13)]
    q, d = egf_compose(log1p_over_y, ([0] + [1] * 12, 1))
    assert [Fraction(x, d) for x in q] == bernoulli_oracle(12) == bernoulli_numbers(12)


def test_order_bookkeeping():
    # a composition runs through the shorter operand
    exp = [Fraction(1, math.factorial(n)) for n in range(9)]
    assert len(egf_compose(exp, ([0, 1] + [0] * 6, 1))[0]) == 8
    assert len(egf_compose(exp[:4], ([0, 1] + [0] * 6, 1))[0]) == 4


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def test_integer_kernels_on_non_integer_egf():
    # inner EGF numerators 1/3, 4/5, ... need a common denominator
    inner = [Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7)] + [Fraction(0)] * 5
    outer = [Fraction(0)] + [Fraction(1, n + 1) for n in range(1, 9)]
    got = egf_compose(outer, to_egf(inner))
    assert from_egf(got) == series_compose_reference(outer, inner, 8)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.lists(small_fractions, min_size=11, max_size=11),
    st.lists(small_fractions, min_size=11, max_size=11),
)
def test_integer_kernels_match_fraction_reference(order, outer, inner):
    inner = [Fraction(0)] + inner[1 : order + 1]
    got = egf_compose(outer, to_egf(inner))
    assert from_egf(got) == series_compose_reference(outer, inner, order)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(small_fractions, min_size=9, max_size=9),
    st.lists(small_fractions, min_size=8, max_size=8),
    st.lists(small_fractions, min_size=8, max_size=8),
)
def test_composition_associative(fa, fb, fc):
    b = [Fraction(0)] + fb
    c = to_egf([Fraction(0)] + fc)
    # (a o b) o c needs a o b's ordinary coefficients; a o (b o c) takes
    # b o c's EGF numerators as they come
    left = egf_compose(from_egf(egf_compose(fa, to_egf(b))), c)
    right = egf_compose(fa, egf_compose(b, c))
    assert from_egf(left) == from_egf(right)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_fractions, min_size=0, max_size=9), small_fractions)
def test_shift_matches_composition(coeffs, a):
    p = ZPolynomial(coeffs)
    assert p.shift(a) == p(ZPolynomial([a, 1]))


# --- shared caches under threads ---------------------------------------------------


def test_caches_grow_consistently_under_threads(monkeypatch):
    """Four threads fill cold Bernoulli and Stirling caches at once, with the
    interpreter switching threads as often as it can; every value must match a
    serial run and every cached row must sit at its own index."""
    n_max = 60
    serial_b = bernoulli_oracle(n_max)
    serial_s = [[stirling2(n, m) for m in range(n + 1)] for n in range(n_max + 1)]
    monkeypatch.setattr(exact, "_BERNOULLI", [Fraction(1)])
    monkeypatch.setattr(exact, "_STIRLING_ROWS", [[1]])
    results = {}
    errors = []

    def work(tid):
        try:
            order = range(n_max + 1) if tid % 2 else range(n_max, -1, -1)
            results[tid] = (
                [bernoulli_number(n) for n in order],
                [[stirling2(n, m) for m in range(n + 1)] for n in order],
                list(order),
            )
        except Exception as e:  # reported below, with the thread's id
            errors.append((tid, repr(e)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(tid,)) for tid in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    for bern, rows, order in results.values():
        assert bern == [serial_b[n] for n in order]
        assert rows == [serial_s[n] for n in order]
    assert exact._BERNOULLI == serial_b
    assert exact._STIRLING_ROWS == serial_s

"""Symbol algebra: evaluation rules, the poly-Bernoulli symbol, expansion."""
import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akzeta.exact import ZPolynomial, bernoulli_number
from akzeta.umbral import (
    DEFAULT_EXPANSION_CAP,
    MAX_EXPONENT,
    ExpansionCapError,
    Symbol,
    UmbralExpression,
    Z,
    bernoulli_symbol,
    c_symbol,
    expect_power,
    expect_powers,
    expr_power,
    poly_symbol,
    uniform_symbol,
)

def test_symbol_validation_order_and_hash():
    for bad in (("X",), ("B", 0), ("U", -1), ("z", 0, 1)):
        with pytest.raises((ValueError, TypeError)):
            Symbol(*bad)
    syms = [uniform_symbol(2), Z, bernoulli_symbol(10), uniform_symbol(1), bernoulli_symbol(2)]
    # ordered by (kind, index): 'B' < 'U' < 'z', then numerically by index
    assert sorted(syms) == [
        bernoulli_symbol(2), bernoulli_symbol(10), uniform_symbol(1), uniform_symbol(2), Z
    ]
    s = Symbol(kind="B", index=3)
    assert (s.kind, s.index) == ("B", 3) and (Z.kind, Z.index) == ("z", 0)
    assert repr(s) == "B3" and repr(Z) == "z" and repr(uniform_symbol(4)) == "U4"
    assert s == bernoulli_symbol(3) and s != uniform_symbol(3)
    assert hash(s) == hash(bernoulli_symbol(3)) == hash(("B", 3))
    assert len({s, bernoulli_symbol(3), uniform_symbol(3), Z, Symbol("z")}) == 3
    with pytest.raises(AttributeError):
        s.kind = "U"
    assert pickle.loads(pickle.dumps(s)) == s and copy.deepcopy(s) == s


B1 = UmbralExpression.symbol(bernoulli_symbol(1))
U1 = UmbralExpression.symbol(uniform_symbol(1))
ZS = UmbralExpression.symbol(Z)


def test_expect_examples():
    assert (B1 * B1).expect() == ZPolynomial.constant(Fraction(1, 6))
    assert expr_power(U1, 3).expect() == ZPolynomial.constant(Fraction(1, 4))
    # (B+1)^3 evaluates to -B_3 = 0
    assert expr_power(B1 + 1, 3).expect().is_zero()


def test_expect_keeps_z_formal():
    e = expr_power(ZS + B1, 2)
    assert e.expect() == ZPolynomial([Fraction(1, 6), -1, 1])  # B_2(z)


def test_poly_symbol_structure():
    b = bernoulli_symbol
    u = uniform_symbol
    assert poly_symbol(1) == UmbralExpression.constant(1) + UmbralExpression.symbol(b(1))
    expected2 = (
        UmbralExpression.constant(1)
        + UmbralExpression.symbol(b(2))
        + UmbralExpression.monomial({u(1): 1, b(1): 1})
    )
    assert poly_symbol(2) == expected2
    expected3 = (
        UmbralExpression.constant(1)
        + UmbralExpression.symbol(b(3))
        + UmbralExpression.monomial({u(2): 1, b(2): 1})
        + UmbralExpression.monomial({u(2): 1, u(1): 1, b(1): 1})
    )
    assert poly_symbol(3) == expected3
    with pytest.raises(ValueError):
        poly_symbol(0)


def test_c_symbol():
    assert c_symbol(1) == B1
    assert c_symbol(2) == poly_symbol(2) - UmbralExpression.constant(1)
    # recurrence C^{(k)} = B_k + U_{k-1} C^{(k-1)} on shared indices
    for k in range(2, 7):
        rhs = UmbralExpression.symbol(bernoulli_symbol(k)) + UmbralExpression.symbol(
            uniform_symbol(k - 1)
        ) * c_symbol(k - 1)
        assert c_symbol(k) == rhs


def test_expr_power_examples():
    assert expr_power(B1 + 1, 0) == UmbralExpression.constant(1)
    sq = expr_power(ZS + B1 + 1, 2)
    expected = (
        UmbralExpression.monomial({Z: 2})
        + UmbralExpression.monomial({Z: 1}) * 2
        + UmbralExpression.constant(1)
        + (UmbralExpression.monomial({Z: 1}) + UmbralExpression.constant(1)) * B1 * 2
        + B1 * B1
    )
    assert sq == expected


def test_expr_power_cap():
    # 6 terms at n = 60 predict C(65, 5) > DEFAULT_EXPANSION_CAP monomials; the
    # prediction runs before any term is expanded
    assert math.comb(65, 5) > DEFAULT_EXPANSION_CAP
    with pytest.raises(ExpansionCapError, match="exceeds cap 5000000$"):
        expr_power(poly_symbol(5), 60)


def test_shift_substitute_examples():
    assert (B1 * B1).substitute(bernoulli_symbol(1), B1 + 1) == expr_power(B1 + 1, 2)
    z2 = UmbralExpression.monomial({Z: 2})
    shifted = z2.substitute(Z, ZS + 1)
    assert shifted.expect() == ZPolynomial([1, 2, 1])


def test_periodicity_via_substitution():
    for n in range(21):
        direct = expr_power(B1 + 1, n).expect()
        negated = expr_power(B1, n).substitute(bernoulli_symbol(1), -B1).expect()
        assert direct == negated


def test_cancellation_invariant():
    base = U1 + B1
    for n in range(31):
        got = expr_power(base, n).expect().coefficient(0)
        assert got == (1 if n == 0 else 0)


def test_cancellation_absorbs_into_argument():
    # the full form of the annihilation law on monomials: E[(z+U+B)^n] = z^n
    for n in range(16):
        got = expr_power(ZS + U1 + B1, n).expect()
        assert got == ZPolynomial([0] * n + [1])


def test_periodicity_invariant():
    for n in range(31):
        lhs = expr_power(B1 + 1, n).expect().coefficient(0)
        assert lhs == (-1) ** n * bernoulli_number(n)


def test_independence_factorization():
    for a in range(11):
        for b in range(11):
            for c in range(11):
                expr = UmbralExpression.monomial(
                    {bernoulli_symbol(1): a, bernoulli_symbol(2): b, uniform_symbol(1): c}
                )
                want = bernoulli_number(a) * bernoulli_number(b) * Fraction(1, c + 1)
                assert expr.expect().coefficient(0) == want


def test_symbol_recursion_invariant():
    for k in range(2, 7):
        rhs = (
            UmbralExpression.constant(1)
            + UmbralExpression.symbol(bernoulli_symbol(k))
            + UmbralExpression.symbol(uniform_symbol(k - 1))
            * (poly_symbol(k - 1) - UmbralExpression.constant(1))
        )
        assert poly_symbol(k) == rhs


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        UmbralExpression.monomial({bernoulli_symbol(1): -1})
    with pytest.raises(ValueError):
        expr_power(B1, -2)


def test_render_canonical():
    assert poly_symbol(2).render() == "1 + B1^1*U1^1 + B2^1"
    assert UmbralExpression().render() == "0"
    assert (B1 * Fraction(-1, 2)).render() == "-1/2*B1^1"
    # render is stable under reconstruction
    e = expr_power(poly_symbol(3), 2)
    assert e.render() == expr_power(poly_symbol(3), 2).render()


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def small_term_lists():
    """Lists of (exponents by symbol, coefficient) pairs."""
    mono = st.dictionaries(
        st.sampled_from(
            [bernoulli_symbol(1), bernoulli_symbol(2), uniform_symbol(1), uniform_symbol(2), Z]
        ),
        st.integers(min_value=0, max_value=3),
        max_size=3,
    )
    term = st.tuples(mono, small_fractions)
    return st.lists(term, min_size=0, max_size=4)


def from_terms(terms) -> UmbralExpression:
    return sum((UmbralExpression.monomial(m, c) for m, c in terms if c), UmbralExpression())


def small_expressions():
    return small_term_lists().map(from_terms)


# The per-term Fraction evaluation that the packed integer layout replaced,
# kept as the reference: each monomial's moment is a product of Fractions.


def _moment_reference(s: Symbol, e: int) -> Fraction:
    return bernoulli_number(e) if s.kind == "B" else Fraction(1, e + 1)


def expect_reference(terms) -> ZPolynomial:
    coeffs: dict[int, Fraction] = {}
    for mono, c in terms:
        mom = Fraction(c)
        for s, e in mono.items():
            if s.kind != "z":
                mom *= _moment_reference(s, e)
        zdeg = mono.get(Z, 0)
        coeffs[zdeg] = coeffs.get(zdeg, Fraction(0)) + mom
    top = max(coeffs, default=-1)
    return ZPolynomial([coeffs.get(i, Fraction(0)) for i in range(top + 1)])


def expect_kind_reference(terms, kind: str) -> UmbralExpression:
    out = UmbralExpression()
    for mono, c in terms:
        mom = Fraction(c)
        rest = {}
        for s, e in mono.items():
            if s.kind == kind:
                mom *= _moment_reference(s, e)
            else:
                rest[s] = e
        out = out + UmbralExpression.monomial(rest, mom)
    return out


@settings(max_examples=80, deadline=None)
@given(small_expressions(), small_expressions(), small_fractions, small_fractions)
def test_expect_linear(e1, e2, a, b):
    lhs = (e1 * a + e2 * b).expect()
    rhs = e1.expect() * a + e2.expect() * b
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_expressions(), small_expressions())
def test_ring_commutative(e1, e2):
    assert e1 * e2 == e2 * e1
    assert e1 + e2 == e2 + e1


@settings(max_examples=60, deadline=None)
@given(small_expressions(), st.integers(min_value=0, max_value=5))
def test_expr_power_matches_repeated_product(e, n):
    ref = UmbralExpression.constant(1)
    for _ in range(n):
        ref = ref * e
    assert expr_power(e, n) == ref


@settings(max_examples=80, deadline=None)
@given(small_term_lists())
def test_expect_matches_fraction_reference(terms):
    e = from_terms(terms)
    assert e.expect() == expect_reference(terms)
    assert e.expect_kind("B") == expect_kind_reference(terms, "B")
    assert e.expect_kind("U") == expect_kind_reference(terms, "U")
    assert e.expect_kind("B", "U").expect() == e.expect()


def shared_term_lists():
    """Term lists over few symbols, so that terms share symbols and the
    expansions hold odd B powers >= 3."""
    mono = st.dictionaries(
        st.sampled_from([bernoulli_symbol(1), bernoulli_symbol(2), uniform_symbol(1), Z]),
        st.integers(min_value=1, max_value=3),
        max_size=3,
    )
    return st.lists(st.tuples(mono, small_fractions), min_size=1, max_size=4)


KIND_SETS = [("B",), ("U",), ("B", "U"), ("U", "B")]


@settings(max_examples=80, deadline=None)
@given(shared_term_lists(), st.integers(min_value=0, max_value=6))
def test_expect_power_matches_expanded_power(terms, n):
    e = from_terms(terms)
    full = expr_power(e, n)
    for kinds in KIND_SETS:
        assert expect_power(e, n, kinds) == full.expect_kind(*kinds)
    assert expect_power(e, n).expect() == full.expect()


@settings(max_examples=40, deadline=None)
@given(shared_term_lists(), st.integers(min_value=0, max_value=5))
def test_expect_power_matches_product_oracle(terms, n):
    # repeated multiplication shares no code with the expansion kernel
    e = from_terms(terms)
    ref = UmbralExpression.constant(1)
    for _ in range(n):
        ref = ref * e
    for kinds in KIND_SETS:
        assert expect_power(e, n, kinds) == ref.expect_kind(*kinds)


def test_expect_power_cap_and_overflow_parity():
    b = bernoulli_symbol(1)
    # C(124, 4) and C(65, 5) exceed DEFAULT_EXPANSION_CAP; both checks run
    # before any expansion work, so these stay cheap
    for expr, n, error in (
        (poly_symbol(4), 120, ExpansionCapError),
        (ZS + poly_symbol(4), 60, ExpansionCapError),
        (B1 + U1, MAX_EXPONENT + 1, OverflowError),
        (UmbralExpression.monomial({b: 2}) + 1, MAX_EXPONENT // 2 + 1, OverflowError),
    ):
        with pytest.raises(error) as full:
            expr_power(expr, n)
        for kinds in KIND_SETS:
            with pytest.raises(error, match=f"^{re.escape(str(full.value))}$"):
                expect_power(expr, n, kinds)
    for kinds in ((), ("z",), ("B", "z")):
        for n in (0, 2):
            with pytest.raises(ValueError):
                expect_power(B1, n, kinds)
    with pytest.raises(ValueError):
        expect_power(B1, -1)


# the all-powers expansion is compared with one single-power expansion per n,
# kinds () meaning no symbol evaluated
POWERS_KINDS = [(), ("B",), ("U",), ("B", "U")]


def single_power(e, n, kinds):
    return expect_power(e, n, kinds) if kinds else expr_power(e, n)


@settings(max_examples=60, deadline=None)
@given(small_expressions(), st.integers(min_value=0, max_value=6), st.sampled_from(POWERS_KINDS))
def test_expect_powers_match_single_powers(e, n_max, kinds):
    powers = list(expect_powers(e, n_max, kinds))
    assert powers == [single_power(e, n, kinds) for n in range(n_max + 1)]


@settings(max_examples=40, deadline=None)
@given(shared_term_lists(), st.integers(min_value=0, max_value=6))
def test_expect_powers_match_single_powers_on_shared_symbols(terms, n_max):
    e = from_terms(terms)
    for kinds in POWERS_KINDS:
        assert list(expect_powers(e, n_max, kinds)) == [
            single_power(e, n, kinds) for n in range(n_max + 1)
        ]


@settings(max_examples=40, deadline=None)
@given(shared_term_lists(), st.integers(min_value=0, max_value=5))
def test_expect_powers_match_product_oracle(terms, n_max):
    # repeated multiplication, then expect_kind, shares no code with the
    # expansion steps; odd B powers >= 3 zero out states mid-expansion
    e = from_terms(terms)
    products = [UmbralExpression.constant(1)]
    for _ in range(n_max):
        products.append(products[-1] * e)
    for kinds in POWERS_KINDS:
        want = [p.expect_kind(*kinds) if kinds else p for p in products]
        assert list(expect_powers(e, n_max, kinds)) == want


def test_expect_powers_edge_cases():
    zero, three = UmbralExpression(), UmbralExpression.constant(3)
    for kinds in POWERS_KINDS:
        assert list(expect_powers(zero, 3, kinds)) == [1, 0, 0, 0]
        assert list(expect_powers(zero, 0, kinds)) == [1]
        assert list(expect_powers(three, 3, kinds)) == [1, 3, 9, 27]
        assert list(expect_powers(ZS + poly_symbol(3), 0, kinds)) == [1]
    assert list(expect_powers(ZS + B1, 2)) == [1, ZS - Fraction(1, 2), ZS * ZS - ZS + Fraction(1, 6)]


def test_expect_powers_cap_and_overflow_parity():
    b = bernoulli_symbol(1)
    for expr, n, error in (
        (poly_symbol(4), 120, ExpansionCapError),
        (ZS + poly_symbol(4), 60, ExpansionCapError),
        (B1 + U1, MAX_EXPONENT + 1, OverflowError),
        (UmbralExpression.monomial({b: 2}) + 1, MAX_EXPONENT // 2 + 1, OverflowError),
    ):
        for kinds in POWERS_KINDS:
            with pytest.raises(error) as single:
                single_power(expr, n, kinds)
            with pytest.raises(error, match=f"^{re.escape(str(single.value))}$"):
                expect_powers(expr, n, kinds)
    for kinds in (("z",), ("B", "z")):
        with pytest.raises(ValueError):
            expect_powers(B1, 2, kinds)
    with pytest.raises(ValueError):
        expect_powers(B1, -1)


def test_canonical_form():
    half = B1 * Fraction(2, 4)
    assert (half.terms, half.den) == ({1 << 16: 1}, 2)
    assert (half + half).den == 1 and (half + half) == B1
    zero = B1 - B1
    assert zero.is_zero() and zero.den == 1 and zero == UmbralExpression()
    assert UmbralExpression.constant(Fraction(-3, 6)) == Fraction(-1, 2)
    # z is field 0: once B and U are evaluated, the key is the z-degree
    e = expr_power(ZS + B1 + U1, 3).expect_kind("B", "U")
    assert set(e.terms) <= {0, 1, 2, 3}
    with pytest.raises(ValueError):
        e.expect_kind("z")


def test_exponent_overflow_raises_instead_of_carrying():
    # B1 sits in the field just below U1's: a carry would turn B1^(2^15) into U1
    b = bernoulli_symbol(1)
    full = UmbralExpression.monomial({b: MAX_EXPONENT})
    assert UmbralExpression.monomial({b: MAX_EXPONENT - 1}) * B1 == full
    assert expr_power(UmbralExpression.monomial({b: MAX_EXPONENT // 2}), 2) * B1 == full
    assert expr_power(B1, MAX_EXPONENT) == full
    with pytest.raises(OverflowError):
        full * B1
    with pytest.raises(OverflowError):
        (full + U1) * (B1 + 1)
    with pytest.raises(OverflowError):
        expr_power(B1 + U1, MAX_EXPONENT + 1)
    with pytest.raises(OverflowError):
        expr_power(UmbralExpression.monomial({b: 2}) + 1, MAX_EXPONENT // 2 + 1)
    with pytest.raises(OverflowError):
        UmbralExpression.monomial({Z: MAX_EXPONENT + 1})


def test_simplex_integral_examples():
    u1, u2 = uniform_symbol(1), uniform_symbol(2)
    e = UmbralExpression.monomial({u1: 3, bernoulli_symbol(1): 1})
    # int_0^1 u1^3 du1 = 1/4; over u1 <= u2 with density 1/u2: (1/4) int_0^1 u2^3 du2
    assert e.simplex_integral([u1]) == B1 * Fraction(1, 4)
    assert e.simplex_integral([u1, u2]) == B1 * Fraction(1, 16)
    # u2 is left alone when only u1 is integrated
    u2e = UmbralExpression.symbol(u2)
    assert (e * u2e).simplex_integral([u1]) == B1 * u2e * Fraction(1, 4)
    assert B1.simplex_integral([u1]) == B1 and B1.simplex_integral([]) == B1
    # the density cancels the volume: the integral of 1 is 1 for every r
    three = UmbralExpression.constant(3)
    for r in range(1, 5):
        assert three.simplex_integral([uniform_symbol(j) for j in range(1, r + 1)]) == 3
    assert UmbralExpression().simplex_integral([u1, u2]).is_zero()
    # exponents at MAX_EXPONENT stay exact: the integral only removes fields
    top = UmbralExpression.monomial({u1: MAX_EXPONENT, u2: MAX_EXPONENT})
    e1, e2 = MAX_EXPONENT + 1, 2 * MAX_EXPONENT + 1
    assert top.simplex_integral([u1, u2]) == Fraction(1, e1 * e2)


SIMPLEX_VARIABLES = [uniform_symbol(j) for j in range(1, 5)]


def simplex_integral_reference(terms, symbols) -> UmbralExpression:
    """The iterated integral, one variable at a time in Fractions: s_j^e over
    0 <= s_j <= s_{j+1} (1 for the last) becomes s_{j+1}^p / p, p = e + 1, after
    the density divides s_j by itself from j = 2 on."""
    out = UmbralExpression()
    for mono, c in terms:
        mono, c = dict(mono), Fraction(c)
        for j, s in enumerate(symbols):
            p = mono.pop(s, 0) + 1 - (j > 0)
            c /= p
            if j + 1 < len(symbols):
                mono[symbols[j + 1]] = mono.get(symbols[j + 1], 0) + p
        out = out + UmbralExpression.monomial(mono, c)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.dictionaries(
                st.sampled_from(SIMPLEX_VARIABLES + [bernoulli_symbol(1), Z]),
                st.integers(min_value=0, max_value=4),
                max_size=4,
            ),
            small_fractions,
        ),
        max_size=5,
    ),
    st.permutations(SIMPLEX_VARIABLES),
    st.integers(min_value=1, max_value=4),
)
def test_simplex_integral_matches_iterated_reference(terms, order, r):
    # the variables not integrated, B1 and z pass through
    symbols = order[:r]
    assert from_terms(terms).simplex_integral(symbols) == simplex_integral_reference(terms, symbols)

"""Symbol algebra: evaluation rules, the poly-Bernoulli symbol, expansion."""
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akzeta.exact import ZPolynomial, bernoulli_number
from akzeta.umbral import (
    ExpansionCapError,
    Symbol,
    UmbralExpression,
    Z,
    bernoulli_symbol,
    c_symbol,
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
    base = poly_symbol(4)
    with pytest.raises(ExpansionCapError):
        expr_power(base, 40, cap=100)


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


def small_expressions():
    mono = st.dictionaries(
        st.sampled_from(
            [bernoulli_symbol(1), bernoulli_symbol(2), uniform_symbol(1), Z]
        ),
        st.integers(min_value=0, max_value=3),
        max_size=3,
    )
    term = st.tuples(mono, small_fractions)
    return st.lists(term, min_size=0, max_size=4).map(
        lambda ts: sum(
            (UmbralExpression.monomial(m, c) for m, c in ts if c),
            UmbralExpression(),
        )
    )


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

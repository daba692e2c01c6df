"""Route agreement and the integral-transform representations."""
import dataclasses
import json
import math
from fractions import Fraction

import pytest

from akzeta.exact import (
    ZPolynomial,
    appell_polynomial,
    bernoulli_number,
    bernoulli_numbers,
    bernoulli_polynomial,
    binomial,
    integer_numerators,
)
from akzeta.polybernoulli import (
    ROUTES,
    PolyBernoulliTable,
    barnes_transform_cube,
    barnes_transform_cube_row,
    bc_convert,
    bernoulli_barnes,
    poly_bernoulli_series,
    poly_bernoulli_stirling,
    poly_bernoulli_umbral,
    route_disagreement,
    simplex_transform,
    simplex_transform_row,
    stirling_table,
    umbral_numbers,
)
from akzeta.umbral import (
    ExpansionCapError,
    UmbralExpression,
    Z,
    c_symbol,
    expr_power,
    poly_symbol,
)


def stirling_oracle(n, k):
    """Independent re-derivation of the closed form with raw arithmetic."""
    total = Fraction(0)
    sign = 1
    for m in range(n + 1):
        # m! S(n,m) by inclusion-exclusion: sum_j (-1)^j C(m,j) (m-j)^n
        surj = sum((-1) ** j * binomial(m, j) * (m - j) ** n for j in range(m + 1))
        total += Fraction((-1) ** m * surj, (m + 1) ** k)
        sign = -sign
    return (-1) ** n * total


def test_series_route_examples():
    t = poly_bernoulli_series(4, 2, "B")
    assert t.number(0) == 1
    assert t.number(1) == Fraction(1, 4)
    assert t.number(2) == Fraction(-1, 36)
    t7 = poly_bernoulli_series(0, 7, "B")
    assert t7.number(0) == 1
    # k=1 collapse: B_n^{(1)} = B_n(1)
    t1 = poly_bernoulli_series(12, 1, "B")
    for n in range(13):
        assert t1.number(n) == bernoulli_polynomial(n)(Fraction(1))


def test_stirling_route_examples():
    assert poly_bernoulli_stirling(0, 3) == 1
    assert poly_bernoulli_stirling(1, 2) == Fraction(1, 4)
    for n in range(21):
        assert poly_bernoulli_stirling(n, 1) == bernoulli_polynomial(n)(Fraction(1))
    for n in range(9):
        for k in range(1, 4):
            assert poly_bernoulli_stirling(n, k) == stirling_oracle(n, k)


def test_stirling_table_matches_oracle():
    for k in (1, 4, 9):
        t = stirling_table(30, k)
        assert [t.number(n) for n in range(31)] == [stirling_oracle(n, k) for n in range(31)]


def test_single_stirling_number_matches_table():
    for n in range(13):
        for k in range(1, 6):
            assert poly_bernoulli_stirling(n, k) == stirling_table(n, k).number(n)


def test_stirling_route_calls_no_series_or_umbral_code(monkeypatch):
    import akzeta.polybernoulli as pb

    def forbidden(*args, **kwargs):
        raise AssertionError("the Stirling route must stay independent")

    ref_b, ref_c = poly_bernoulli_series(8, 3, "B"), poly_bernoulli_series(8, 3, "C")
    names = (
        "_li_composed",
        "poly_bernoulli_series",
        "umbral_numbers",
        "_umbral_table",
        "expect_power",
    )
    for name in names:
        monkeypatch.setattr(pb, name, forbidden)
    assert stirling_table(8, 3, "C").entries == ref_c.entries
    assert poly_bernoulli_stirling(8, 3) == ref_b.number(8)


def test_lift_reads_shared_numerators():
    # mixed denominators: the shared d = 84 is no entry's own denominator
    numbers = [Fraction(*q) for q in ((1, 2), (-2, 3), (5, 7), (0, 1), (3, 4), (-11, 6))]
    x, d = integer_numerators(numbers)
    t = PolyBernoulliTable(2, "B", "series", ([3 * v for v in x], 3 * d))
    assert t.numerators == (tuple(x), 84)  # reduced on construction
    with pytest.raises(TypeError):
        t.numerators[0][1] += 1  # the lifts are cached, so the numerators are frozen
    for n in range(len(numbers)):
        assert t.number(n) == numbers[n]
        ref = [binomial(n, m) * numbers[m] for m in range(n, -1, -1)]  # z^0 first
        assert list(t.value(n).coeffs) == list(t.entries[n].coeffs) == ref
        conv = sum(binomial(n, l) * (-1) ** (n - l) * numbers[l] for l in range(n + 1))
        assert bc_convert(t, "B->C").number(n) == conv


def test_table_index_out_of_range_raises():
    t = poly_bernoulli_series(10, 2, "B")
    for n in (-1, 11, 12):
        with pytest.raises(IndexError):
            t.value(n)
        with pytest.raises(IndexError):
            t.number(n)
    assert t.number(10) == Fraction(t.numerators[0][-1], t.numerators[1])
    assert t.value(10) == t.entries[-1]
    with pytest.raises(IndexError):
        appell_polynomial(([1, 2], 1), 2)
    assert appell_polynomial(([1, 2], 1), 1) == ZPolynomial([2, 1])


def test_umbral_route_examples():
    assert poly_bernoulli_umbral(0, 3) == ZPolynomial([1])
    assert poly_bernoulli_umbral(1, 1) == ZPolynomial([Fraction(1, 2), 1])
    for k in range(1, 5):
        ref = poly_bernoulli_series(12, k, "B")
        refc = poly_bernoulli_series(12, k, "C")
        for n in range(13):
            assert poly_bernoulli_umbral(n, k, "B") == ref.value(n)
            assert poly_bernoulli_umbral(n, k, "C") == refc.value(n)


def test_umbral_moments_match_sparse_expansion():
    zs = UmbralExpression.symbol(Z)
    for k in range(1, 5):
        for variant, sym in (("B", poly_symbol(k)), ("C", c_symbol(k))):
            for n in range(13):
                want = expr_power(zs + sym, n).expect()
                assert poly_bernoulli_umbral(n, k, variant) == want


def umbral_numbers_oracle(n_max, k, variant):
    """The Fraction recursion that the integer numerators replaced."""
    bern = [bernoulli_number(j) for j in range(n_max + 1)]
    moments = bern
    for _ in range(2, k + 1):
        lowered = [m / (i + 1) for i, m in enumerate(moments)]
        moments = [
            sum(binomial(j, i) * bern[j - i] * lowered[i] for i in range(j + 1))
            for j in range(n_max + 1)
        ]
    if variant == "C":
        return moments
    return [sum(binomial(j, i) * moments[i] for i in range(j + 1)) for j in range(n_max + 1)]


@pytest.mark.parametrize("variant", ["B", "C"])
def test_umbral_numbers_match_fraction_oracle(variant):
    for k in range(1, 7):
        for n_max in (0, 1, 2, 3, 7, 30):
            assert umbral_numbers(n_max, k, variant) == umbral_numbers_oracle(n_max, k, variant)


def test_route_agreement_grid():
    for k in range(1, 5):
        series = poly_bernoulli_series(10, k, "B")
        umbral = umbral_numbers(10, k, "B")
        for n in range(11):
            assert series.number(n) == umbral[n] == poly_bernoulli_stirling(n, k)


def test_monic_degree():
    for k in (1, 3):
        for variant in ("B", "C"):
            t = poly_bernoulli_series(10, k, variant)
            for n in range(11):
                assert t.value(n).degree == n
                assert t.value(n).leading_coefficient() == 1


def test_value_lifts_one_entry():
    t = poly_bernoulli_series(10, 3, "C")
    p = t.value(5)
    assert "entries" not in vars(t)
    assert p == t.entries[5] and len(t.entries) == 11


def test_bc_convert():
    tb = poly_bernoulli_series(12, 3, "B")
    tc = bc_convert(tb, "B->C")
    ref = poly_bernoulli_series(12, 3, "C")
    for n in range(13):
        assert tc.value(n) == ref.value(n)
    back = bc_convert(tc, "C->B")
    for n in range(13):
        assert back.value(n) == tb.value(n)
    # k=1: C numbers are the plain Bernoulli numbers (B_1 = -1/2 convention)
    t1 = poly_bernoulli_series(20, 1, "C")
    B = bernoulli_numbers(20)
    for n in range(21):
        assert t1.number(n) == B[n]
    with pytest.raises(ValueError):
        bc_convert(tb, "B->B")
    with pytest.raises(ValueError):
        bc_convert(tc, "B->C")


def test_companion_is_shift():
    for k in range(1, 5):
        tb = poly_bernoulli_series(10, k, "B")
        tc = poly_bernoulli_series(10, k, "C")
        for n in range(11):
            assert tc.value(n) == tb.value(n).shift(-1)


def test_bernoulli_barnes_classical():
    for n in range(8):
        assert bernoulli_barnes(n, [Fraction(1)]) == bernoulli_polynomial(n)


def test_barnes_parameters_validation():
    # the parameters must be a nonempty list of nonzero rationals, and n >= 0
    with pytest.raises(ValueError):
        bernoulli_barnes(1, [])
    with pytest.raises(ValueError):
        bernoulli_barnes(1, [Fraction(0)])
    with pytest.raises(ValueError):
        bernoulli_barnes(1, [Fraction(1), 0])
    with pytest.raises(ValueError):
        bernoulli_barnes(-1, [Fraction(1)])


def test_bernoulli_barnes_prefactor_only():
    # at n = 0 only the prefactor 1/prod(a_i) is left
    assert bernoulli_barnes(0, [2, Fraction(1, 3)]) == Fraction(3, 2)
    assert bernoulli_barnes(0, [-1]) == -1


def test_bernoulli_barnes_non_unit_parameter():
    # t/(e^{at}-1) = (1/a) (at)/(e^{at}-1), so B_n([a]; z) = a^{n-1} B_n(z/a)
    z = ZPolynomial.variable()
    for a in (Fraction(2), Fraction(1, 3), Fraction(-1)):
        for n in range(9):
            expected = bernoulli_polynomial(n)(z * (1 / a)) * a ** (n - 1)
            assert bernoulli_barnes(n, [a]) == expected


def test_bernoulli_barnes_two_parameters_matches_series():
    # E[(B_1 + B_2)^n] against n! [t^n] (t/(e^t-1))^2 = sum_j C(n,j) B_j B_{n-j}
    B = bernoulli_numbers(8)
    for n in range(9):
        square = sum(binomial(n, j) * B[j] * B[n - j] for j in range(n + 1))
        assert bernoulli_barnes(n, [Fraction(1), Fraction(1)]).coefficient(0) == square


def test_cube_transform():
    # k=1 is the empty integral: B_n(z+1)
    for n in range(8):
        assert barnes_transform_cube(n, 1) == bernoulli_polynomial(n).shift(1)
    ref2 = poly_bernoulli_series(6, 2, "B")
    assert barnes_transform_cube(3, 2, Fraction(0)) == ref2.number(3)
    ref3 = poly_bernoulli_series(6, 3, "B")
    assert barnes_transform_cube(5, 3, Fraction(1)) == ref3.value(5)(Fraction(1))
    for k in (2, 3):
        ref = poly_bernoulli_series(6, k, "B")
        for n in range(7):
            assert barnes_transform_cube(n, k) == ref.value(n)


def test_simplex_transform():
    assert simplex_transform(0, 2, Fraction(0)) == 1
    ref2 = poly_bernoulli_series(6, 2, "B")
    assert simplex_transform(4, 2, Fraction(0)) == ref2.number(4)
    ref3 = poly_bernoulli_series(6, 3, "B")
    assert simplex_transform(3, 3, Fraction(0)) == ref3.number(3)
    for k in (2, 3):
        ref = poly_bernoulli_series(6, k, "B")
        for n in range(7):
            assert simplex_transform(n, k) == ref.value(n)
    with pytest.raises(ValueError):
        simplex_transform(2, 1)


def test_transforms_at_larger_sizes_match_series():
    assert barnes_transform_cube(24, 6) == poly_bernoulli_series(24, 6, "B").value(24)
    assert simplex_transform(14, 5) == poly_bernoulli_series(14, 5, "B").value(14)


def test_transform_rows_match_single_transforms():
    for z in (None, Fraction(0), Fraction(-1), Fraction(5, 3)):
        for k in (1, 2, 3, 4):
            assert barnes_transform_cube_row(7, k, z) == [barnes_transform_cube(n, k, z) for n in range(8)]
            if k >= 2:
                assert simplex_transform_row(7, k, z) == [simplex_transform(n, k, z) for n in range(8)]
    assert barnes_transform_cube_row(0, 3) == [1] and simplex_transform_row(0, 2, Fraction(2)) == [1]
    for bad in ((-1, 2), (3, 0)):
        with pytest.raises(ValueError):
            barnes_transform_cube_row(*bad)
    for bad in ((-1, 2), (3, 1)):
        with pytest.raises(ValueError):
            simplex_transform_row(*bad)


def test_transform_rows_call_no_series_stirling_or_moment_code(monkeypatch):
    import akzeta.polybernoulli as pb

    def forbidden(*args, **kwargs):
        raise AssertionError("the symbol expansion must stay independent of the other routes")

    ref = poly_bernoulli_series(8, 3, "B")
    names = (
        "_li_composed",
        "poly_bernoulli_series",
        "umbral_numbers",
        "_umbral_table",
        "stirling_table",
        "stirling_row",
    )
    for name in names:
        monkeypatch.setattr(pb, name, forbidden)
    assert barnes_transform_cube_row(8, 3) == ref.entries
    assert simplex_transform_row(8, 3, Fraction(1, 2)) == [p(Fraction(1, 2)) for p in ref.entries]


def test_stirling_table_lift():
    for variant in ("B", "C"):
        t = stirling_table(8, 2, variant)
        ref = poly_bernoulli_series(8, 2, variant)
        for n in range(9):
            assert t.value(n) == ref.value(n)
        assert t.route == "stirling" and t.variant == variant
    with pytest.raises(ValueError):
        stirling_table(8, 2, "D")
    with pytest.raises(ValueError, match="n_max >= 0"):
        stirling_table(-1, 2)
    with pytest.raises(ValueError, match="k >= 1"):
        stirling_table(3, 0)


def test_route_disagreement_witness():
    numbers = [poly_bernoulli_series(6, 3, "C").number(n) for n in range(7)]
    assert route_disagreement(numbers, 3, "C") is None
    numbers[4] += 1
    bad = route_disagreement(numbers, 3, "C")
    assert bad["n"] == 4 and bad["series"] == numbers[4]
    assert bad["umbral"] == bad["stirling"] == numbers[4] - 1


def test_deep_routes_agree_entrywise():
    # n = 40, k <= 6: series, Stirling and both binomial conversions, as polynomials
    for k in range(1, 7):
        tb = poly_bernoulli_series(40, k, "B")
        tc = poly_bernoulli_series(40, k, "C")
        sb = stirling_table(40, k, "B")
        assert sb.entries == tb.entries
        assert bc_convert(sb, "B->C").entries == tc.entries
        assert bc_convert(tc, "C->B").entries == tb.entries
        assert stirling_table(40, k, "C").entries == tc.entries


def test_table_serialization(capsys):
    from akzeta.cli import EXIT_OK, main

    code = main(["table", "--n-max", "3", "--k-min", "2", "--k-max", "2", "--format", "csv"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,k,variant,num,den"
    assert lines[2] == "1,2,B,1,4"
    t = poly_bernoulli_series(3, 2, "B")
    obj = t.to_json()
    assert obj["k"] == 2 and obj["variant"] == "B" and obj["route"] == "series"
    # coefficient arrays are low-to-high
    assert obj["entries"][1] == [
        {"num": "1", "den": "4"},
        {"num": "1", "den": "1"},
    ]
    json.dumps(obj)  # serializable


def test_umbral_route_respects_expansion_cap():
    # (z + S_4)^60, 6 terms, in the sparse expansion that the transforms and
    # verify use: C(65, 5) predicted monomials exceed the cap
    with pytest.raises(ExpansionCapError):
        expr_power(UmbralExpression.symbol(Z) + poly_symbol(4), 60)


def test_table_validation():
    with pytest.raises(ValueError):
        PolyBernoulliTable(1, "X", "series")
    with pytest.raises(ValueError):
        PolyBernoulliTable(1, "B", "magic")
    with pytest.raises(ValueError):
        poly_bernoulli_series(-1, 2)
    with pytest.raises(ValueError):
        poly_bernoulli_series(3, 0)


def test_umbral_route_calls_no_series_or_stirling_code(monkeypatch):
    import akzeta.polybernoulli as pb

    def forbidden(*args, **kwargs):
        raise AssertionError("the umbral route must stay independent")

    ref_b, ref_c = poly_bernoulli_series(8, 3, "B"), poly_bernoulli_series(8, 3, "C")
    names = (
        "_li_composed",
        "poly_bernoulli_series",
        "stirling_table",
        "stirling_row",
    )
    for name in names:
        monkeypatch.setattr(pb, name, forbidden)
    assert poly_bernoulli_umbral(8, 3, "C") == ref_c.value(8)
    assert umbral_numbers(8, 3) == [ref_b.number(n) for n in range(9)]


def test_series_route_calls_no_stirling_or_umbral_code(monkeypatch):
    import akzeta.polybernoulli as pb

    def forbidden(*args, **kwargs):
        raise AssertionError("the series route must stay independent")

    ref_b, ref_c = stirling_table(8, 3, "B"), pb._umbral_table(8, 3, "C")
    names = ("stirling_row", "stirling_table", "_umbral_table", "umbral_numbers", "expect_power")
    for name in names:
        monkeypatch.setattr(pb, name, forbidden)
    pb._li_composed.cache_clear()
    assert poly_bernoulli_series(8, 3, "B").entries == ref_b.entries
    assert poly_bernoulli_series(8, 3, "C").entries == ref_c.entries


def test_series_families_share_one_composition():
    # B then C at one (n_max, k) compose Li_k(x)/x at x = 1-e^{-t} once (C is
    # its binomial transform), and equal the tables built on a cleared memo
    import akzeta.polybernoulli as pb

    fresh = {}
    for variant in "BC":
        pb._li_composed.cache_clear()
        fresh[variant] = poly_bernoulli_series(14, 3, variant)
    pb._li_composed.cache_clear()
    got = {variant: poly_bernoulli_series(14, 3, variant) for variant in "BC"}
    info = pb._li_composed.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert got == fresh
    assert all(got[v].entries == fresh[v].entries for v in "BC")


def test_table_is_frozen():
    # assigning a field would leave the cached lifts on the old numbers
    t = poly_bernoulli_series(6, 2, "B")
    lifted = t.entries
    for name, value in (("numerators", ((1,) * 7, 1)), ("k", 3), ("variant", "C"), ("route", "umbral")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, value)
    assert t == poly_bernoulli_series(6, 2, "B") and t.entries is lifted


@pytest.mark.parametrize("k", [1, 3, 6])
def test_equal_tables_share_one_set_of_lifts(k):
    # series B, Stirling B and the C->B round trip hold equal numerators, so
    # their entries are the same polynomial objects, lifted once
    import akzeta.polybernoulli as pb

    pb._lifts.cache_clear()
    series, series_c = poly_bernoulli_series(40, k, "B"), poly_bernoulli_series(40, k, "C")
    shared = (
        (series, stirling_table(40, k)),
        (series, bc_convert(series_c, "C->B")),
        (series_c, bc_convert(stirling_table(40, k), "B->C")),
    )
    for ref, t in shared:
        assert t.numerators == ref.numerators
        assert type(t.entries) is list and t.entries is not ref.entries
        assert all(a is b for a, b in zip(t.entries, ref.entries, strict=True))
    info = pb._lifts.cache_info()
    assert info.misses == 2 and info.maxsize == 64  # the B and the C numerators; bounded
    for n, p in enumerate(series.entries):
        fresh = appell_polynomial(series.numerators, n)
        assert (p.terms, p.den) == (fresh.terms, fresh.den)
        assert series.value(n) == p


@pytest.mark.parametrize("variant", ["B", "C"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_route_interface(route, variant):
    # every route takes (n_max, k, variant) and returns a reduced table of its own
    for k in range(1, 5):
        ref = poly_bernoulli_series(12, k, variant)
        for n_max in range(13):
            t = ROUTES[route](n_max, k, variant)
            assert (t.route, t.k, t.variant, t.n_max) == (route, k, variant, n_max)
            assert [t.number(n) for n in range(n_max + 1)] == [ref.number(n) for n in range(n_max + 1)]
            x, d = t.numerators
            assert d > 0 and math.gcd(d, *x) == 1
    for bad, match in (((-1, 2, variant), "n_max >= 0"), ((3, 0, variant), "k >= 1"), ((3, 2, "D"), "variant")):
        with pytest.raises(ValueError, match=match):
            ROUTES[route](*bad)

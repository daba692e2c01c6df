"""Verification suite behavior: checks pass, the negative controls fail,
reports are deterministic and schema-stable."""
import dataclasses
import json
import math
from fractions import Fraction

import pytest

from akzeta import umbral, verify
from akzeta.cli import EXIT_OK, main
from akzeta.exact import integer_numerators
from akzeta.polybernoulli import PolyBernoulliTable
from akzeta.umbral import UmbralExpression, bernoulli_symbol, c_symbol
from akzeta.verify import (
    IdentityCheck,
    VerifyConfig,
    check_cancellation,
    check_classical_reduction,
    check_companion_shift,
    check_connection,
    check_cube_transform,
    check_difference,
    check_divided_difference,
    check_double_integral,
    check_generating_product,
    check_independence,
    check_moment_realization,
    check_monic_degree,
    check_multistep_difference,
    check_order_reduction,
    check_periodicity,
    check_polygamma_bridge,
    check_reference_values,
    check_refuted_variant,
    check_route_agreement,
    check_simplex_transform,
    check_telescoping,
    check_two_route_zeta,
    run_all,
)


def test_exact_checks_pass_on_small_grid():
    assert check_order_reduction(6, 3).status == "pass"
    assert check_connection(6, 3).status == "pass"
    assert check_difference(6, 3).status == "pass"
    assert check_multistep_difference(5, 3, 3).status == "pass"
    assert check_divided_difference(6, 3).status == "pass"
    assert check_generating_product(2, 6).status == "pass"
    assert check_cube_transform(5, 3).status == "pass"
    assert check_simplex_transform(5, 3).status == "pass"


def test_refuted_variant_finds_witnesses():
    chk = check_refuted_variant(6, 3)
    assert chk.status == "pass"
    assert set(chk.witness) == {"reading_1", "reading_2"}
    for w in chk.witness.values():
        assert w["n"] <= 6 and w["k"] <= 3
    # n = 0 can never witness: both sides are 1
    assert all(w["n"] > 0 for w in chk.witness.values())


def test_corrupt_hook_fails_with_witness():
    chk = check_route_agreement(4, 2, corrupt=True)
    assert chk.status == "fail"
    assert chk.witness is not None
    assert chk.lhs is not None and chk.rhs is not None


def test_check_results_are_frozen():
    chk = check_order_reduction(3, 2)
    for field in dataclasses.fields(IdentityCheck):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chk, field.name, None)
    failed = chk.fail({"n": 0}, 1, 2)
    assert (chk.status, chk.witness, failed.status, failed.lhs) == ("pass", None, "fail", "1")


def test_checks_that_compare_no_case_skip(capsys):
    # at k_max = 1 the k >= 2 scans are empty: they skip, and only a failure exits 1
    rep = run_all(VerifyConfig(k_max=1))
    assert sorted(c.name for c in rep.checks if c.status == "skip") == [
        "connection-relation",
        "difference-identity",
        "recurrence-order-reduction",
        "simplex-transform",
    ]
    assert main(["verify", "--max-k", "1", "--format", "plain"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "19 passed, 0 failed, 4 skipped"


def test_run_all_narrow_config():
    rep = run_all(VerifyConfig(n_max=3, k_max=2, m_max=2, suite="recurrence"))
    assert not rep.has_failures
    assert rep.totals["fail"] == 0
    assert rep.totals["pass"] == len(rep.checks)


def test_run_all_corrupt_gives_failure():
    rep = run_all(VerifyConfig(n_max=3, k_max=2, suite="transforms", corrupt=True))
    assert rep.has_failures
    failed = [c for c in rep.checks if c.status == "fail"]
    assert failed and failed[0].witness is not None


def verify_json(capsys, *argv):
    """The report as `akzeta verify --format json` prints it."""
    code = main(["verify", "--format", "json", *argv])
    assert code == EXIT_OK
    return capsys.readouterr().out


def test_report_bytes_deterministic(capsys):
    argv = ("--suite", "recurrence", "--max-n", "4", "--max-k", "2", "--max-m", "2")
    a = verify_json(capsys, *argv)
    b = verify_json(capsys, *argv)
    assert a == b
    assert a.encode() == b.encode()


def test_report_order_fixed_by_name():
    rep = run_all(VerifyConfig(n_max=3, k_max=2, suite="umbral"))
    names = [c.name for c in rep.checks]
    assert names == sorted(names)


def test_report_json_schema(capsys):
    obj = json.loads(verify_json(capsys, "--suite", "zeta", "--max-n", "3", "--max-k", "2", "--max-m", "2"))
    assert set(obj) == {"checks", "config", "totals"}
    for c in obj["checks"]:
        assert {"name", "params", "status"} <= set(c)
        if "tolerance" in c:
            assert isinstance(c["tolerance"], float)
    # numeric checks carry their tolerance; exact ones do not
    by_name = {c["name"]: c for c in obj["checks"]}
    assert "tolerance" in by_name["zeta-reference-values"]


def test_exact_checks_record_no_tolerance():
    assert check_order_reduction(3, 2).tolerance is None
    assert check_cube_transform(3, 2).tolerance is None


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(suite="bogus")


def test_run_all_default_config_passes():
    # the full default grid; by far the slowest single test outside acceptance
    rep = run_all()
    assert not rep.has_failures, rep.to_text()
    assert rep.totals["pass"] == len(rep.checks) == 23


def test_text_rendering():
    rep = run_all(VerifyConfig(n_max=3, k_max=2, suite="umbral"))
    text = rep.to_text()
    assert "PASS" in text
    assert "passed" in text.splitlines()[-1]


# Negative controls: the series table of one (k, variant) gets number n
# raised by delta, and each check must report the first failing point of its
# scan with both sides, as recorded below, however its expansions are shared.
PERTURBED_CHECKS = {
    "order": lambda: check_order_reduction(6, 4),
    "connection": lambda: check_connection(6, 4),
    "difference": lambda: check_difference(6, 4),
    "multistep": lambda: check_multistep_difference(6, 4, 3),
    "cube": lambda: check_cube_transform(6, 4),
    "simplex": lambda: check_simplex_transform(6, 4),
    "classical": lambda: check_classical_reduction(6),
    "companion": lambda: check_companion_shift(6, 4),
    "monic": lambda: check_monic_degree(6, 4),
    "product": lambda: check_generating_product(4, 8),
    "route": lambda: check_route_agreement(6, 4),
}
B34 = "z^4 + 1/2*z^3 - 11/36*z^2 - 1/72*z + "
C25 = "z^5 - 15/4*z^4 + 85/18*z^3 - 25/12*z^2 + 7/90*z + "
C26 = "6*z^5 - 15/2*z^4 + 10/3*z^3 - 1/5*z"
C34 = "z^4 - 7/2*z^3 + 151/36*z^2 - 137/72*z + "
PERTURBED_WITNESSES = {
    (3, "B", 4, Fraction(1)): {
        "order": ({"variant": "B", "n": 4, "k": 3}, B34 + "55243/54000", B34 + "1243/54000"),
        "connection": ({"variant": "B", "n": 4, "k": 3}, B34 + "55243/54000", B34 + "1243/54000"),
        "difference": (
            {"variant": "B", "n": 5, "k": 3},
            "5*z^4 - 15/2*z^3 + 85/18*z^2 - 25/24*z + 2257/450",
            "5*z^4 - 15/2*z^3 + 85/18*z^2 - 25/24*z + 7/450",
        ),
        "multistep": (
            {"variant": "B", "n": 5, "k": 3, "m": 1},
            "5*z^4 + 25/2*z^3 + 110/9*z^2 + 425/72*z + 11153/1800",
            "5*z^4 + 25/2*z^3 + 110/9*z^2 + 425/72*z + 2153/1800",
        ),
        "cube": ({"n": 4, "k": 3, "z": "formal"}, B34 + "1243/54000", B34 + "55243/54000"),
        "simplex": ({"n": 4, "k": 3, "z": "formal"}, B34 + "1243/54000", B34 + "55243/54000"),
        "classical": None,
        "companion": ({"n": 4, "k": 3}, C34 + "12493/54000", C34 + "66493/54000"),
        "monic": None,
        "product": None,
        "route": ({"n": 4, "k": 3}, "series=55243/54000", "umbral=1243/54000, stirling=1243/54000"),
    },
    (2, "C", 5, Fraction(1, 3)): {
        "order": ({"variant": "C", "n": 5, "k": 2}, C25 + "47/120", C25 + "7/120"),
        "connection": ({"variant": "C", "n": 5, "k": 2}, C25 + "47/120", C25 + "7/120"),
        "difference": ({"variant": "C", "n": 6, "k": 2}, C26 + " + 2", C26),
        "multistep": ({"variant": "C", "n": 6, "k": 2, "m": 1}, C26 + " + 2", C26),
        "cube": None,
        "simplex": None,
        "classical": None,
        "companion": ({"n": 5, "k": 2}, C25 + "47/120", C25 + "7/120"),
        "monic": None,
        "product": ({"k": 2, "n": 5}, "7/120", "47/120"),
        "route": None,
    },
    (1, "B", 1, Fraction(1, 4)): {
        "order": ({"variant": "B", "n": 1, "k": 2}, "z + 1/4", "z + 3/8"),
        "connection": ({"variant": "B", "n": 1, "k": 2}, "z + 1/4", "z + 3/8"),
        "difference": ({"variant": "B", "n": 2, "k": 2}, "2*z - 1/2", "2*z - 1/4"),
        "multistep": ({"variant": "B", "n": 2, "k": 2, "m": 1}, "2*z + 3/2", "2*z + 7/4"),
        "cube": ({"n": 1, "k": 1, "z": "formal"}, "z + 1/2", "z + 3/4"),
        "simplex": None,
        "classical": ({"variant": "B", "n": 1}, "z + 3/4", "z + 1/2"),
        "companion": ({"n": 1, "k": 1}, "z - 1/2", "z - 1/4"),
        "monic": None,
        "product": None,
        "route": ({"n": 1, "k": 1}, "series=3/4", "umbral=1/2, stirling=1/2"),
    },
    # b_0 is the leading coefficient of every lift, so only it can fail monic-degree
    (3, "B", 0, Fraction(1)): {
        "order": ({"variant": "B", "n": 0, "k": 3}, "2", "1"),
        "connection": ({"variant": "B", "n": 0, "k": 3}, "2", "1"),
        "difference": ({"variant": "B", "n": 1, "k": 3}, "2", "1"),
        "multistep": ({"variant": "B", "n": 1, "k": 3, "m": 1}, "2", "1"),
        "cube": ({"n": 0, "k": 3, "z": "formal"}, "1", "2"),
        "simplex": ({"n": 0, "k": 3, "z": "formal"}, "1", "2"),
        "classical": None,
        "companion": ({"n": 0, "k": 3}, "1", "2"),
        "monic": ({"n": 0, "k": 3, "variant": "B"}, "2", "monic of degree n"),
        "product": None,
        "route": ({"n": 0, "k": 3}, "series=2", "umbral=1, stirling=1"),
    },
}


@pytest.mark.parametrize("perturbation", list(PERTURBED_WITNESSES))
def test_perturbed_table_gives_the_first_witness_of_each_scan(monkeypatch, perturbation):
    k0, variant0, n0, delta = perturbation
    series = verify.poly_bernoulli_series

    def perturbed(n_max, k, variant="B"):
        table = series(n_max, k, variant)
        if (k, variant) != (k0, variant0) or n0 > n_max:
            return table
        numbers = [table.number(n) for n in range(n_max + 1)]
        numbers[n0] += delta
        return PolyBernoulliTable(k, variant, table.route, integer_numerators(numbers))

    monkeypatch.setattr(verify, "poly_bernoulli_series", perturbed)
    for name, expected in PERTURBED_WITNESSES[perturbation].items():
        chk = PERTURBED_CHECKS[name]()
        if expected is None:
            assert chk.status == "pass", name
        else:
            assert (chk.status, chk.witness, chk.lhs, chk.rhs) == ("fail", *expected), name
    # the refuting counterexamples move only when the k = 1 row moves
    got = {1: "z - 3/4", 2: "-z + 1/4"} if k0 > 1 else {1: "z - 5/8", 2: "-z + 3/8"}
    refuted = check_refuted_variant(6, 3)
    assert refuted.status == "pass"
    assert refuted.witness == {
        f"reading_{r}": {"n": 1, "k": 2, "got": g, "expected": "z + 1/4"} for r, g in got.items()
    }


B9_CUBED = UmbralExpression.monomial({bernoulli_symbol(9): 3})


def test_perturbed_companion_symbol_gives_the_first_witness(monkeypatch):
    # divided-difference reads no table: perturb the companion symbols X.  A
    # constant moves E[X^j] from j = 1 on, B_9^3 from j = 2 on (its mean B_3
    # is 0), so the last case fails at n = 3 for k = 3 and at n = 2 for k = 4,
    # and the witness shows that the scan runs k outer, n inner.
    shift = {2: Fraction(1, 7)}, {3: Fraction(1, 7)}, {2: B9_CUBED, 3: Fraction(1, 7)}
    for extra, witness, lhs, rhs in (
        (shift[0], {"n": 2, "k": 3}, "2*z + 5/4", "2*z + 39/28"),
        (shift[1], {"n": 2, "k": 4}, "2*z + 9/8", "2*z + 71/56"),
        (shift[2], {"n": 3, "k": 3}, "3*z^2 + 15/4*z + 11/9", "3*z^2 + 15/4*z + 157/126"),
    ):
        monkeypatch.setattr(verify, "c_symbol", lambda k, extra=extra: c_symbol(k) + extra.get(k, 0))
        chk = check_divided_difference(6, 4)
        assert (chk.status, chk.witness, chk.lhs, chk.rhs) == ("fail", witness, lhs, rhs)


def test_transform_checks_expand_once_per_k_and_z(monkeypatch):
    calls = []
    kernel = umbral._expand

    def counted(expr, n, *args, **kwargs):
        calls.append(n)
        return kernel(expr, n, *args, **kwargs)

    monkeypatch.setattr(umbral, "_expand", counted)
    # formal z and z = 0, 1, -1: four expansions to the top power per k
    for check, k_first in ((check_cube_transform, 1), (check_simplex_transform, 2)):
        calls.clear()
        assert check(7, 4).status == "pass"
        assert calls == [7] * 4 * (4 - k_first + 1), check.__name__
    # divided difference: (z + 1)^e once; X^e, both sides once per k; the k = 1 case twice
    calls.clear()
    assert check_divided_difference(7, 4).status == "pass"
    assert calls == [6] + [6, 7, 7] * 3 + [3, 3]


def perturb_moment(monkeypatch, kind, exponent):
    """Raise the moment E[s^exponent] of the kind-symbols s by 1."""
    rows = umbral._moment_row

    def perturbed(k, top):
        row, d = rows(k, top)
        if k == kind and top >= exponent:
            row = row[:exponent] + (row[exponent] + d,) + row[exponent + 1 :]
        return row, d

    monkeypatch.setattr(umbral, "_moment_row", perturbed)


@pytest.mark.parametrize(
    "kind, exponent, witness, lhs, rhs",
    [
        ("U", 3, {"a": 0, "b": 0, "c": 3}, "5/4", "1/4"),
        ("B", 4, {"a": 0, "b": 4, "c": 0}, "29/30", "-1/30"),
    ],
)
def test_perturbed_moment_gives_the_first_independence_witness(
    monkeypatch, kind, exponent, witness, lhs, rhs
):
    # one moment raised by 1; B_4 moves both B_1^4 and B_2^4, and the scan
    # runs a outer, then b, then c, so (0, 4, 0) is found before (4, 0, 0)
    perturb_moment(monkeypatch, kind, exponent)
    chk = check_independence(10)
    assert (chk.status, chk.witness, chk.lhs, chk.rhs) == ("fail", witness, lhs, rhs)


@pytest.mark.parametrize(
    "kind, exponent, cancellation, periodicity",
    [
        ("U", 3, ({"n": 3}, "1", "0"), None),
        # E[(1 + B)^4] and E[B^4] move together, so the direct form fails at n = 5
        ("B", 4, ({"n": 4}, "1", "0"), ({"n": 5, "form": "direct"}, "5", "0")),
    ],
)
def test_perturbed_moment_gives_the_first_axiom_witness(
    monkeypatch, kind, exponent, cancellation, periodicity
):
    perturb_moment(monkeypatch, kind, exponent)
    for check, expected in ((check_cancellation, cancellation), (check_periodicity, periodicity)):
        chk = check(30)
        if expected is None:
            assert chk.status == "pass", check.__name__
        else:
            assert (chk.status, chk.witness, chk.lhs, chk.rhs) == ("fail", *expected), check.__name__


def test_independence_is_one_expectation_per_slice(monkeypatch):
    calls = []
    expect = UmbralExpression.expect

    def counted(self):
        calls.append(1)
        return expect(self)

    monkeypatch.setattr(UmbralExpression, "expect", counted)
    for bound in (0, 3, 10):
        calls.clear()
        assert check_independence(bound).status == "pass"
        assert len(calls) <= bound + 1, (bound, len(calls))


def test_independence_bound_keeps_the_tags_in_range():
    # the z tags reach (bound + 1)^2 - 1, so 180 is the largest bound that fits
    assert 181**2 - 1 <= umbral.MAX_EXPONENT < 182**2 - 1
    with pytest.raises(ValueError):
        check_independence(181)


def shifted(value, by):
    """A zetanum return value with each quadrature value or float moved by `by`."""
    if isinstance(value, float):
        return value + by
    if isinstance(value, dict):
        return {m: shifted(r, by) for m, r in value.items()}
    if isinstance(value, tuple):
        return tuple(shifted(r, by) for r in value)
    return dataclasses.replace(value, value=value.value + by)


def test_scan_within_reports_the_first_failing_case_and_builds_no_later_one():
    built = []

    def cases(zetanum):
        for i, got in enumerate((1.0, 1.5, 3.0, 4.0)):
            built.append(i)
            yield {"i": i}, got, 1.0, 0.5

    chk = verify._scan_within("demo", {"p": 1}, 0.5, cases)
    assert (chk.status, chk.witness, chk.lhs, chk.rhs) == ("fail", {"i": 2}, "3.0", "1.0")
    assert (chk.params, chk.tolerance, built) == ({"p": 1}, 0.5, [0, 1, 2])
    # a NaN is never within a bound
    nan = verify._scan_within("demo", {}, 0.5, lambda zetanum: iter([({}, math.nan, 1.0, 0.5)]))
    assert nan.status == "fail"
    assert verify._scan_within("demo", {}, 0.5, lambda zetanum: iter([({}, 1.2, 1.0, 0.5)])).status == "pass"


@pytest.mark.parametrize(
    "check, function, witness",
    [
        (check_moment_realization, "bernoulli_moment_quadrature", {"n": 0}),
        (check_polygamma_bridge, "negative_moment", {"m": 1, "z": 0.25}),
        (check_reference_values, "negative_moment_batch", {"m": 1, "tol": 5e-6}),
        (check_two_route_zeta, "ak_zeta_mellin", {"m": 1}),
        (check_telescoping, "telescoping_check", {"k": 2}),
        (check_double_integral, "zeta_star_3_1_double", {"sub": "closed-form"}),
        (check_double_integral, "negative_moment", {}),
    ],
)
def test_shifted_zeta_route_fails_its_check(monkeypatch, check, function, witness):
    # negative controls: one zetanum route moved by 1e-3 fails the zeta check
    # that reads it, at the first comparison the route enters; both sides are
    # floats, whose text depends on the libm, so only their presence is pinned
    from akzeta import zetanum

    route = getattr(zetanum, function)
    monkeypatch.setattr(zetanum, function, lambda *args, **kwargs: shifted(route(*args, **kwargs), 1e-3))
    chk = check()
    assert (chk.status, chk.witness) == ("fail", witness)
    assert chk.lhs is not None and chk.rhs is not None and chk.tolerance is not None

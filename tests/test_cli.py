"""Command-line behavior: outputs, formats, exit codes, round-trips."""
import json
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from akzeta.cli import (
    EXIT_CROSSCHECK_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    MAX_K,
    MAX_M,
    MAX_N,
    MAX_TERMS,
    MAX_VERIFY_K,
    MAX_VERIFY_M,
    MAX_VERIFY_N,
    main,
)
from akzeta.quadspec import MAX_NODES
from akzeta.umbral import ExpansionCapError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_num_scalar_json(capsys):
    code, out, err = run_cli(capsys, "num", "--n", "1", "--k", "2")
    assert code == EXIT_OK
    assert json.loads(out) == {"num": "1", "den": "4"}
    assert "method=series" in err


def test_num_trivial(capsys):
    code, out, _ = run_cli(capsys, "num", "--n", "0", "--k", "7", "--format", "plain")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_num_poly_coefficients(capsys):
    # B_2^{(1)}(z) = B_2(z+1) = z^2 + z + 1/6, low to high
    code, out, _ = run_cli(capsys, "num", "--n", "2", "--k", "1", "--poly")
    assert code == EXIT_OK
    assert json.loads(out) == [
        {"num": "1", "den": "6"},
        {"num": "1", "den": "1"},
        {"num": "1", "den": "1"},
    ]


def test_num_methods_agree(capsys):
    for variant in ("B", "C"):
        values = {}
        for method in ("series", "umbral", "stirling"):
            code, out, _ = run_cli(
                capsys, "num", "--n", "4", "--k", "3", "--variant", variant,
                "--method", method,
            )
            assert code == EXIT_OK
            values[method] = json.loads(out)
        assert values["series"] == values["umbral"] == values["stirling"]


def test_num_z_evaluation(capsys):
    code, out, _ = run_cli(
        capsys, "num", "--n", "2", "--k", "1", "--z", "-1", "--format", "plain"
    )
    assert code == EXIT_OK
    assert out.strip() == "1/6"  # B_2(0)


@pytest.mark.parametrize("z", ["-1/2", "-5/3"])
def test_num_z_negative_rational_as_separate_word(capsys, z):
    attached = run_cli(capsys, "num", "--n", "3", "--k", "2", f"--z={z}", "--format", "plain")
    separate = run_cli(capsys, "num", "--n", "3", "--k", "2", "--z", z, "--format", "plain")
    assert attached[0] == EXIT_OK
    assert separate == attached


def test_num_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "num", "--n", "-1", "--k", "2")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "num", "--n", "1", "--k", "0")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "num", "--n", "1", "--k", "2", "--z", "a/b")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "num", "--n", "1", "--k", "2", "--poly", "--z", "1")
    assert code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["num", "--n", "1", "--k", "2", "--method", "bogus"])
    assert exc.value.code == EXIT_USAGE


def test_size_limits_are_usage_errors(capsys):
    # each request is refused before any table or array is built
    for argv in (
        ["num", "--n", str(MAX_N + 1), "--k", "2"],
        ["num", "--n", "1", "--k", str(MAX_K + 1)],
        ["table", "--n-max", str(MAX_N + 1), "--k-max", "1"],
        ["table", "--n-max", "1", "--k-max", str(MAX_K + 1)],
        ["mzv", "--sig", "2", "--terms", str(MAX_TERMS + 1)],
        ["zeta", "--k", str(MAX_K + 1), "--m", "1"],
        ["zeta", "--k", "2", "--m", str(MAX_M + 1), "--route", "mellin"],
        ["verify", "--max-n", str(MAX_VERIFY_N + 1)],
        ["verify", "--max-k", str(MAX_VERIFY_K + 1)],
        ["verify", "--max-m", str(MAX_VERIFY_M + 1)],
        ["zeta", "--k", "2", "--m", "2", "--nodes", str(MAX_NODES + 1)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and "<=" in err


def test_quadrature_settings_are_checked_for_every_command(capsys, tmp_path):
    # the QuadratureSpec that zeta would build rejects one level, so all do
    for argv in (
        ["num", "--n", "1", "--k", "2"],
        ["table", "--n-max", "1", "--k-max", "1"],
        ["mzv", "--sig", "2", "--terms", "10"],
        ["verify", "--max-n", "2", "--max-k", "1"],
        ["zeta", "--k", "1", "--m", "2"],
    ):
        code, out, err = run_cli(capsys, *argv, "--levels", "1")
        assert code == EXIT_USAGE, argv
        assert out == "" and "levels" in err
    conf = tmp_path / "akzeta.conf"
    conf.write_text("w_cutoff=-1\n")
    code, _, _ = run_cli(capsys, "--config", str(conf), "num", "--n", "1", "--k", "2")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_w_cutoff_is_a_usage_error(capsys, value):
    # a NaN or infinite cutoff would put every sech^2 node at NaN
    for argv in (("zeta", "--k", "2", "--m", "1"), ("num", "--n", "1", "--k", "2")):
        code, out, err = run_cli(capsys, *argv, "--w-cutoff", value)
        assert code == EXIT_USAGE, argv
        assert out == "" and "w_cutoff" in err


def test_hurwitz_tolerance_beyond_reach_is_a_convergence_failure(capsys):
    # no Hurwitz head up to 2^20 terms meets 1e-300: exit 2, not a traceback
    code, out, err = run_cli(
        capsys, "zeta", "--k", "1", "--m", "2", "--route", "mellin", "--tolerance", "1e-300"
    )
    assert code == EXIT_CROSSCHECK_FAIL
    assert out == "" and err.startswith("akzeta: convergence failure")


def test_table_csv_k1_matches_bernoulli_at_one(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "3", "--k-max", "1", "--format", "csv"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,variant,num,den"
    assert lines[1] == "0,1,B,1,1"
    assert lines[2] == "1,1,B,1,2"   # B_1(1) = +1/2
    assert lines[3] == "2,1,B,1,6"
    assert lines[4] == "3,1,B,0,1"


def test_table_companion_variant(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "4", "--k-max", "2", "--variant", "C",
        "--format", "csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[2] == "1,1,C,-1,2"  # C_1^{(1)} = B_1 = -1/2


def test_table_route_disagreement_injection(capsys, monkeypatch):
    import akzeta.cli as cli
    from akzeta.polybernoulli import PolyBernoulliTable

    series = cli.poly_bernoulli_series

    def perturbed(n_max, k, variant="B"):
        table = series(n_max, k, variant)
        x, d = table.numerators
        return PolyBernoulliTable(k, variant, table.route, (x[:1] + (x[1] + d,) + x[2:], d))

    monkeypatch.setattr(cli, "poly_bernoulli_series", perturbed)
    code, _, err = run_cli(capsys, "table", "--n-max", "3", "--k-max", "1")
    assert code == EXIT_CROSSCHECK_FAIL
    assert "disagreement" in err


def test_zeta_both_routes(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1", "--route", "both")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert abs(obj["mellin"]["value"] - 1.20206) < 5e-6
    assert abs(obj["moment"]["value"] - 1.20206) < 5e-6
    assert obj["discrepancy"] < 1e-6
    assert obj["moment"]["imag_residue"] < 1e-9


def test_zeta_k1_closed_reduction(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--k", "1", "--m", "2", "--route", "mellin")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert abs(obj["mellin"]["value"] - 2 * 1.2020569031595942854) < 1e-8


def test_zeta_csv_columns(capsys):
    # the CSV row is the JSON object flattened, each route's keys as <route>_<key>
    code, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header == (
        "k,m,mellin_value,mellin_imag_residue,mellin_convergence_delta,mellin_levels_used,"
        "mellin_tail_bound,mellin_rounding_bound,mellin_error_estimate,moment_value,"
        "moment_imag_residue,moment_convergence_delta,moment_levels_used,moment_tail_bound,"
        "moment_error_estimate,discrepancy"
    )
    assert row.startswith("2,1,1.202056")
    _, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1")
    obj = json.loads(out)
    assert {f"{route}_{key}" for route in ("mellin", "moment") for key in obj[route]} | {
        "k", "m", "discrepancy"} == set(header.split(","))
    _, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1", "--format", "plain")
    entries = zip(header.split(","), map(float, row.split(",")))
    assert out.splitlines() == [f"{key} = {v:.12g}" for key, v in entries]


def test_zeta_tail_bound_is_within_half_the_tolerance(capsys):
    # 1e-8 is the --tolerance default
    code, out, _ = run_cli(capsys, "zeta", "--k", "3", "--m", "2", "--route", "both")
    assert code == EXIT_OK
    assert json.loads(out)["moment"]["tail_bound"] <= 1e-8 / 2


@pytest.mark.parametrize("argv", [
    "zeta --k 2 --m 30 --route both",
    "zeta --k 3 --m 3 --tolerance 1e-10 --route both",
])
def test_zeta_fails_where_the_covering_cutoff_does_not_converge(capsys, argv):
    # the cutoff that covers the tail needs more refinement than the levels allow
    code, _, err = run_cli(capsys, *argv.split())
    assert code == EXIT_CROSSCHECK_FAIL
    assert "convergence failure" in err


@pytest.mark.parametrize("argv, estimate, tol", [
    ("zeta --k 3 --m 5", "1.463e-08", "1.000e-08"),
    ("zeta --k 3 --m 8 --tolerance 1e-6", "1.327e-06", "1.000e-06"),
])
def test_zeta_exits_2_when_an_error_estimate_exceeds_the_tolerance(capsys, argv, estimate, tol):
    # the moment route converges, but its delta plus tail bound exceeds the
    # tolerance: the result is printed, then the failing route is named
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_CROSSCHECK_FAIL
    assert json.loads(out)["moment"]["error_estimate"] > float(tol)
    assert err == f"akzeta: moment route: error estimate {estimate} > tolerance {tol}\n"


# the replaced default schedules, (panels, levels): only k = 2 changed its start
REPLACED_SCHEDULE = {1: ("8", "3"), 2: ("8", "3"), 3: ("2", "3")}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zeta_exit_codes_match_the_replaced_schedule(capsys, k):
    # exit codes only: the level memo shares grids between the calls, so their
    # times say nothing
    panels, levels = REPLACED_SCHEDULE[k]
    for m in [*range(1, 13), 20, 30, 40]:
        for extra in ([], ["--tolerance", "1e-10"], ["--route", "moment"]):
            argv = ["zeta", "--k", str(k), "--m", str(m), *extra]
            code = run_cli(capsys, *argv)[0]
            assert code == run_cli(capsys, *argv, "--panels", panels, "--levels", levels)[0], argv


def test_zeta_exits_2_when_routes_differ_by_more_than_their_estimates(capsys, monkeypatch):
    from akzeta import zetanum

    moment = zetanum.ZETA_ROUTES["moment"]

    def shifted(k, m, spec):
        r = moment(k, m, spec)
        return replace(r, value=r.value + 1e-6)

    monkeypatch.setitem(zetanum.ZETA_ROUTES, "moment", shifted)
    code, out, err = run_cli(capsys, "zeta", "--k", "2", "--m", "2")
    assert code == EXIT_CROSSCHECK_FAIL
    assert json.loads(out)["discrepancy"] > 1e-6 - 1e-9
    assert err.startswith("akzeta: mellin and moment routes: discrepancy 1.000e-06 > sum of error estimates")


@pytest.mark.parametrize("k, m", [(2, 2), (1, 6)])
def test_mellin_estimate_covers_rounding_below_double_resolution(capsys, k, m):
    # the rounding bound alone, of the point sum at k = 2 and of the Hurwitz
    # sum at k = 1, exceeds a 1e-16 tolerance
    code, out, err = run_cli(
        capsys, "zeta", "--k", str(k), "--m", str(m), "--route", "mellin", "--tolerance", "1e-16"
    )
    assert code == EXIT_CROSSCHECK_FAIL
    assert json.loads(out)["mellin"]["rounding_bound"] > 1e-16
    assert "mellin route: error estimate" in err


def test_zeta_at_a_large_cutoff_warns_of_no_overflow(capsys):
    # the sech^2 weights beyond |w| ~ 113 are 0, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "zeta", "--k", "2", "--m", "2", "--w-cutoff", "1000")
    assert code == EXIT_CROSSCHECK_FAIL
    assert err.startswith("akzeta: convergence failure") and "overflow" not in err


def test_zeta_route_names(capsys):
    code, out, err = run_cli(capsys, "zeta", "--k", "2", "--m", "2", "--route", "bogus")
    assert code == EXIT_USAGE
    assert out == "" and "route must be one of ('mellin', 'moment', 'both')" in err
    # `both` asks the moment route too, which refuses k >= 4
    code, out, err = run_cli(capsys, "zeta", "--k", "4", "--m", "2")
    assert code == EXIT_USAGE
    assert out == "" and "moment quadrature is limited to k <= 3" in err
    code, out, _ = run_cli(capsys, "zeta", "--k", "4", "--m", "2", "--route", "mellin")
    assert code == EXIT_OK
    assert set(json.loads(out)) == {"k", "m", "mellin"}


def test_num_poly_csv_and_plain(capsys):
    code, out, _ = run_cli(capsys, "num", "--n", "2", "--k", "1", "--poly", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines() == ["degree,num,den", "0,1,6", "1,1,1", "2,1,1"]
    code, out, _ = run_cli(capsys, "num", "--n", "2", "--k", "1", "--poly", "--format", "plain")
    assert code == EXIT_OK
    assert out == "z^2 + z + 1/6\n"


def test_table_plain(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n-max", "2", "--k-max", "1", "--format", "plain"
    )
    assert code == EXIT_OK
    assert out == "B(0,1) = 1\nB(1,1) = 1/2\nB(2,1) = 1/6\n"


@pytest.mark.parametrize("fmt, line", [("csv", "1,1,B,1,2"), ("plain", "B(1,1) = 1/2")])
def test_table_builds_only_the_requested_format(capsys, monkeypatch, fmt, line):
    from akzeta.polybernoulli import PolyBernoulliTable

    def refuse(self):
        raise AssertionError("the JSON rendering was built for another format")

    monkeypatch.setattr(PolyBernoulliTable, "to_json", refuse)
    code, out, _ = run_cli(capsys, "table", "--n-max", "4", "--k-max", "2", "--format", fmt)
    assert code == EXIT_OK
    assert line in out.splitlines()


def test_mzv_csv_and_plain(capsys):
    argv = ("mzv", "--sig", "3,1", "--starred", "--terms", "3000")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header == "signature,starred,terms,value,tail_bound"
    assert row.startswith('"3,1",True,3000,1.35290353')
    code, out, _ = run_cli(capsys, *argv, "--format", "plain")
    assert code == EXIT_OK
    assert out == "zeta*(3,1) = 1.35290353765 +- 5.88e-07  (N=3000)\n"


def test_verify_csv_prints_text_report(capsys):
    argv = ("verify", "--suite", "recurrence", "--max-n", "3", "--max-k", "2")
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    _, plain_out, _ = run_cli(capsys, *argv, "--format", "plain")
    assert csv_out == plain_out
    assert csv_out.endswith(" passed, 0 failed, 0 skipped\n")


def test_mzv(capsys):
    code, out, _ = run_cli(
        capsys, "mzv", "--sig", "3,1", "--starred", "--terms", "3000"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert abs(obj["value"] - 1.3529) < 1e-4
    assert obj["tail_bound"] < 1e-5
    code, out, _ = run_cli(capsys, "mzv", "--sig", "2,1", "--terms", "50000")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 1.2020569) < 1e-3


def test_mzv_rejects_inadmissible(capsys):
    code, _, err = run_cli(capsys, "mzv", "--sig", "1,2")
    assert code == EXIT_USAGE


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "recurrence", "--max-n", "3", "--max-k", "2"
    )
    assert code == EXIT_OK
    assert not json.loads(out)["totals"]["fail"]
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "transforms", "--max-n", "3", "--max-k", "2",
        "--corrupt",
    )
    assert code == EXIT_VERIFY_FAIL


def test_verify_small_grids_and_negative_bounds(capsys):
    # the refuted variant's counterexample sits at n = 1, k = 2, so grids
    # below that still scan it rather than report a false failure
    for argv in (["--max-n", "3", "--max-k", "1"], ["--max-n", "0", "--max-k", "2"]):
        code, out, _ = run_cli(capsys, "verify", "--suite", "recurrence", *argv)
        assert code == EXIT_OK, argv
        assert not json.loads(out)["totals"]["fail"]
    # negative bounds are usage errors before any check runs
    for argv in (["--max-n", "-1"], ["--max-k", "0"], ["--max-m", "-1"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and ">=" in err


def test_json_round_trip_byte_identical(capsys):
    for argv in (
        ["num", "--n", "1", "--k", "2"],
        ["num", "--n", "2", "--k", "1", "--poly"],
        ["mzv", "--sig", "2", "--terms", "1000"],
        ["zeta", "--k", "1", "--m", "2", "--route", "mellin"],
    ):
        _, out, _ = run_cli(capsys, *argv)
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_config_file_and_env(capsys, tmp_path, monkeypatch):
    conf = tmp_path / "akzeta.conf"
    conf.write_text("format=plain  # comment\ntolerance=1e-7\n")
    code, out, _ = run_cli(capsys, "--config", str(conf), "num", "--n", "1", "--k", "2")
    assert code == EXIT_OK
    assert out.strip() == "1/4"
    monkeypatch.setenv("AKZETA_FORMAT", "plain")
    code, out, _ = run_cli(capsys, "num", "--n", "1", "--k", "2")
    assert out.strip() == "1/4"
    # explicit flag beats the environment
    code, out, _ = run_cli(capsys, "num", "--n", "1", "--k", "2", "--format", "json")
    assert json.loads(out) == {"num": "1", "den": "4"}


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("frobnicate=1\n")
    code, _, err = run_cli(capsys, "--config", str(conf), "num", "--n", "1", "--k", "2")
    assert code == EXIT_USAGE
    assert "unknown config key" in err


def test_u_nodes_setting_is_gone(capsys, tmp_path):
    # every unit axis of the moments is integrated in closed form
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--k", "3", "--m", "1", "--u-nodes", "8"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --u-nodes" in capsys.readouterr().err
    conf = tmp_path / "old.conf"
    conf.write_text("u_nodes=8\n")
    code, _, err = run_cli(capsys, "--config", str(conf), "num", "--n", "1", "--k", "2")
    assert code == EXIT_USAGE
    assert "unknown config key" in err


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "num", "--n", "1", "--k", "2", "--format", "plain")
    assert code == EXIT_OK
    assert out.strip() == "1/4"


def test_seed_free_flag_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "--seed-free", "num", "--n", "1", "--k", "2")
    assert code == EXIT_OK


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "akzeta", "num", "--n", "1", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"num": "1", "den": "4"}


def test_expansion_cap_error_is_usage_error(capsys, monkeypatch):
    import akzeta.cli as cli

    def run_all(config):
        raise ExpansionCapError("expansion of a 5-term expression to power 20 exceeds cap 50")

    monkeypatch.setattr(cli, "run_all", run_all)
    code, out, err = run_cli(capsys, "verify", "--suite", "umbral")
    assert code == EXIT_USAGE
    assert out == "" and "expansion cap" in err


# Each exact command must run without importing numpy, which only the
# numerical layer (akzeta.zetanum) needs; a fresh interpreter per case, since
# this one has numpy loaded already.
NUMPY_PROBE = """
import sys
from pathlib import Path
from akzeta.cli import main
main(sys.argv[1:])
print('numpy' in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("num", "--n", "1", "--k", "2"),
        ("table", "--n-max", "5", "--k-max", "2"),
        ("verify", "--suite", "recurrence"),
    ],
)
def test_exact_commands_do_not_import_numpy(argv):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_oversized_nodes_are_refused_before_numpy_loads():
    # 100000 nodes would ask numpy for a 74.5 GiB matrix; the spec refuses
    # them as a usage error before the numeric layer is imported
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE.replace("main(sys.argv[1:])", "print(main(sys.argv[1:]))"), "zeta",
         "--k", "2", "--m", "2", "--nodes", "100000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(EXIT_USAGE), "False"]
    assert f"nodes <= {MAX_NODES}" in proc.stderr


def test_package_import_is_numpy_free_until_a_numeric_name_is_used():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, akzeta; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

    import akzeta
    import akzeta.zetanum

    assert akzeta.ak_zeta_mellin is akzeta.zetanum.ak_zeta_mellin
    assert akzeta.QuadratureSpec is akzeta.zetanum.QuadratureSpec
    with pytest.raises(AttributeError):
        akzeta.no_such_name


GOLDEN = Path(__file__).resolve().parent / "golden"


GOLDEN_CASES = [
    ("num_umbral_poly.txt", "num --n 14 --k 4 --method umbral --poly", EXIT_OK),
    ("num_umbral_C_z.txt", "num --n 12 --k 3 --method umbral --variant C --z 3/7", EXIT_OK),
    ("table_csv.txt", "table --n-max 12 --k-max 4 --format csv", EXIT_OK),
    ("table_json.txt", "table --n-max 12 --k-max 4 --format json", EXIT_OK),
    ("table_plain.txt", "table --n-max 12 --k-max 4 --format plain", EXIT_OK),
    ("num_poly_csv.txt", "num --n 14 --k 4 --method umbral --poly --format csv", EXIT_OK),
    ("verify_zeta.json", "verify --suite zeta --format json", EXIT_OK),
    ("verify_json.json", "verify --format json", EXIT_OK),
    ("verify_corrupt.json", "verify --corrupt --format json", EXIT_VERIFY_FAIL),
    ("verify_max_k1.txt", "verify --max-k 1 --format plain", EXIT_OK),
]


# each case is named by its file and command line
@pytest.mark.parametrize("name, argv, exit_code", GOLDEN_CASES, ids=[f"{n}-{a}" for n, a, _ in GOLDEN_CASES])
def test_golden_output_is_byte_identical(capsys, name, argv, exit_code):
    # rational and pass/fail output only: float values depend on the libm
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == exit_code
    assert out == (GOLDEN / name).read_text()


def readme_commands() -> list[tuple[list[str], str]]:
    """The `akzeta ...` lines of README's "Command line" block, as (argv,
    trailing comment) pairs."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("akzeta "):
            out.append((command.split()[1:], comment.strip()))
    return out


def test_readme_command_line_examples_run(capsys):
    commands = readme_commands()
    num = ["num", "--n", "1", "--k", "2"]
    assert num in [argv for argv, _ in commands]
    for argv, comment in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv, err)
        if argv == num:
            assert json.loads(out) == json.loads(comment)

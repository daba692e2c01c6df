"""Command-line behavior: outputs, formats, exit codes, round-trips."""
import json
import subprocess
import sys

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


def test_table_route_disagreement_injection(capsys):
    code, _, err = run_cli(
        capsys, "table", "--n-max", "3", "--k-max", "1", "--inject-disagreement"
    )
    assert code == EXIT_CROSSCHECK_FAIL
    assert "disagreement" in err


def test_zeta_both_routes(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1", "--route", "both")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert abs(obj["mellin"] - 1.20206) < 5e-6
    assert abs(obj["moment"]["value"] - 1.20206) < 5e-6
    assert obj["discrepancy"] < 1e-6
    assert obj["moment"]["imag_residue"] < 1e-9


def test_zeta_k1_closed_reduction(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--k", "1", "--m", "2", "--route", "mellin")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert abs(obj["mellin"] - 2 * 1.2020569031595942854) < 1e-8


def test_zeta_csv_columns(capsys):
    # the moment tail bound is reported in JSON only
    code, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header == (
        "k,m,mellin,moment_value,moment_imag_residue,moment_convergence_delta,discrepancy"
    )
    assert row.startswith("2,1,1.202056")
    _, out, _ = run_cli(capsys, "zeta", "--k", "2", "--m", "1")
    assert "tail_bound" in json.loads(out)["moment"]


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

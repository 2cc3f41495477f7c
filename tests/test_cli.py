import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mahlerzeta import cli, special_constants
from mahlerzeta.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_logzeta_hadamard(capsys):
    code, out, err = run_cli(
        ["logzeta", "--coin", "hadamard", "--xi", "0.785398", "--shift", "m",
         "--u", "-0.1", "--grid", "4096"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert payload["command"] == "logzeta"
    assert abs(payload["result"] - (-0.0049874)) < 1e-6
    assert payload["inputs"]["u"] == -0.1
    # rho = |u| = 0.1: one proven grid in place of the 2048, 4096 ladder
    diagnostics = payload["diagnostics"]
    assert diagnostics["refinement_evaluations"] == 1
    assert diagnostics["error_bound"] == diagnostics["last_delta"] <= 1e-15


def test_logzeta_prints_no_error_bound_on_a_ladder(capsys):
    # a unitary coin at |u| = 1 has no strip: rho = 1
    code, out, _ = run_cli(["logzeta", "--coin", "hadamard", "--xi", "0.785398", "--shift", "f",
                            "--u", "-1", "--grid", "4096"], capsys)
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert diagnostics["refinement_evaluations"] == 2 and diagnostics["error_bound"] is None


def test_mahler_log2(capsys):
    code, out, _ = run_cli(["mahler", "--poly", "X1 + 2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["result"] - math.log(2)) < 1e-10
    assert payload["diagnostics"]["route"] == "jensen"


def test_mahler_quadrature_route(capsys):
    code, out, _ = run_cli(
        ["mahler", "--poly", "X1 + 2", "--method", "quadrature"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["result"] - math.log(2)) < 1e-10
    assert payload["diagnostics"]["route"] == "quadrature"
    assert payload["diagnostics"]["singular_on_torus"] is False


def test_mahler_quadrature_vanishing_product_to_rounding(capsys):
    # (1 + X1)(1 + X2): the grid gaps halve, so the ladder extrapolates at ratio 2
    code, out, _ = run_cli(
        ["mahler", "--poly", "X1*X2 + X1 + X2 + 1", "--method", "quadrature"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["result"]) < 1e-12
    assert payload["diagnostics"]["singular_on_torus"] is True


def test_mahler_quadrature_zero_on_grid_nodes_exit_1(capsys):
    # the midpoint diagonal lies on the zero set
    code, out, err = run_cli(["mahler", "--poly", "X1 - X2", "--method", "quadrature"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed: the torus mean on the 128^2 grid is -inf") \
        and err.count("\n") == 1


def test_mahler_jensen_several_variables(capsys):
    code, out, _ = run_cli(
        ["mahler", "--poly", "X1 + X2 + X3 + 1", "--method", "jensen"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["diagnostics"]["route"] == "jensen_reduced"
    target = 7 * special_constants()["zeta3"] / (2 * math.pi ** 2)
    assert abs(payload["result"] - target) < 1e-8


def test_mahler_auto_takes_reduced_route_on_closed_form_fibers(capsys):
    code, out, _ = run_cli(["mahler", "--poly", "X1 + X2 + X3 + 1"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["diagnostics"]["route"] == "jensen_reduced"
    target = 7 * special_constants()["zeta3"] / (2 * math.pi ** 2)
    assert abs(payload["result"] - target) < 1e-8


def test_mahler_auto_smyth_2var_to_rounding(capsys):
    code, out, _ = run_cli(["mahler", "--poly", "X1 + X2 + 1", "--grid", "1024"], capsys)
    assert code == 0
    target = 3 * math.sqrt(3) * special_constants()["L_chi3_2"] / (4 * math.pi)
    assert abs(json.loads(out)["result"] - target) < 1e-15


def test_mahler_auto_keeps_quadrature_above_span_2(capsys):
    code, out, _ = run_cli(["mahler", "--poly", "X1^32 + X2^32 + 1", "--grid", "8"], capsys)
    assert code == 0
    assert json.loads(out)["diagnostics"]["route"] == "quadrature"


@pytest.mark.parametrize("args", [
    ["--poly", "X1 + X2 + 1"],
    ["--poly", "X1 + X1^-1 + X2 + X2^-1 + 5"],
    ["--poly", "X1^2 + X1^-1*X2 + 3", "--grid", "64", "--tol", "1e-4"],
    ["--poly", "X1*X2 + X2^-1*X3 + 2*X3 + 1", "--grid", "32"],
])
def test_mahler_auto_prints_what_jensen_prints(capsys, args):
    code, auto, _ = run_cli(["mahler", *args], capsys)
    assert code == 0
    code, jensen, _ = run_cli(["mahler", *args, "--method", "jensen"], capsys)
    assert code == 0
    assert auto == jensen.replace('"method": "jensen"', '"method": "auto"', 1)


def test_mahler_reduced_work_budget_exit_1(capsys):
    # degree 16 fibers take the companion eigensolve, and the breakpoint
    # search's first sample of 2^17 of them is already over the budget
    code, out, err = run_cli(["mahler", "--poly", "X1^16*X2^3 + 2*X2^16 - X1^5 + 3",
                              "--grid", "131072", "--method", "jensen"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed: the reduced route's fiber evaluations exceed "
                          "its work budget") and err.count("\n") == 1


def test_mahler_unresolved_crossings_refused_then_quadrature(capsys):
    # 1200 toric crossings, which the 512-node sample grid cannot resolve:
    # its fiber coefficients have degree 600, so the breakpoint search
    # refuses the sample before evaluating a fiber
    code, out, err = run_cli(["mahler", "--poly", "X1^600 + X2 + 1", "--method", "jensen"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == ("computation failed: a sample of 512 nodes aliases fiber coefficients "
                   "of degree 600; the breakpoint search needs more than 1200\n")
    code, out, err = run_cli(["mahler", "--poly", "X1^600 + X2 + 1"], capsys)
    assert code == 0
    assert json.loads(out)["diagnostics"]["route"] == "quadrature"


def test_mahler_zeta_mode(capsys):
    code, out, _ = run_cli(["mahler", "--poly", "X1 + 2", "--s", "2"], capsys)
    assert code == 0
    assert abs(json.loads(out)["result"] - 5.0) < 1e-9


def test_mahler_parse_error_exit_2(capsys):
    code, out, err = run_cli(["mahler", "--poly", "X1 +* 2"], capsys)
    assert code == 2
    assert out == ""
    assert "byte 4" in err


def test_zeta_finite(capsys):
    code, out, _ = run_cli(
        ["zeta-finite", "--coin", "hadamard", "--xi", "0.785398", "--N", "1",
         "--u", "0.5"], capsys)
    assert code == 0
    assert abs(json.loads(out)["result"] - 4 / 3) < 1e-12


def test_zeta_finite_dense_route(capsys):
    code, out, _ = run_cli(
        ["zeta-finite", "--coin", "grover", "--d", "2", "--N", "2", "--u", "-0.3",
         "--dense"], capsys)
    assert code == 0
    assert json.loads(out)["diagnostics"]["route"] == "dense"


def test_zeta_finite_singular_exit_1(capsys):
    code, _, err = run_cli(
        ["zeta-finite", "--coin", "rw", "--d", "1", "--N", "2", "--u", "1.0"], capsys)
    assert code == 1
    assert "singular" in err


def test_zeta_finite_dense_negative_determinant_exit_1(capsys):
    code, out, err = run_cli(
        ["zeta-finite", "--coin", "grover", "--d", "2", "--N", "3", "--u", "-2", "--dense"],
        capsys)
    assert code == 1
    assert out == ""
    assert err == "computation failed: determinant is not positive real (arg 3.142e+00)\n"


@pytest.mark.parametrize("N", ["0", "-1"])
def test_zeta_finite_dense_non_positive_side_exit_2(capsys, N):
    code, out, err = run_cli(
        ["zeta-finite", "--coin", "rw", "--N", N, "--u", "-0.5", "--dense"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: N must be >= 1, got {N}\n"


def test_coin_output(capsys):
    code, out, _ = run_cli(["coin", "--coin", "grover", "--d", "2"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["classification"] == ["unitary"]
    assert payload["result"]["entries"][0][0] == [-0.5, 0]


def test_cr_csv_format(capsys):
    code, out, _ = run_cli(
        ["cr", "--coin", "rw", "--d", "1", "--r-max", "4", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,C_r"
    assert lines[1] == "1,0"
    assert lines[2] == "2,0.5"


def test_cr_json_path_sum(capsys):
    code, out, _ = run_cli(
        ["cr", "--coin", "hadamard", "--xi", "0.785398", "--r-max", "2"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["method"] == "path_sum"
    assert abs(payload["result"]["values"][1][1] - 1.0) < 1e-6


def test_cr_over_the_light_cone_budget_exit_1(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["cr", "--coin", "rw", "--r-max", "1000000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed: step count 1000000 exceeds the light-cone budget")
    assert err.count("\n") == 1


@pytest.mark.parametrize("refused, accepted", [
    ("zeta-finite --coin grover --d 33 --N 1 --u -0.5",
     "zeta-finite --coin rw --d 32 --N 1 --u -0.5"),
    ("cr --coin grover --d 33 --r-max 1 --method trace_finite --N 1",
     "cr --coin grover --d 32 --r-max 1 --method trace_finite --N 1"),
    ("coin --coin grover --d 2000", "coin --coin grover --d 32"),
])
def test_dimension_above_32_exit_2(capsys, refused, accepted):
    # numpy takes at most 32 axes in some calls, so d stops at 32; the
    # refusal is one stderr line before anything is built
    code, out, err = run_cli(refused.split(), capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: d must be a positive integer up to 32, got {refused.split()[4]}\n"
    code, out, _ = run_cli(accepted.split(), capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["d"] == 32


@pytest.mark.parametrize("method", [["--method", "quad_limit"],
                                    ["--method", "trace_finite", "--N", "64"]])
def test_cr_over_the_grid_series_budget_exit_1(capsys, method):
    start = time.perf_counter()
    code, out, err = run_cli(["cr", "--coin", "rw", "--r-max", "100000"] + method, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed: C_r up to r = 100000 exceeds the grid series budget")
    assert err.count("\n") == 1


def test_hyper(capsys):
    code, out, _ = run_cli(
        ["hyper", "--a", "1.5,1.5,1,1", "--b", "2,2,2", "--x", "0"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == 1.0


def test_logzeta_series_mode(capsys):
    code, out, _ = run_cli(
        ["logzeta", "--coin", "rw", "--d", "1", "--u", "-0.5", "--series",
         "--r-max", "40"], capsys)
    payload = json.loads(out)
    assert code == 0
    expected = math.log((1 + math.sqrt(0.75)) / 2)
    assert abs(payload["result"] - expected) < payload["diagnostics"]["tail_bound"] + 1e-10


def test_stgf_and_lambda(capsys):
    code, out, _ = run_cli(["stgf", "--d", "1", "--u", "0.5"], capsys)
    assert code == 0
    value = json.loads(out)["result"]
    expected = math.log(4.0) + math.log((1 + math.sqrt(0.75)) / 2)
    assert abs(value - expected) < 1e-8

    code, out, _ = run_cli(["lambda", "--d", "1"], capsys)
    assert code == 0
    assert abs(json.loads(out)["result"]) < 1e-3


def test_transience_quick(capsys):
    code, out, _ = run_cli(
        ["transience", "--d", "1", "--u-values", "0.5,0.6,0.7"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["result"]["verdict"] == "divergent"
    assert len(payload["result"]["u_dlog"]) == 3


def test_verify_constants_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "constants"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["diagnostics"]["failed"] == 0
    assert len(payload["result"]) == 3
    for report in payload["result"]:
        assert report["passed"] is True


def test_verify_unknown_suite_names_every_group(capsys):
    code, out, err = run_cli(["verify", "--suite", "bogus"], capsys)
    assert code == 2
    assert out == ""
    for group in ("all", "qw1d", "grover", "rw", "trees", "transience", "smyth",
                  "constants"):
        assert f"'{group}'" in err


def test_mahler_grid_over_budget_exit_1(capsys):
    # the first grid, 512^3 = 2^27 nodes, is over the 2^26 budget
    code, out, err = run_cli(
        ["mahler", "--poly", "X1 + X2 + X3 + 1", "--grid", "1024", "--method", "quadrature"],
        capsys)
    assert code == 1
    assert out == ""
    assert "grid 512^3" in err and "cap" in err


def test_lambda_grid_budget_counts_folded_nodes(capsys):
    # the 2^26 budget counts the nodes the folded grid evaluates: its M/2
    # leading nodes times floor(M/4) + 1 pair rows of M/2.  The ladder 256,
    # 512 of --grid 512 fits it, and the 1024 rung of --grid 1024
    # (512 x 257 x 512 nodes) does not
    code, out, _ = run_cli(["lambda", "--d", "3", "--grid", "512"], capsys)
    assert code == 0
    assert json.loads(out)["result"] == 1.6733892978492759
    code, out, err = run_cli(["lambda", "--d", "3", "--grid", "1024"], capsys)
    assert code == 1
    assert out == ""
    assert "grid 512x257x512 = 67371008 nodes exceeds the cap" in err


def test_verify_tol_file(tmp_path, capsys):
    tol_file = tmp_path / "tols.json"
    # the three-variable Smyth route converges algebraically, so its gap is
    # never 0 (the special constants are correctly rounded and can be)
    tol_file.write_text(json.dumps({"smyth_3var": 0.0}))
    code, out, _ = run_cli(["verify", "--suite", "smyth",
                            "--tol-file", str(tol_file)], capsys)
    payload = json.loads(out)
    assert code == 1
    assert payload["diagnostics"]["failed"] == 1


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"qw1d": null}',
    '{"qw1d": "nan"}',
    '{"qw1d": -1}',
    '{"qw1d": Infinity}',
])
def test_verify_malformed_tol_file_exit_2(tmp_path, capsys, text):
    tol_file = tmp_path / "tols.json"
    tol_file.write_text(text)
    code, out, err = run_cli(["verify", "--suite", "qw1d", "--tol-file", str(tol_file)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_evolve_over_budget_exit_1(capsys):
    code, out, err = run_cli(["evolve", "--coin", "rw", "--N", "2", "--steps", "100000000"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("computation failed: 100000000 steps") and "evolve budget" in err


@pytest.mark.parametrize("args", [
    ["--N", "0"],
    ["--N", "0", "--initial", "uniform"],
    ["--N", "-2"],
])
def test_evolve_non_positive_side_exit_2(capsys, args):
    code, out, err = run_cli(["evolve", "--coin", "rw", "--steps", "3"] + args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: dim_d and side_N must be positive") and err.count("\n") == 1


def test_byte_identical_output(capsys):
    args = ["logzeta", "--coin", "rw", "--d", "1", "--u", "-0.5", "--grid", "256"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args + ["--threads", "4"], capsys)
    assert out1 == out2


def test_timing_flag_adds_diagnostic(capsys):
    args = ["logzeta", "--coin", "rw", "--d", "1", "--u", "-0.5", "--grid", "64"]
    _, out, _ = run_cli(args + ["--timing"], capsys)
    assert "wall_s" in json.loads(out)["diagnostics"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["logzeta", "--coin", "rw", "--u={}"],
    ["zeta-finite", "--coin", "rw", "--N", "3", "--u={}"],
    ["stgf", "--d", "2", "--u={}"],
    ["logzeta", "--coin", "hadamard", "--xi={}", "--u", "0.3"],
    ["evolve", "--coin", "rw", "--N", "2", "--steps", "1", "--p={}"],
    ["mahler", "--poly", "X1 + 2", "--s={}"],
    # a NaN tolerance used to end this ladder after two grids, exit 0
    ["mahler", "--poly", "X1 + X2 + 3", "--method", "quadrature", "--grid", "4",
     "--max-refinements", "6", "--tol={}"],
    ["hyper", "--a", "1", "--b", "2", "--x={}"],
    ["hyper", "--a=1,{}", "--b", "2", "--x", "0.5"],
    ["hyper", "--a", "1", "--b={}", "--x", "0.5"],
    ["transience", "--d", "1", "--u-values=0.5,{},0.9"],
])
def test_non_finite_float_option_exit_2(capsys, argv, value):
    code, out, err = run_cli([arg.format(value) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"expected a finite number, got '{value}'" in err


@pytest.mark.parametrize("argv", [
    ["mahler", "--poly", "X1 + 2", "--tol", "0"],
    ["mahler", "--poly", "X1 + X2 + 3", "--method", "quadrature", "--tol=-1e-3"],
    ["stgf", "--d", "2", "--u", "0.9", "--grid", "8", "--tol", "0"],
])
def test_non_positive_tolerance_exit_2_with_or_without_grid(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "tolerance must be positive" in err


@pytest.mark.parametrize("argv", [
    ["logzeta", "--coin", "rw", "--u", "0.3", "--tol", "1e-3"],
    ["mahler", "--poly", "X1 + X2 + X3 + 1", "--method", "quadrature", "--tol", "1e-2"],
    ["stgf", "--d", "2", "--u", "0.9", "--max-refinements", "3"],
    ["lambda", "--d", "3", "--tol", "1e-2", "--max-refinements", "9"],
])
def test_tol_and_max_refinements_without_grid_exit_2(capsys, argv):
    # the ladder they would set runs only from --grid: without it they used
    # to be ignored
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "mzc: error: --tol and --max-refinements need --grid\n"


def test_usage_error_exit_2(capsys):
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 2
    code, _, _ = run_cli(["logzeta", "--coin", "hadamard"], capsys)
    assert code == 2


@pytest.mark.parametrize("exc", [
    np.linalg.LinAlgError("Singular matrix"),
    FloatingPointError("overflow encountered in multiply"),
    MemoryError("unable to allocate 8.00 GiB"),
    OverflowError("int too large to convert to float"),
])
def test_numerical_failures_exit_1(monkeypatch, capsys, exc):
    # LinAlgError is a ValueError, yet it is a failed computation, not a usage error
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "hyper", fail)
    code, out, err = run_cli(["hyper", "--a", "1", "--b", "2", "--x", "0.5"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"computation failed: {exc}\n"


@pytest.mark.parametrize("method", ["auto", "jensen"])
def test_jensen_degree_budget_exit_1(capsys, method):
    code, out, err = run_cli(["mahler", "--poly", "X1^513 + 2", "--method", method], capsys)
    assert code == 1
    assert out == ""
    assert err == "computation failed: degree 513 exceeds the one-variable budget of 512\n"


def test_closed_form_large_r_matches_path_sum(capsys):
    # the Jacobi recurrence neither cancels nor overflows where the paper's
    # alternating binomial sum did
    code, out, _ = run_cli(["cr", "--coin", "hadamard", "--xi", "0.5", "--r-max", "2000",
                            "--method", "closed_form"], capsys)
    assert code == 0
    closed = dict(json.loads(out)["result"]["values"])
    code, out, _ = run_cli(["cr", "--coin", "hadamard", "--xi", "0.5", "--r-max", "240",
                            "--method", "path_sum"], capsys)
    assert code == 0
    path = dict(json.loads(out)["result"]["values"])
    for r in (100, 120, 240):
        assert abs(closed[r] - path[r]) < 1e-12


def test_zeta_finite_imaginary_residual_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "zeta_finite_log_mean", lambda coin, N, u: complex(0.1, 2e-10))
    code, out, err = run_cli(
        ["zeta-finite", "--coin", "rw", "--d", "1", "--N", "2", "--u", "0.5"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("computation failed: imaginary residual 2.000e-10 of the "
                   "log-determinant sum exceeds 1e-10\n")


@pytest.mark.parametrize("initial", ["origin", "uniform"])
def test_evolve_over_memory_budget_exit_1(capsys, initial):
    # the three fields of one step would take 3 GiB; nothing is allocated
    code, out, err = run_cli(["evolve", "--coin", "rw", "--d", "2", "--N", "4096",
                              "--steps", "1", "--initial", initial], capsys)
    assert code == 1
    assert out == ""
    assert err == ("computation failed: a step on the 4096^2 torus needs 3072 MiB "
                   "(> 512 MiB budget)\n")


def test_evolve_with_field(capsys):
    code, out, _ = run_cli(
        ["evolve", "--coin", "grover", "--d", "2", "--N", "3", "--steps", "4",
         "--emit-field"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["result"]["total_measure"] - 1.0) < 1e-12
    field = payload["result"]["field"]
    assert len(field) == 9
    # x_1 varies fastest in the site enumeration
    assert field[0]["site"] == [0, 0]
    assert field[1]["site"] == [1, 0]
    assert field[3]["site"] == [0, 1]


def test_module_entry_point_prints_main_output(capsys):
    args = ["mahler", "--poly", "X1 + 2"]
    _, expected, _ = run_cli(args, capsys)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "mahlerzeta.cli", *args],
                         capture_output=True, env=env, timeout=120)
    assert out.returncode == 0
    assert out.stdout == expected.encode()


@pytest.mark.parametrize("argv, message", [
    (["cr", "--coin", "hadamard", "--xi", "0.5", "--method", "closed_form",
      "--r-max", "1000000"],
     "computation failed: C_r up to r = 1000000 exceeds the closed-form budget"),
    (["cr", "--coin", "hadamard", "--xi", "0.5", "--method", "closed_form",
      "--r-max", "10000000"],
     "computation failed: cr --r-max 10000000 would print 10000000 values "
     "(> 1048576 output budget)"),
    (["cr", "--coin", "rw", "--r-max", "1048577", "--format", "csv"],
     "computation failed: cr --r-max 1048577 would print 1048577 values"),
    (["evolve", "--coin", "rw", "--d", "1", "--N", "1000000", "--steps", "1", "--emit-field"],
     "computation failed: evolve --emit-field on the 1000000^1 torus would print "
     "2000000 values (> 1048576 output budget)"),
])
def test_output_and_closed_form_budgets_exit_1(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1


def test_coin_over_output_budget_exit_1(monkeypatch, capsys):
    # the d <= 32 cap keeps a coin to 4096 entries, so shrink the budget
    monkeypatch.setattr(cli, "_MAX_OUTPUT_VALUES", 16)
    code, out, _ = run_cli(["coin", "--coin", "grover", "--d", "2"], capsys)
    assert code == 0 and len(json.loads(out)["result"]["entries"]) == 4
    start = time.perf_counter()
    code, out, err = run_cli(["coin", "--coin", "grover", "--d", "3"], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "computation failed: coin --d 3 would print 36 values (> 16 output budget)\n"


def test_parser_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_keeps_no_state_between_calls(capsys):
    _, first, _ = run_cli(["lambda", "--d", "2"], capsys)
    code, out, err = run_cli(["lambda", "--d", "x"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("mzc lambda: error: argument --d: invalid int value")
    code, out, err = run_cli(["--version"], capsys)
    assert (code, out, err) == (0, f"mzc {cli.__version__}\n", "")
    code, out, err = run_cli(["-h"], capsys)
    assert code == 0 and out.startswith("usage: mzc") and err == ""
    code, out, err = run_cli(["no-such-command"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("mzc: error: argument command: invalid choice: 'no-such-command'")
    code, last, err = run_cli(["lambda", "--d", "2"], capsys)
    assert (code, last, err) == (0, first, "")


def test_in_process_calls_print_what_fresh_processes_print(capsys):
    calls = [["cr", "--coin", "rw", "--d", "1", "--r-max", "8", "--format", "csv"],
             ["mahler", "--poly", "X1 + X2 + 1", "--grid", "1024"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in calls:
        code, out, err = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "mahlerzeta.cli", *argv],
                               capture_output=True, env=env, timeout=120)
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout,
                                                     fresh.stderr)

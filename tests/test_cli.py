import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arithsum import dsums, indicators, sigma_rh, suites
from arithsum.cli import build_parser, main, parse_range, parse_t, ConfigError
from arithsum.series import Evaluation


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_range():
    assert parse_range("7") == [7]
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range("1,4,9") == [1, 4, 9]
    with pytest.raises(ConfigError):
        parse_range("5..2")
    with pytest.raises(ConfigError):
        parse_range("x")


def test_parse_t():
    assert parse_t("1.0") == [1.0]
    assert parse_t("0.8,1.0,1.5") == [0.8, 1.0, 1.5]
    with pytest.raises(ConfigError):
        parse_t("-1.0")
    with pytest.raises(ConfigError):
        parse_t("inf")


def test_eval_q_json_schema(capsys):
    code, out = run_cli(["eval-q", "--k", "1", "--N", "1..12", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "records", "summary"}
    assert len(doc["records"]) == 12
    for rec in doc["records"]:
        assert {"inputs", "value", "oracle", "diff", "error_estimate", "terms", "guards", "ms"} <= set(rec)
    assert doc["summary"]["failures"] == 0
    # 17-significant-digit serialization keeps full precision
    assert doc["records"][3]["value"] == pytest.approx(1.0, abs=1e-4)


def test_eval_q_general_power(capsys):
    code, out = run_cli(
        ["eval-q", "--k", "2", "--s", "2", "--N", "32", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 1
    assert doc["records"][0]["oracle"] == 1.0
    assert round(doc["records"][0]["value"]) == 1


def test_eval_q_rejects_bad_N(capsys):
    code, _ = run_cli(["eval-q", "--k", "1", "--N", "0"], capsys)
    assert code == 2


def test_unknown_suite_exits_2(capsys):
    code, _ = run_cli(["verify", "--suite", "nosuch"], capsys)
    assert code == 2


def test_verify_suite_ok(capsys):
    code, out = run_cli(
        ["verify", "--suite", "integrals", "--fast", "--tol", "1e-6", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failures"] == 0


def test_sum_command_json(capsys):
    code, out = run_cli(
        [
            "sum", "--kind", "divisor-pairs", "--N", "6", "--weight", "unit",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    rec = doc["records"][0]
    assert rec["value"] == pytest.approx(1.0 / 7**4 + 1.0 / 5**4, abs=1e-9)


def test_sum_squares_range(capsys):
    code, out = run_cli(
        [
            "sum", "--kind", "squares", "--d", "1", "--k", "1", "--N", "1..20",
            "--weight", "unit", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failures"] == 0
    assert len(doc["records"]) == 20


def test_sum_difference_with_tail(capsys):
    code, out = run_cli(
        [
            "sum", "--kind", "difference", "--d", "2", "--k", "1", "--N", "1",
            "--weight", "unit", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["error_estimate"] > 0.0  # Pell tail noted


def test_sigma_command(capsys):
    code, out = run_cli(["sigma", "--N", "2..12", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    for rec in doc["records"]:
        assert round(rec["value"]) == rec["oracle"]


def test_rh_command(capsys):
    code, out = run_cli(
        ["rh", "--from", "2", "--to", "40", "--mode", "exact", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r["diff"] > 0 for r in doc["records"])


def test_rh_analytic_ambiguous_sigma_is_failed_record(monkeypatch, capsys):
    # a sigma series value of 3.5 rounds to no integer: a failed record and
    # exit 1, not a usage error
    monkeypatch.setattr(sigma_rh, "sigma_analytic", lambda N, t: Evaluation(3.5, 0.75))
    code, out = run_cli(
        ["rh", "--mode", "analytic", "--from", "2", "--to", "4", "--t", "16", "--format", "json", "--jobs", "1"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    assert all(r["failed"] for r in doc["records"])


def test_rh_bad_range(capsys):
    code, _ = run_cli(["rh", "--from", "10", "--to", "5"], capsys)
    assert code == 2


def test_csv_format(capsys):
    code, out = run_cli(
        ["eval-q", "--k", "1", "--N", "1..4", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "inputs", "value", "oracle", "diff", "error_estimate", "terms", "guards", "ms",
    ]
    assert len(rows) == 5
    inputs = json.loads(rows[1][0])
    assert inputs["N"] == 1


def test_reports_are_deterministic(capsys):
    args = ["eval-q", "--k", "2", "--N", "1..9", "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once per process; calls with different
    # subcommands and flags in one process must report as separate calls do
    argvs = [
        ["eval-q", "--k", "2", "--N", "1..5", "--t", "0.8", "--format", "json"],
        ["sum", "--kind", "squares", "--N", "5..9", "--weight", "alternating", "--format", "json"],
        ["eval-q", "--k", "2", "--N", "1..5", "--format", "json"],
        ["sigma", "--N", "6", "--format", "csv"],
    ]
    separate = []
    for argv in argvs:
        build_parser.cache_clear()
        separate.append(run_cli(argv, capsys))
    build_parser.cache_clear()
    shared = [run_cli(argv, capsys) for argv in argvs + argvs[::-1]]
    assert build_parser.cache_info().misses == 1
    assert shared == separate + separate[::-1]


def test_parallel_jobs_match_sequential(capsys):
    seq = ["sigma", "--N", "2..10", "--format", "json"]
    par = ["sigma", "--N", "2..10", "--format", "json", "--jobs", "2"]
    _, out1 = run_cli(seq, capsys)
    _, out2 = run_cli(par, capsys)
    assert out1 == out2


def test_arith_jobs_env(capsys, monkeypatch):
    monkeypatch.setenv("ARITH_JOBS", "2")
    code, out = run_cli(["sigma", "--N", "2..6", "--format", "json"], capsys)
    assert code == 0
    monkeypatch.setenv("ARITH_JOBS", "zebra")
    code, _ = run_cli(["sigma", "--N", "2..6", "--format", "json"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "flags,env", [(["--jobs", "0"], None), (["--jobs", "-4"], None), ([], "-2"), ([], "0")]
)
def test_jobs_below_one_are_rejected(capsys, monkeypatch, flags, env):
    # a worker count below 1 is a configuration error, from the flag or
    # from the environment, not a silent single worker
    if env is None:
        monkeypatch.delenv("ARITH_JOBS", raising=False)
    else:
        monkeypatch.setenv("ARITH_JOBS", env)
    code = main(["sigma", "--N", "2..6", "--format", "json", *flags])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


def test_t_sweep_first_class(capsys):
    code, out = run_cli(
        ["eval-q", "--k", "1", "--N", "25", "--t", "0.8,1.0,1.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 3
    vals = [r["value"] for r in doc["records"]]
    assert max(vals) - min(vals) < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--N", "6", "--tol", "1e-3"],
        ["rh", "--from", "2", "--to", "3", "--tol", "1e-3"],
        ["sum", "--kind", "squares", "--N", "5", "--max-terms", "2000"],
        ["verify", "--suite", "kernels", "--t", "2"],
        ["verify", "--suite", "kernels", "--timing"],
        ["eval-q", "--k", "1", "--N", "4", "--max-terms", "2000"],
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    assert main(argv) == 2


def test_cli_import_does_not_load_scipy_integrate():
    # scipy.integrate would dominate the start-up of every command, and
    # numpy.polynomial (3 ms) and decimal (2-4 ms) would serve only the
    # quadrature oracle, which loads decimal on its first call; the verify
    # suites need no scipy at all
    code = (
        "import sys, arithsum.cli\n"
        "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules, 'decimal' in sys.modules)\n"
        "from arithsum.suites import run_suite\n"
        "run_suite('all', fast=True)\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "False", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval-q", "--k", "1", "--N", "4", "--t", "113"],  # e^(2 pi t) overflows
        ["sigma", "--N", "5", "--t", "300"],
        ["sum", "--kind", "squares", "--N", "5", "--t", "300"],
        ["eval-q", "--k", "1", "--N", "4", "--t", "5e-324"],  # 1/t overflows
        ["eval-q", "--k", "1", "--s", "2", "--N", "16", "--t", "1e-11"],  # 873 TiB grid
        ["sum", "--kind", "difference", "--N", "5", "--t", "1e-11"],  # 655 TiB grid
    ],
)
def test_t_outside_the_working_range_exits_2(argv):
    code = "import sys; from arithsum.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("t", ["1e-300", "1e-17"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval-q", "--k", "1", "--N", "5"],
        ["sum", "--kind", "squares", "--d", "1", "--k", "1", "--N", "5"],
        ["sigma", "--N", "5"],
        ["rh", "--from", "5", "--to", "5", "--mode", "analytic"],
    ],
)
def test_a_tiny_t_exits_2_naming_t(argv, t, capsys):
    # the grid length 3000/t must stay below 2^62, or its int conversion overflows
    assert main(argv + ["--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: t = {float(t)} "), lines


def test_closed_heads_warn_nothing_at_the_top_of_t():
    # e^(2 pi t) is near DBL_MAX, and no term of the head may overflow on
    # the way to underflowing; the series is still far off there, so the
    # record fails and the command exits 1
    code = "import sys; from arithsum.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["eval-q", "--k", "1", "--N", "4", "--t", "112.96", "--format", "json"]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    assert out.stderr == "", out.stderr
    assert json.loads(out.stdout)["records"][0]["failed"]


@pytest.mark.parametrize("horizon", ["3037000500", "1000000000000000"])
def test_horizon_past_an_exact_scan_exits_2(horizon, capsys):
    # k horizon^2 must stay below 2^62 for the exact int64 scan
    argv = ["sum", "--kind", "difference", "--N", "5", "--horizon", horizon]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind", ["squares", "difference", "divisor-pairs"])
@pytest.mark.parametrize(
    "flags", [["--d", "0"], ["--k", "-1"], ["--horizon", "0"], ["--k", "0", "--d", "-5", "--horizon", "-7"]]
)
def test_sum_refuses_d_k_and_horizon_below_one_for_every_kind(kind, flags, capsys):
    # divisor-pairs reads none of the three and squares no horizon, but a
    # report would still echo them in its config
    assert main(["sum", "--kind", kind, "--N", "6", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: sum requires d, k and horizon >= 1"), lines


def test_parse_t_bounds():
    assert parse_t("100,112.96") == [100.0, 112.96]
    with pytest.raises(ConfigError, match="112.965"):
        parse_t("1,113")
    with pytest.raises(ConfigError):
        parse_t("1e-310")


def test_rh_reports_sigma_error_estimate(capsys):
    _, out = run_cli(["rh", "--mode", "analytic", "--from", "6", "--to", "6", "--format", "json"], capsys)
    rh = json.loads(out)["records"][0]
    _, out = run_cli(["sigma", "--N", "6", "--format", "json"], capsys)
    sigma = json.loads(out)["records"][0]
    assert rh["error_estimate"] == sigma["error_estimate"] > 0.0
    _, out = run_cli(["rh", "--from", "6", "--to", "6", "--format", "json"], capsys)
    exact = json.loads(out)["records"][0]
    assert exact["error_estimate"] == 0.0
    assert set(exact["terms"]) == {"robin_rhs", "harmonic"}


@pytest.mark.parametrize("fast", [False, True])
def test_verify_config_names_fast(capsys, fast):
    argv = ["verify", "--suite", "decomposition", "--format", "json"] + (["--fast"] if fast else [])
    _, out = run_cli(argv, capsys)
    assert json.loads(out)["config"]["fast"] is fast


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval-q", "--k", "1", "--N", "1..3"],
        ["sum", "--kind", "squares", "--N", "4,5"],
        ["sigma", "--N", "2..4"],
        ["rh", "--from", "2", "--to", "4", "--mode", "analytic"],
    ],
)
def test_ms_is_measured_only_under_timing(capsys, argv, jobs):
    for timing, positive in (([], False), (["--timing"], True)):
        code, out = run_cli(argv + ["--format", "json", "--jobs", jobs] + timing, capsys)
        assert code == 0
        for rec in json.loads(out)["records"]:
            assert (rec["ms"] > 0.0) if positive else (rec["ms"] == 0.0), rec


def test_held_tables_keep_the_records_of_cold_runs(capsys, monkeypatch):
    # sigma(97) builds the tables that sigma(5) and sigma(40) then read; rh
    # climbs, so each N reads or outgrows the tables of the one before
    monkeypatch.setattr(indicators, "_HELD", {})

    def records(argv):
        code, out = run_cli(argv + ["--format", "json", "--jobs", "1"], capsys)
        assert code == 0
        return [json.dumps(r) for r in json.loads(out)["records"]]

    def cold(argv):
        indicators._HELD.clear()
        return records(argv)

    assert records(["sigma", "--N", "97,5,40"]) == [
        r for n in ("97", "5", "40") for r in cold(["sigma", "--N", n])
    ]
    rh = ["rh", "--mode", "analytic", "--from"]
    assert records(rh + ["2", "--to", "30"]) == [
        r for n in range(2, 31) for r in cold(rh + [str(n), "--to", str(n)])
    ]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval-q", "--k", "1", "--N", "4"],
        ["sum", "--kind", "squares", "--N", "5"],
        ["verify", "--suite", "decomposition", "--fast"],
    ],
)
def test_tol_must_be_finite_and_nonnegative(argv, tol, capsys):
    # a NaN or infinite tol would pass every record, and a negative one fail them all
    assert main(argv + [f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--tol" in lines[0], lines


def test_tol_zero_is_accepted(capsys):
    code, out = run_cli(["verify", "--suite", "decomposition", "--fast", "--tol", "0", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 0.0


_NAN = Evaluation(math.nan, 0.0)


# command: the module and name of its driver, and the N of a driver call
_DRIVERS = {
    "eval-q": (indicators, "q_analytic", lambda args: args[1]),
    "sum": (dsums, "sum_squares_analytic", lambda args: args[1].N),
    "sigma": (sigma_rh, "sigma_analytic", lambda args: args[0]),
    "rh": (sigma_rh, "sigma_analytic", lambda args: args[0]),
}


def _patch_driver_nan(monkeypatch, command, at=None):
    """Make the driver behind ``command`` return NaN, at N = ``at`` only if given."""
    if command == "verify":
        monkeypatch.setitem(suites.SUITES, "decomposition", lambda fast: [("nan_check", math.nan, 0.0)])
        return
    module, name, n_of = _DRIVERS[command]
    original = getattr(module, name)

    def driver(*args):
        return _NAN if at is None or n_of(args) == at else original(*args)

    monkeypatch.setattr(module, name, driver)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval-q", "--k", "1", "--N", "4"],
        ["sum", "--kind", "squares", "--N", "5"],
        ["sigma", "--N", "6"],
        ["rh", "--from", "6", "--to", "6", "--mode", "analytic"],
        ["verify", "--suite", "decomposition"],
    ],
)
def test_a_nan_value_is_a_failed_record(monkeypatch, capsys, argv):
    _patch_driver_nan(monkeypatch, argv[0])
    code, out = run_cli(argv + ["--format", "json", "--jobs", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert [r["failed"] for r in doc["records"]] == [True]
    assert doc["summary"]["failures"] == 1
    assert doc["summary"]["max_abs_diff"] == "nan"


@pytest.mark.parametrize("at", [1, 3])
@pytest.mark.parametrize("command", ["eval-q", "sum", "sigma"])
def test_a_nan_diff_anywhere_makes_max_abs_diff_nan(monkeypatch, capsys, command, at):
    # max() keeps a NaN in the first place and drops one in the last
    argv = {"eval-q": ["eval-q", "--k", "1"], "sum": ["sum", "--kind", "squares"], "sigma": ["sigma"]}
    _patch_driver_nan(monkeypatch, command, at=at + (command == "sigma"))
    lo = 2 if command == "sigma" else 1
    code, out = run_cli(argv[command] + ["--N", f"{lo}..{lo + 2}", "--format", "json", "--jobs", "1"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert [r["failed"] for r in doc["records"]] == [i == at - 1 for i in range(3)]
    assert doc["summary"]["max_abs_diff"] == "nan"


_DECOMPOSITION_REPORT = """{
  "config": {
    "command": "verify",
    "suite": "decomposition",
    "fast": FAST,
    "tol": 1e-08
  },
  "records": [
    {
      "inputs": {
        "suite": "decomposition",
        "check": "divisor_pair_decomposition_N<=N_MAX"
      },
      "value": 0,
      "oracle": 0,
      "diff": 0,
      "error_estimate": 0,
      "terms": {

      },
      "guards": false,
      "failed": false,
      "ms": 0
    }
  ],
  "summary": {
    "count": 1,
    "failures": 0,
    "max_abs_diff": 0
  }
}
"""


@pytest.mark.parametrize("fast, n_max", [(False, 10000), (True, 2000)])
def test_verify_decomposition_report_is_unchanged(capsys, fast, n_max):
    # the report of the per-N scan that the listing of squares replaced
    argv = ["verify", "--suite", "decomposition", "--format", "json"] + (["--fast"] if fast else [])
    code, out = run_cli(argv, capsys)
    assert code == 0
    want = _DECOMPOSITION_REPORT.replace("FAST", "true" if fast else "false").replace("N_MAX", str(n_max))
    assert out == want


@pytest.mark.parametrize("N", ["100000000000000000000", "4611686018427387904"])
def test_a_huge_n_exits_2_naming_the_int64_bound(N, capsys):
    # 10^20 overflowed int64 in the engine's window length, and 2^62 wrapped
    # it; the inversion refuses both before it sizes its sample grid
    assert main(["eval-q", "--k", "1", "--N", N]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: |N| must be at most 2^60"), lines
    assert lines[0].endswith(f"got N = {N}"), lines


def test_eval_q_passes_at_a_small_t(capsys):
    # the engine's shift-0 block sized a G window of 900/t and failed its
    # estimate here; the inversion samples |N| + 128 points each side
    code, out = run_cli(["eval-q", "--k", "1", "--N", "5", "--t", "1e-4", "--format", "json"], capsys)
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert not record["failed"] and record["diff"] <= record["error_estimate"]
    assert record["terms"] == {"r_terms": 133} and record["guards"] is False


@pytest.mark.parametrize("N", ["100000000000000000000", str(2**60 + 1)])
def test_a_huge_n_at_general_s_exits_2_naming_the_int64_bound(N, capsys):
    # the inversion's sample grid failed in numpy, with "Maximum allowed size
    # exceeded" and "array is too big", naming no bound
    assert main(["eval-q", "--k", "1", "--s", "2", "--N", N]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: |N| must be at most 2^60 in int64, got N = {N}"]

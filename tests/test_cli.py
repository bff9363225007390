import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arithsum.cli import build_parser, main, parse_range, parse_t, ConfigError


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


def test_rh_analytic_ambiguous_sigma_is_failed_record(capsys):
    # at t = 16 the sigma series rounds to no integer at N = 4: a failed
    # record and exit 1, not a usage error
    code, out = run_cli(
        ["rh", "--mode", "analytic", "--from", "2", "--to", "4", "--t", "16", "--format", "json"],
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
    # scipy.integrate serves only the quadrature oracle; loading it at
    # import would dominate the start-up of every command
    code = "import sys, arithsum.cli; print('scipy.integrate' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"

"""Self-tests of the benchmark itself (not of the library).

    python3 -m pytest -q perfbench

The traced-run tests start the benchmark in subprocesses and take about
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_items(name):
    for seconds in (60.0, None):
        assert workloads.plan(name, 7, seconds) == workloads.plan(name, 7, seconds)
        assert workloads.plan(name, 7, seconds) != workloads.plan(name, 8, seconds)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_is_sized_by_seconds(name):
    short, long = (len(workloads.plan(name, 1, s)) for s in (1.0, 120.0))
    assert workloads.MIN_ITEMS <= short < long


def test_block_mix_keeps_the_full_t_range():
    ts = [float(a[a.index("--t") + 1]) for a in workloads.plan("block-mix", 1, 30.0)]
    assert min(ts) < 0.101 and max(ts) > 9.9


def test_every_metric_has_a_name_and_a_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer_names = list(Tracer().per_layer()) + ["trace.overhead"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in layer_names
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_oracles():
    assert [checks.sigma_exact(n) for n in (1, 2, 6, 12, 16)] == [1, 3, 12, 28, 31]
    assert checks.is_k_power(2, 2, 32) == 1 and checks.is_k_power(2, 2, 16) == 0
    assert checks.is_k_power(3, 3, 3 * 3**6) == 1
    # 5 = a^2 + b^2 at (a, b) = (1, 2) and (2, 1)
    assert checks.squares_sum(5, 1, 1, checks.WEIGHTS["unit"]) == 1.0 / 16 + 1.0
    assert checks.divisor_pair_sum(6, checks.WEIGHTS["unit"]) == 1 / 7**4 + 1 / 5**4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name):
    cli, setup_s = worker.setup()
    assert setup_s > 0
    items = [a for a in workloads.plan(name, 3) if a[:3] != ["verify", "--suite", "inversion"]]
    for argv in items[:4]:
        dt, rc, out, error = worker.run_item(cli, argv)
        failed, problems, digits = checks.check_item(argv, rc, out, error)
        assert dt > 0 and error is None and problems == [], (argv, problems)


def test_checks_catch_a_wrong_passing_value():
    cli, _ = worker.setup()
    argv = ["sigma", "--N", "12"] + workloads.JSON
    _, rc, out, error = worker.run_item(cli, argv)
    assert checks.check_item(argv, rc, out, error)[1] == []
    report = json.loads(out)
    report["records"][0]["value"] = 27.0
    assert checks.check_item(argv, rc, json.dumps(report), error)[1]


def test_tracer_replaces_every_binding():
    code = """
import sys, arithsum, arithsum.cli
sys.path.insert(0, sys.argv[1])
import tracer
mods = {k: m for k, m in sys.modules.items() if k.startswith("arithsum")}
wrapped = tracer.SPANNED + tracer.LEAVES
originals = {id(getattr(mods["arithsum." + m], a)) for m, a, _ in wrapped}
tracer.Tracer().install()
left = [(k, a) for k, m in mods.items() for a, v in vars(m).items() if id(v) in originals]
left += [k for k, v in mods["arithsum.suites"].SUITES.items() if id(v) in originals]
print(left)
"""
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", ["block-mix", "sigma-sweep"])
def test_traced_run_matches_untraced_and_counts_repeat(name):
    results = []
    for _ in range(2):
        proc = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["correct"], proc.stdout  # includes the traced == untraced digest check
        results.append(res["metrics"])
    counts = [n for n, m in results[0].items()
              if m["unit"] == "count" or n.endswith("repeat_share")]
    assert all(results[0][n] == results[1][n] for n in counts)
    assert results[0]["integrals.j_values.elems"]["value"] > 0


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "block-mix", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

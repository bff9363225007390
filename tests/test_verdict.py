"""One failure rule: ``series.verdict`` turns a value, its oracle and a
bound into (diff, failed), and every CLI worker decides ``failed``
through it alone."""

import ast
import math
from pathlib import Path

import pytest

from arithsum.cli import _SIGMA_BOUND
from arithsum.series import verdict

CLI = Path(__file__).resolve().parents[1] / "src" / "arithsum" / "cli.py"


@pytest.mark.parametrize(
    "value, oracle, bound, integer, failed",
    [
        # a non-finite value fails through the comparisons alone
        (math.nan, 1.0, 1e-8, False, True),
        (math.nan, 1.0, 1e-8, True, True),
        (math.inf, 1.0, 1e-8, False, True),
        (-math.inf, 1.0, 1e-8, True, True),
        (math.nan, 0.0, 0.0, False, True),
        # diff == bound passes, and so does bound 0 with diff 0 (--tol 0,
        # and the decomposition suite's allowance of 0.0)
        (1.5, 1.0, 0.5, False, False),
        (1.0 + 2.0**-20, 1.0, 2.0**-20, False, False),
        (1.0 + 2.0**-20, 1.0, 2.0**-21, False, True),
        (0.0, 0.0, 0.0, False, False),
        (3.0, 3.0, 0.0, True, False),
        # an integer oracle also needs diff < 0.5, whatever the bound
        (0.5, 0.0, 0.75, True, True),
        (-0.5, 0.0, 0.75, True, True),
        (1.5, 1.0, 1.0, True, True),
        (0.4999, 0.0, 0.5, True, False),
        (0.4999, 0.0, 0.75, True, False),
        (0.5, 0.0, 0.75, False, False),
        # sigma's quarter rule: 0.25 fails and the float below it passes
        (3.25, 3.0, _SIGMA_BOUND, True, True),
        (0.25, 0.0, _SIGMA_BOUND, True, True),
        (math.nextafter(0.25, 0.0), 0.0, _SIGMA_BOUND, True, False),
    ],
)
def test_verdict_table(value, oracle, bound, integer, failed):
    diff, got = verdict(value, oracle, bound, integer=integer)
    assert got is failed
    assert diff == abs(value - oracle) or (math.isnan(diff) and math.isnan(value))


def _calls(fn):
    """The names called in fn, as ``f`` or ``module.f``."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                names.add(f"{f.value.id}.{f.attr}")
    return names


def test_every_worker_fails_through_the_verdict_alone():
    workers = {
        node.name: _calls(node)
        for node in ast.parse(CLI.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_work_")
    }
    assert sorted(workers) == ["_work_check", "_work_eval_q", "_work_rh", "_work_sigma", "_work_sum"]
    for name, calls in workers.items():
        assert "verdict" in calls, name
        assert not calls & {"round", "math.isfinite", "isfinite", "math.isnan"}, name

"""The scripts under ``tools/`` run end to end on one small plan.

``tools/digests.py`` wraps ``indicators._g_grid`` and ``_two_sided_j`` by
name, and ``tools/ab.py`` imports two trees into one process; a rename in
either place shows here, not first in a benchmark comparison.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> str:
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_digests_reports_one_plan():
    out = _run("tools/digests.py", "scalar-verify:401")
    m = re.fullmatch(
        r"scalar-verify 401 ([0-9a-f]{8}) (\d+) g_builds (\d+) g_entries (\d+) j_builds (\d+) j_entries (\d+)\n", out
    )
    assert m, out
    assert m[2] == "0"
    # q_shifted_analytic builds G grids; the engine, which builds the J tables, has no item here
    assert int(m[3]) > 0 and int(m[4]) > 0
    assert (m[5], m[6]) == ("0", "0")


def test_ab_of_a_tree_with_itself_has_equal_digests():
    # the A/A check: the same tree on both sides writes the same reports
    out = _run("tools/ab.py", str(ROOT), str(ROOT), "scalar-verify:401")
    assert "digests equal: True" in out.splitlines()[-1], out

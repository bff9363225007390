"""Report digests of benchmark plans and of the README's commands.

    python3 tools/digests.py [SPEC ...]

A SPEC is WORKLOAD:SEED, WORKLOAD:FIRST-LAST (a range of seeds) or
``readme``.  With no SPEC the script reports block-mix:301-310,
sigma-sweep:101, scalar-verify:401 and readme.

A plan is ``perfbench/workloads.plan(workload, seed, 30)``, the items of
one 30-second benchmark run.  Its items are replayed one by one through
``arithsum.cli.main`` in this process, with one BLAS thread.  For each
plan the script prints the first 8 hex digits of the SHA-256 of the
concatenated stdout, the count of records whose ``failed`` is set, and
the table builds: the calls of ``indicators._g_grid`` and
``indicators._two_sided_j`` and the entries they built, as
``g_builds``/``g_entries`` and ``j_builds``/``j_entries``.  The two are
wrapped in this process only.  The block engine builds both, for the
``sum``, ``sigma`` and ``rh --mode analytic`` items; ``eval-q`` inverts
its series at every s and builds neither.  ``q_shifted_analytic``, an
oracle that ``verify`` runs, builds its grid through
``indicators._g_grid`` too, so its grids are counted beside the block
engine's; the unit-weight oracles of ``dsums`` bind their own name and
are not.  ``readme`` runs each ``arithsum ...`` line
of the README's code blocks with ``--format json --jobs 1`` and prints
the same numbers for each.

Each plan and each README command starts with no held plan
(``indicators._HELD`` cleared), as in the fresh interpreter that runs it
in the benchmark or from the shell, so its builds do not depend on what
ran before it.

Run from any directory; the package is imported from this tree's ``src``
and ``perfbench`` is only read.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ARITH_JOBS", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from arithsum import cli, indicators  # noqa: E402

DEFAULT = ["block-mix:301-310", "sigma-sweep:101", "scalar-verify:401", "readme"]
JSON = ["--format", "json", "--jobs", "1"]
# [calls, entries] of each counted table build
BUILDS = {"g": [0, 0], "j": [0, 0]}


def _counted(real, count: list[int]):
    def build(*args, **kwargs):
        out = real(*args, **kwargs)
        count[0] += 1
        count[1] += out.size
        return out

    return build


indicators._g_grid = _counted(indicators._g_grid, BUILDS["g"])
indicators._two_sided_j = _counted(indicators._two_sided_j, BUILDS["j"])


def replay(items: list[list[str]]) -> tuple[str, int, str]:
    """(SHA-256 prefix of the items' concatenated stdout, failed records,
    the table builds), from no held plan."""
    indicators._HELD.clear()
    for count in BUILDS.values():
        count[:] = [0, 0]
    digest, failed = hashlib.sha256(), 0
    for argv in items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        text = out.getvalue()
        digest.update(text.encode())
        if text:
            failed += sum(1 for r in json.loads(text)["records"] if r["failed"])
    builds = " ".join(f"{n}_builds {c} {n}_entries {e}" for n, (c, e) in BUILDS.items())
    return digest.hexdigest()[:8], failed, builds


def readme_commands() -> list[list[str]]:
    """The ``arithsum ...`` lines of the README, comments dropped."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(ln, comments=True)[1:] + JSON for ln in lines if ln.startswith("arithsum ")]


def main(specs: list[str]) -> int:
    for spec in specs or DEFAULT:
        if spec == "readme":
            for argv in readme_commands():
                print("readme", " ".join(argv[: -len(JSON)]), *replay([argv]), flush=True)
            continue
        workload, _, seeds = spec.partition(":")
        first, _, last = seeds.partition("-")
        for seed in range(int(first), int(last or first) + 1):
            print(workload, seed, *replay(workloads.plan(workload, seed, 30)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

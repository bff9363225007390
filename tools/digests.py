"""Report digests of benchmark plans and of the README's commands.

    python3 tools/digests.py [SPEC ...]

A SPEC is WORKLOAD:SEED, WORKLOAD:FIRST-LAST (a range of seeds) or
``readme``.  With no SPEC the script reports block-mix:301-310,
sigma-sweep:101, scalar-verify:401 and readme.

A plan is ``perfbench/workloads.plan(workload, seed, 30)``, the items of
one 30-second benchmark run.  Its items are replayed one by one through
``arithsum.cli.main`` in this process, with one BLAS thread.  For each
plan the script prints the first 8 hex digits of the SHA-256 of the
concatenated stdout, and the count of records whose ``failed`` is set.
``readme`` runs each ``arithsum ...`` line of the README's code blocks
with ``--format json --jobs 1`` and prints the same two numbers for each.

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

from arithsum import cli  # noqa: E402

DEFAULT = ["block-mix:301-310", "sigma-sweep:101", "scalar-verify:401", "readme"]
JSON = ["--format", "json", "--jobs", "1"]


def replay(items: list[list[str]]) -> tuple[str, int]:
    """(SHA-256 prefix of the items' concatenated stdout, failed records)."""
    digest, failed = hashlib.sha256(), 0
    for argv in items:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        text = out.getvalue()
        digest.update(text.encode())
        if text:
            failed += sum(1 for r in json.loads(text)["records"] if r["failed"])
    return digest.hexdigest()[:8], failed


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

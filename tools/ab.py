"""Interleaved A/B of two trees on benchmark plans, in one process.

    python3 tools/ab.py TREE_A TREE_B [SPEC ...]

TREE_A and TREE_B are checkouts of this repository (A is usually the
parent, B the change).  A SPEC is WORKLOAD:SEED or WORKLOAD:FIRST-LAST;
with no SPEC the script runs scalar-verify:401.

Both trees' ``arithsum`` packages are imported into this one process,
with one BLAS thread, and each keeps its own module set.  Each item of
``workloads.plan(workload, seed, 30)`` (this tree's ``perfbench``, only
read) runs through ``cli.main`` on both trees back to back; the tree that
runs first alternates from item to item, so the host's drift reaches both
sides alike.  For each seed the script prints, per side, the raw
``items_per_s`` (items / summed item time), ``item_ms_p50`` and
``item_ms_p90``, B's gain in ``items_per_s``, and whether the two sides'
concatenated reports are byte-identical.  Under each side's totals one
line per kind of item (its command, and ``s`` for ``eval-q``: on
scalar-verify ``eval-q s=2``, ``eval-q s=3`` and ``verify``) gives that
kind's ``items_per_s`` and p50, so the A/B shows where a gain sits.  Times are wall-clock and not
scaled to a reference host, so they compare the two sides of one run
only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ARITH_JOBS", None)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


def load(tree: str) -> dict:
    """Import ``arithsum.cli`` from TREE's ``src`` and take its modules out of
    ``sys.modules``, so that the other tree imports its own."""
    src = str(Path(tree).resolve() / "src")
    sys.path.insert(0, src)
    try:
        importlib.import_module("arithsum.cli")
    finally:
        sys.path.remove(src)
    mods = {n: m for n, m in sys.modules.items() if n == "arithsum" or n.startswith("arithsum.")}
    for n in mods:
        del sys.modules[n]
    return mods


def run(mods: dict, argv: list[str]) -> tuple[float, str]:
    """(seconds, stdout) of one item on one tree, its modules in place."""
    sys.modules.update(mods)
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            mods["arithsum.cli"].main(argv)
        except Exception as exc:  # a failed item is counted by its report, not fatal
            print(f"{type(exc).__name__}: {exc}")
    return perf_counter() - start, out.getvalue()


def metrics(item_s: list[float]) -> str:
    ms = [1e3 * s for s in item_s]
    return (
        f"items_per_s {len(ms) / sum(item_s):7.1f}  p50 {statistics.median(ms):6.3f} ms"
        f"  p90 {statistics.quantiles(ms, n=10)[-1]:6.3f} ms"
    )


def kind(argv: list[str]) -> str:
    """An item's command, with its ``--s`` for ``eval-q`` (1 by default)."""
    if argv[0] != "eval-q":
        return argv[0]
    return f"eval-q s={argv[argv.index('--s') + 1] if '--s' in argv else 1}"


def kind_lines(kinds: list[str], item_s: list[float]) -> list[str]:
    """items_per_s and p50 of each kind of item, in order of first appearance."""
    lines = []
    for name in dict.fromkeys(kinds):
        ms = [1e3 * s for k, s in zip(kinds, item_s) if k == name]
        lines.append(f"     {name:12s} {len(ms):4d} items  items_per_s {1e3 * len(ms) / sum(ms):7.1f}"
                     f"  p50 {statistics.median(ms):6.3f} ms")
    return lines


def main(args: list[str]) -> int:
    if len(args) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = [load(args[0]), load(args[1])]
    for spec in args[2:] or ["scalar-verify:401"]:
        workload, _, seeds = spec.partition(":")
        first, _, last = seeds.partition("-")
        for seed in range(int(first), int(last or first) + 1):
            item_s = [[], []]
            digests = [hashlib.sha256(), hashlib.sha256()]
            plan = workloads.plan(workload, seed, 30)
            for i, argv in enumerate(plan):
                for side in (i % 2, 1 - i % 2):
                    dt, out = run(sides[side], argv)
                    item_s[side].append(dt)
                    digests[side].update(out.encode())
            gain = sum(item_s[0]) / sum(item_s[1]) - 1.0
            kinds = [kind(argv) for argv in plan]
            print(f"{workload} {seed} ({len(item_s[0])} items)")
            print(f"  A  {metrics(item_s[0])}", *kind_lines(kinds, item_s[0]), sep="\n")
            print(f"  B  {metrics(item_s[1])}  items_per_s {gain:+.1%}", *kind_lines(kinds, item_s[1]), sep="\n")
            print(f"  digests equal: {digests[0].digest() == digests[1].digest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

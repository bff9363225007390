"""Seeded item plans for the three benchmark workloads.

An item is the argv of one ``arithsum`` CLI call.  A run's plan is one
stratified draw over the whole run: each drawn property (log N, log t,
N, ...) takes one value from each of n equal-width strata, paired and
ordered at random by the seed.  Every run therefore has nearly the same
mix of cheap and expensive items, so runs with different seeds measure
the same work, while no item repeats (t and N are continuous or wide
draws), so no cache can serve one item from another's work beyond what
the workload shares by design (one t on sigma-sweep).  Inputs are never
filtered or re-drawn by outcome.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

T_LO, T_HI = 0.1, 10.0
SIGMA_N_MAX = 600  # J table of ~2 N^2 doubles: ~5.8 MB, past the 4 MiB L2
BLOCK_N_MAX = 100  # the acceptance range of the Diophantine sums
SCALAR_N_MAX = 256
SUITE_NAMES = (
    "kernels",
    "integrals",
    "inversion",
    "self-consistency",
    "zero-identities",
    "decomposition",
)
JSON = ["--format", "json", "--jobs", "1"]
MIN_ITEMS = 100  # so that p90 has ten samples beyond it


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal-width strata of [lo, hi], shuffled."""
    vals = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _log_strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return [math.exp(x) for x in _strata(rng, n, math.log(lo), math.log(hi))]


def _int_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """Stratified integers in [lo, hi]."""
    return [min(hi, int(x)) for x in _strata(rng, n, lo, hi + 1)]


def _cycle(rng: random.Random, n: int, values: tuple) -> list:
    """n values taken in turn from ``values``, shuffled: a balanced draw."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _fmt_t(t: float) -> str:
    return f"{t:.6g}"


def sigma_sweep(rng: random.Random, units: int) -> list[list[str]]:
    """``units`` items, half ``sigma`` and half ``rh --mode analytic``, at
    the default t, N log-uniform on [2, SIGMA_N_MAX]."""
    ns = [max(2, round(x)) for x in _log_strata(rng, units, 2.0, SIGMA_N_MAX)]
    items = []
    for n, kind in zip(ns, _cycle(rng, units, ("sigma", "rh"))):
        if kind == "sigma":
            items.append(["sigma", "--N", str(n)] + JSON)
        else:
            items.append(["rh", "--mode", "analytic", "--from", str(n), "--to", str(n)] + JSON)
    return items


def block_mix(rng: random.Random, units: int) -> list[list[str]]:
    """``units`` items of each of: sum squares, sum difference, sum
    divisor-pairs and eval-q --s 1, with N <= BLOCK_N_MAX, d, k in {1,2,3},
    all three weights and t log-uniform on [T_LO, T_HI] per item."""
    items = []
    for kind in ("squares", "difference", "divisor-pairs", "eval-q"):
        ts = _log_strata(rng, units, T_LO, T_HI)
        ns = _int_strata(rng, units, 1, BLOCK_N_MAX)
        weights = _cycle(rng, units, ("unit", "alternating", "reciprocal"))
        ds, ks = _cycle(rng, units, (1, 2, 3)), _cycle(rng, units, (1, 2, 3))
        for t, n, w, d, k in zip(ts, ns, weights, ds, ks):
            if kind == "eval-q":
                argv = ["eval-q", "--k", str(k), "--s", "1", "--N", str(n)]
            elif kind == "divisor-pairs":
                argv = ["sum", "--kind", kind, "--N", str(n), "--weight", w]
            else:
                argv = ["sum", "--kind", kind, "--d", str(d), "--k", str(k), "--N", str(n),
                        "--weight", w]
            items.append(argv + ["--t", _fmt_t(t)] + JSON)
    rng.shuffle(items)
    return items


def scalar_verify(rng: random.Random, units: int) -> list[list[str]]:
    """``9 units`` items of ``eval-q`` with t log-uniform on [T_LO, T_HI],
    a third with s = 2 and two thirds with s = 3, the same number for each
    k in {1, 2, 3}.  Half of the N, alternating over the t strata, are
    k m^(2s) <= SCALAR_N_MAX; the other half are uniform on
    [1, SCALAR_N_MAX].  (With equal shares, the median item time would fall
    in the gap between the cheap s = 3 and the dear s = 2 items.)"""
    items = []
    for s, per_cell in ((2, units), (3, 2 * units)):
        for k in (1, 2, 3):
            ts = sorted(_log_strata(rng, per_cell, T_LO, T_HI))
            plain = _int_strata(rng, per_cell, 1, SCALAR_N_MAX)
            m_max = int((SCALAR_N_MAX / k) ** (1.0 / (2 * s)) + 1e-9)
            for i, t in enumerate(ts):
                n = k * rng.randint(1, m_max) ** (2 * s) if i % 2 else plain[i]
                items.append(["eval-q", "--k", str(k), "--s", str(s), "--N", str(n),
                              "--t", _fmt_t(t)] + JSON)
    rng.shuffle(items)
    return items


class Workload(NamedTuple):
    build: Callable[[random.Random, int], list[list[str]]]
    unit_items: int  # items that build() makes per unit
    unit_s: float  # seconds a unit takes on the reference host
    trace_units: int  # units in a traced run
    # Host-speed kernel (worker.Calibrator) that slows down as this
    # workload does: "memory" for the large-table numpy work of
    # sigma-sweep, "interpreter" for block-mix's mix of Python and small
    # numpy calls, "python" for the scalar loops of scalar-verify.
    kernel: str
    # Items that open every run, in a fixed order, and the seconds they
    # take on the reference host.  The verify suites go first: their large
    # temporaries change what the allocator holds, and with it the speed
    # of later items, so a seeded position would add noise.
    prefix: tuple = ()
    prefix_s: float = 0.0


WORKLOADS = {
    "sigma-sweep": Workload(sigma_sweep, 1, 0.04, 192, "memory"),
    "block-mix": Workload(block_mix, 4, 0.025, 96, "interpreter"),
    "scalar-verify": Workload(
        scalar_verify, 9, 1.1, 4, "python",
        prefix=tuple(("verify", "--suite", name, *JSON) for name in SUITE_NAMES),
        prefix_s=8.0,
    ),
}


def plan(workload: str, seed: int, seconds: float | None = None) -> list[list[str]]:
    """The items of a run, the fixed prefix first: as many as take
    ``seconds`` on the reference host (and at least MIN_ITEMS), or the
    fixed traced plan when ``seconds`` is None.  A plan depends only on
    its arguments, so two runs of one seed do the same work whatever the
    speed of the host."""
    w = WORKLOADS[workload]
    if seconds is None:
        units = w.trace_units
    else:
        units = max(math.ceil((MIN_ITEMS - len(w.prefix)) / w.unit_items),
                    round((seconds - w.prefix_s) / w.unit_s))
    rng = random.Random(f"{workload}:{seed}")
    return [list(item) for item in w.prefix] + w.build(rng, units)

"""Weighted sums over the positive solutions of d a^2 + k b^2 = N and
k b^2 - d a^2 = N.

Every analytic evaluation here is paired with an enumeration oracle.
The common identity behind all of them: with the indicator series
written at base N and shift c = -+ d a^2,

    sum over solutions of g(a)/b^4  =  k^2 * sum_a g(a) * block(N, -+ d a^2),

because the block equals q_k(N -+ d a^2)/(N -+ d a^2)^2, which is
1/(k^2 b^4) exactly at solutions and 0 elsewhere.  The sum-of-squares
family therefore terminates (shifts with d a^2 >= N contribute exactly
zero by the vanishing identity), while the difference family has a
Pell-type infinite solution set and carries a rigorous b^-4 tail bound.
All blocks of one base are evaluated by the one block engine,
``indicators.BlockTables``.

The unit-weight forms are additionally evaluated through a second,
independent organization: the expanded representation of
``q_shifted_analytic`` at the shifts -s d a^2 (s = 1 for the sum kind,
-1 for the difference kind), over one signed grid sg[R+r] = (-1)^r G(r-N).
Its sech sums are the ``_sech_parts`` windows at the centres s d a^2; its
P sums close the a-sums in the lattice kernel T, one T call per weight.
Neither uses J or ``BlockTables``; agreement of the two organizations
(and of both with enumeration) is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt, pi
from typing import Callable

import numpy as np

from .indicators import (
    BlockTables,
    _closed_heads,
    _default_r_len,
    _sech_half_width,
    _sech_parts,
    _signed_g,
)
from .integrals import _p_weights, p_values
from .kernels import t_values
from .series import Evaluation

__all__ = [
    "WeightSpec",
    "DiophantineInstance",
    "SolutionList",
    "unit_weight",
    "alternating_weight",
    "reciprocal_weight",
    "enumerate_solutions",
    "sum_squares_bruteforce",
    "sum_diff_bruteforce",
    "weighted_finite_analytic",
    "weighted_infinite_analytic",
    "sum_squares_analytic",
    "sum_diff_analytic",
    "unit_sum_squares",
    "unit_sum_diff",
    "divisor_pair_sum_analytic",
]


@dataclass(frozen=True)
class WeightSpec:
    """A bounded weight m -> g(m) with its declared bound sup |g|.

    The bound is spot-checked on a small prefix at construction; tail
    estimates downstream rely on it.
    """

    weight: Callable[[int], float]
    bound: float
    label: str

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")
        for m in range(1, 65):
            if abs(self.weight(m)) > self.bound * (1.0 + 1e-12):
                raise ValueError(
                    f"declared bound {self.bound} violated at m={m} by weight {self.label!r}"
                )


def unit_weight() -> WeightSpec:
    return WeightSpec(lambda a: 1.0, 1.0, "unit")


def alternating_weight() -> WeightSpec:
    return WeightSpec(lambda a: -1.0 if a % 2 else 1.0, 1.0, "alternating")


def reciprocal_weight() -> WeightSpec:
    return WeightSpec(lambda a: 1.0 / (a + 1.0), 0.5, "reciprocal")


@dataclass(frozen=True)
class DiophantineInstance:
    """Which solution set is summed over: d a^2 + k b^2 = N ("sum") or
    k b^2 - d a^2 = N ("difference")."""

    N: int
    d: int
    k: int
    kind: str

    def __post_init__(self) -> None:
        if self.N < 1 or self.d < 1 or self.k < 1:
            raise ValueError("N, d, k must be positive integers")
        if self.kind not in ("sum", "difference"):
            raise ValueError(f"kind must be 'sum' or 'difference', got {self.kind!r}")


@dataclass(frozen=True)
class SolutionList:
    """Solutions (a, b), a ascending.  For the difference kind only
    b <= truncated_at_b is scanned and tail_bound bounds the omitted
    weighted mass sum |g|/b^4."""

    pairs: tuple
    truncated_at_b: int | None
    tail_bound: float


def enumerate_solutions(
    inst: DiophantineInstance, b_horizon: int = 0, bound: float = 1.0
) -> SolutionList:
    """Exact integer scan of the instance's solution set.

    The sum kind is provably complete (a <= sqrt(N/d), b <= sqrt(N/k)).
    The difference kind scans b <= b_horizon; the infinitely many larger
    Pell-type solutions contribute at most bound * sum_{b>horizon} b^-4
    <= bound/(3 horizon^3) to any |g| <= bound weighted sum.
    """
    N, d, k = inst.N, inst.d, inst.k
    pairs = []
    if inst.kind == "sum":
        a = 1
        while d * a * a < N:
            rem = N - d * a * a
            if rem % k == 0:
                b = isqrt(rem // k)
                if b >= 1 and k * b * b == rem:
                    pairs.append((a, b))
            a += 1
        return SolutionList(tuple(pairs), None, 0.0)
    if b_horizon < 1:
        raise ValueError("difference kind requires b_horizon >= 1")
    for b in range(1, b_horizon + 1):
        rem = k * b * b - N
        if rem >= d and rem % d == 0:
            a = isqrt(rem // d)
            if a >= 1 and d * a * a == rem:
                pairs.append((a, b))
    tail = bound / (3.0 * b_horizon**3)
    return SolutionList(tuple(pairs), b_horizon, tail)


def sum_squares_bruteforce(inst: DiophantineInstance, g: WeightSpec) -> float:
    """Exact finite sum of g(a)/b^4 over the sum-kind solutions."""
    if inst.kind != "sum":
        raise ValueError("instance must be sum kind")
    sols = enumerate_solutions(inst)
    return math.fsum(g.weight(a) / b**4 for a, b in sols.pairs)


def sum_diff_bruteforce(
    inst: DiophantineInstance, g: WeightSpec, b_horizon: int
) -> tuple[float, float]:
    """(sum of g(a)/b^4 over difference-kind solutions with b <= horizon,
    rigorous bound on the omitted tail)."""
    if inst.kind != "difference":
        raise ValueError("instance must be difference kind")
    sols = enumerate_solutions(inst, b_horizon, g.bound)
    return math.fsum(g.weight(a) / b**4 for a, b in sols.pairs), sols.tail_bound


_BLOCK_TAIL_MODEL = 50.0  # empirical prefactor for the r^-3.5 block tail


def _block_tail(r_len: int) -> float:
    return _BLOCK_TAIL_MODEL * r_len**-3.5


def _aggregate_blocks(
    N: int,
    k: int,
    t: float,
    shifts: list[tuple[float, int]],
    extra_tail: float = 0.0,
) -> Evaluation:
    """sum of w * block(N, c) over (w, c), sharing one table set."""
    if not shifts:
        return Evaluation(0.0, extra_tail, {"blocks": 0}, False)
    r_lens = [_default_r_len(N, c, t) for _, c in shifts]
    r_needed = max(r_lens)
    tables = BlockTables(N, k, t, r_needed, r_needed + max(abs(c) for _, c in shifts))
    values = tables.blocks([c for _, c in shifts], r_lens)[0]
    total = 0.0
    est = extra_tail
    for (w, _), r_len, v in zip(shifts, r_lens, values.tolist()):
        total += w * v
        est += abs(w) * _block_tail(r_len)
    return Evaluation(total, est, {"blocks": len(shifts), "r_terms": r_needed}, True)


def weighted_finite_analytic(
    h: WeightSpec,
    k: int,
    N: int,
    t: float = 1.0,
) -> Evaluation:
    """Series value of sum_{a=1}^{N-1} h(a) q_k(N-a)/(N-a)^2.

    Organized with the shift index outermost: each addend is the series
    block at shift -a, which realizes the cancellation between the
    1/(N-a) groups for slowly decaying h (they are only conditionally
    convergent when split apart).  Shifts a >= N contribute exactly zero
    by the vanishing identity and are not evaluated.
    """
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    shifts = [(h.weight(a), -a) for a in range(1, N)]
    return _aggregate_blocks(N, k, t, shifts)


def weighted_infinite_analytic(
    h: WeightSpec,
    k: int,
    N: int,
    t: float = 1.0,
    a_horizon: int = 400,
) -> Evaluation:
    """Series value of sum_{a>=1} h(a) q_k(N+a)/(N+a)^2.

    The caller guarantees sum_a |h(a)/(N+a)| < infinity.  The horizon
    tail is bounded through the sparsity of k-square arguments:
    sum_{a>A} |h| q_k(N+a)/(N+a)^2 <= bound/(3 sqrt(k) (N+A)^(3/2)).
    """
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    tail = h.bound / (3.0 * math.sqrt(k) * (N + a_horizon) ** 1.5)
    shifts = [(h.weight(a), a) for a in range(1, a_horizon + 1)]
    return _aggregate_blocks(N, k, t, shifts, tail)


def sum_squares_analytic(
    g: WeightSpec,
    inst: DiophantineInstance,
    t: float = 1.0,
) -> Evaluation:
    """Series value of (1/k^2) sum_{d a^2 + k b^2 = N} g(a)/b^4.

    Shifts with d a^2 >= N (including the boundary case N = d m^2, whose
    block is the vanishing identity at zero) contribute exactly 0, so the
    aggregation is finite with no truncation estimate.
    """
    if inst.kind != "sum":
        raise ValueError("instance must be sum kind")
    N, d, k = inst.N, inst.d, inst.k
    shifts = []
    a = 1
    while d * a * a <= N - 1:
        shifts.append((g.weight(a), -d * a * a))
        a += 1
    return _aggregate_blocks(N, k, t, shifts)


def sum_diff_analytic(
    g: WeightSpec,
    inst: DiophantineInstance,
    t: float = 1.0,
    a_horizon: int = 80,
) -> Evaluation:
    """Series value of (1/k^2) sum_{k b^2 - d a^2 = N} g(a)/b^4 over the
    full (Pell-type, possibly infinite) solution set.

    The horizon tail uses b > a sqrt(d/k):
    sum_{a>A} <= bound/(3 sqrt(k) d^(3/2) A^3).
    """
    if inst.kind != "difference":
        raise ValueError("instance must be difference kind")
    N, d, k = inst.N, inst.d, inst.k
    tail = g.bound / (3.0 * math.sqrt(k) * d**1.5 * a_horizon**3)
    shifts = [(g.weight(a), d * a * a) for a in range(1, a_horizon + 1)]
    return _aggregate_blocks(N, k, t, shifts, tail)


def divisor_pair_sum_analytic(
    g: WeightSpec,
    N: int,
    t: float = 1.0,
) -> Evaluation:
    """Series value of sum over divisors d|N with N/d > d of
    g(N/d - d)/(N/d + d)^4, through b^2 - a^2 = 4N.

    Arguments 4N + a^2 with a >= N are never squares, so the aggregation
    stops at a = N-1 with zero omitted mass.
    """
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    shifts = [(g.weight(a), a * a) for a in range(1, N)]
    return _aggregate_blocks(4 * N, 1, t, shifts)


def _divisor_pair_bruteforce(g: WeightSpec, N: int) -> float:
    """Oracle for the divisor-pair sum."""
    total = 0.0
    for d in range(1, isqrt(N) + 1):
        if N % d == 0 and N // d > d:
            total += g.weight(N // d - d) / float(N // d + d) ** 4
    return total


# ---------------------------------------------------------------------------
# Unit-weight forms, organized with closed a-sums (independent of the
# block aggregation above).
# ---------------------------------------------------------------------------

# r-values per T call of the P sums: shorter calls keep the temporaries of
# the guarded ratio in cache
_T_CHUNK = 1 << 12


def _unit_value(inst: DiophantineInstance, t: float, a_grid_len: int = 1600) -> Evaluation:
    N, d, k = inst.N, inst.d, inst.k
    sech_coeff = math.sinh(pi * t) / (8.0 * math.sqrt(k) * t)
    # Cutoffs and tail models per kind.  At the resonances r ~ d a^2 the
    # kernel decays like (d a^2 - N)^(-7/2) for r > 0 and (d a^2 + N)^(-2)
    # for r < 0, against T peaks of height ~1/z^2; so the difference kind
    # sweeps r past 10^4/t, and the sum kind settles by r ~ N + 3 10^3.
    # The P tail models were calibrated against runs with r_p = 1.4e5.
    if inst.kind == "sum":
        s = 1
        a_cut = max(4, isqrt((N + 3700) // d) + 1)
        r_p = N + max(2500, int(1200 / t))
        tail = sech_coeff * 4.0 * 5.0 / (d * a_cut) ** 3.5 + 2e-9 / t
    else:
        s = -1
        a_cut = max(4, isqrt((44000 + 4 * N) // d) + 1)
        r_p = N + max(3000, int(12000 / t))
        tail = sech_coeff * 4.0 * 1.27 / (d * d * a_cut**3)
        tail += 5e-4 / (t * math.sqrt(d) * (r_p + 40.0 * N))
    a = np.arange(1, a_grid_len + 1, dtype=np.int64)
    head, exp_part = _closed_heads(N - s * d * a * a, k, t)
    R = max(d * a_cut * a_cut + _sech_half_width(t) + 1, r_p)
    sg, guarded = _signed_g(N, t, k, R)
    sech_val = sech_coeff * float(np.sum(_sech_parts(sg, R, s * d * a[:a_cut] ** 2, t)))
    # sum_a 1/(z^2 + (r - s d a^2)^2) = (pi/(4 d^2)) T(-s r/d, z/d) - 1/(2 (r^2 + z^2))
    # closes the a-sums, r = 0 included, one T call per weight and chunk;
    # over the weights c_n at z = t n, the second part sums to -P(r)/2
    n, cm = _p_weights(t)
    p_sum = 0.0
    for lo in range(-r_p, r_p + 1, _T_CHUNK):
        r = np.arange(lo, min(lo + _T_CHUNK, r_p + 1), dtype=float)
        M, acc = -s * r / d, -0.5 * p_values(r, t)
        for zi, ci in zip(t * n, cm):
            acc += ci * pi / (4.0 * d * d) * t_values(M, zi / d)
        p_sum += float(np.dot(sg[R + lo : R + lo + len(r)], np.where(r % 2, -acc, acc)))
    p_val = -t * math.sinh(pi * t) / (2.0 * math.sqrt(k) * pi) * p_sum
    value = float(np.sum(head)) + float(np.sum(exp_part)) + sech_val + p_val
    est = tail + 1.0 / (2.0 * d * d * a_grid_len**3) + 1e-12  # + the head's a-tail
    return Evaluation(value, est, {"a_terms": a_grid_len}, bool(guarded.any()))


def unit_sum_squares(inst: DiophantineInstance, t: float = 1.0) -> Evaluation:
    """Unit-weight (1/k^2) sum of 1/b^4 over d a^2 + k b^2 = N, evaluated
    in the closed-a-sum organization (independent of the block path)."""
    if inst.kind != "sum":
        raise ValueError("instance must be sum kind")
    return _unit_value(inst, t)


def unit_sum_diff(inst: DiophantineInstance, t: float = 1.0) -> Evaluation:
    """Unit-weight (1/k^2) sum of 1/b^4 over k b^2 - d a^2 = N, evaluated
    in the closed-a-sum organization (independent of the block path)."""
    if inst.kind != "difference":
        raise ValueError("instance must be difference kind")
    return _unit_value(inst, t)

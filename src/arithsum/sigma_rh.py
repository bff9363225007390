"""The divisor sum sigma(N), its convergent-series representation, and
the Robin/Lagarias inequality checks.

sigma(N) decomposes over divisor pairs as

    sigma(N) = q_1(N) sqrt(N) + sum_{a=1}^{N-1} q_1(4N+a^2) sqrt(4N+a^2),

an exact integer identity (b^2 - a^2 = 4N pairs off the divisors d < N/d
as b = N/d + d, a = N/d - d).  Substituting the shifted series for
q_1(4N+a^2)/(4N+a^2)^2 and weighting by (4N+a^2)^(5/2) gives a
convergent-series representation of sigma(N) valid for every t > 0:
the (4N+a^2)^(5/2)-weighted sum of the blocks at base 4N and shifts a^2,
one ``indicators.weighted_blocks`` call, with all hyperbolic weights in
guarded form.

The Lagarias criterion compares sigma(N) against H_N + e^(H_N) log H_N;
Robin's compares against e^gamma N log log N for N >= 5041.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .indicators import weighted_blocks
from .integrals import _EPS
from .kernels import check_analytic_t
from .series import Evaluation

__all__ = [
    "RHRecord",
    "EULER_GAMMA",
    "sigma_bruteforce",
    "sigma_decomposition_residuals",
    "sigma_analytic",
    "harmonic",
    "lagarias_rhs",
    "robin_rhs",
    "rh_check",
]

# Euler's constant, fixed to 17 digits; the Robin bound only needs the value.
EULER_GAMMA = 0.5772156649015329


def sigma_bruteforce(N: int) -> int:
    """Exact divisor sum by trial division up to sqrt(N)."""
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    total = 0
    for d in range(1, isqrt(N) + 1):
        if N % d == 0:
            total += d
            q = N // d
            if q != d:
                total += q
    return total


def _runs(counts: np.ndarray) -> np.ndarray:
    """1, 2, .., c for each c of ``counts`` (int64, each >= 0), end to end."""
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(int(counts.sum()), dtype=np.int64) - starts + 1


def _square_pair_sums(n_max: int) -> np.ndarray:
    """s[N - 1] = sum of b over 4N + a^2 = b^2, 1 <= a < N, for N = 1..n_max,
    exact int64, from a listing of the squares rather than a search.

    b^2 - a^2 = 4N makes b = a + 2j with j >= 1, and a < N holds by
    construction, since N = j(a + j) >= a + 1.  So the pairs are listed for
    each j as a = 1, 2, ... while b^2 <= a^2 + 4 n_max, and each N is read
    off its square as (b^2 - a^2)/4; N is never factored.  b^2 is at most
    (n_max + 1)^2, exact in int64 for n_max < 3e9.
    """
    j = np.arange(1, isqrt(n_max) + 1, dtype=np.int64)
    counts = n_max // j - j  # the a >= 1 with j(a + j) <= n_max; j^2 <= n_max keeps it >= 0
    a = _runs(counts)
    b = a + 2 * np.repeat(j, counts)
    sums = np.zeros(n_max + 1, dtype=np.int64)
    np.add.at(sums, (b * b - a * a) // 4, b)
    return sums[1:]


def _sigma_sieve(n_max: int) -> np.ndarray:
    """s[N - 1] = sigma(N) for N = 1..n_max, exact int64, from one divisor
    sieve: each d is added at every multiple d m <= n_max.

    The pairs (d, m) are listed for each d as m = 1 .. n_max // d, about
    n_max ln n_max of them; no N is factored.
    """
    d = np.arange(1, n_max + 1, dtype=np.int64)
    counts = n_max // d
    m = _runs(counts)
    d = np.repeat(d, counts)
    sums = np.zeros(n_max + 1, dtype=np.int64)
    np.add.at(sums, d * m, d)
    return sums[1:]


def sigma_decomposition_residuals(n_max: int) -> np.ndarray:
    """sigma(N) - q_1(N) sqrt(N) - sum_{a<N} q_1(4N+a^2) sqrt(4N+a^2) for
    every N = 1..n_max, as exact int64; 0 throughout.

    The a-sums come from one listing of the squares (``_square_pair_sums``)
    and sigma(N) from one divisor sieve (``_sigma_sieve``), which never
    reads the squares, so the two sides stay independent enumerations.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be a natural number, got {n_max}")
    total = _square_pair_sums(n_max)
    m = np.arange(1, isqrt(n_max) + 1, dtype=np.int64)
    total[m * m - 1] += m
    return _sigma_sieve(n_max) - total


def _sigma_r_len(N: int, t: float) -> int:
    # must clear the last jump-kernel resonance at r ~ (N-1)^2, plus a
    # polynomial-decay margin for the J tails
    return (N - 1) * (N - 1) + max(4000, 40 * N, int(3000 / t))


def _sigma_tail(tables, w, r_len) -> np.ndarray:
    # guarded hyperbolics underflow to true zeros; the rounding scale bounds every
    # term a block sums, its cut rest and the G-part's sinh(pi t) included
    return 1e-12 * np.abs(w.head) + _EPS * tables.rounding_scale(w)


def sigma_analytic(N: int, t: float = 1.0) -> Evaluation:
    """Convergent-series value of sigma(N), N >= 2, for T_MIN <= t <= T_MAX.

    Assembled as q_1(N) sqrt(N) plus the (4N+a^2)^(5/2)-weighted shifted
    indicator blocks at base 4N and shifts a^2, a = 1..N-1.
    """
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    check_analytic_t(t)
    a2 = np.arange(1, N, dtype=np.int64) ** 2
    Mf = (4 * N + a2).astype(float)
    m = isqrt(N)
    lead = math.sqrt(N) if m * m == N else 0.0
    r_len = _sigma_r_len(N, t)
    ev = weighted_blocks(4 * N, 1, t, (Mf * Mf * np.sqrt(Mf)).tolist(), a2, r_len, _sigma_tail)
    # the r truncation sits past the last resonance with a polynomial margin
    margin = r_len - (N - 1) ** 2
    est = ev.error_estimate + 0.05 * N * N / margin**1.5 + 1e-9
    return Evaluation(lead + ev.value, est, {"a_terms": N - 1, "r_terms": r_len}, ev.guards_engaged)


def harmonic(N: int) -> float:
    """H_N = sum_{r<=N} 1/r by compensated summation."""
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    return math.fsum(1.0 / r for r in range(1, N + 1))


def _lagarias(h: float) -> float:  # the one form of the Lagarias bound, at h = H_N
    return h + math.exp(h) * math.log(h)


def lagarias_rhs(N: int) -> float:
    """H_N + e^(H_N) log(H_N); sigma(N) stays below it for N > 1 iff the
    Riemann hypothesis holds."""
    return _lagarias(harmonic(N))


def robin_rhs(N: int) -> float:
    """e^gamma N log log N; valid comparison point only for N >= 5041."""
    if N < 5041:
        raise ValueError(f"Robin bound applies for N >= 5041, got {N}")
    return math.exp(EULER_GAMMA) * N * math.log(math.log(N))


@dataclass(frozen=True)
class RHRecord:
    """One inequality check: sigma against the Lagarias bound (and the
    Robin bound where applicable).  margin > 0 means unfalsified.
    error_estimate is sigma_analytic's, 0.0 when sigma is exact."""

    N: int
    sigma_analytic: float
    sigma_exact: int
    error_estimate: float
    lagarias_rhs: float
    robin_rhs: float | None
    margin: float
    harmonic: float


def rh_check(N: int, t: float = 1.0, mode: str = "exact") -> RHRecord:
    """Check sigma(N) < H_N + e^(H_N) log H_N with sigma taken exactly
    ("exact") or from the series representation ("analytic").

    Returns the record in both modes and raises only for bad arguments.
    A series value that does not recover sigma(N), non-finite or rounding
    to another integer, shows as its gap to ``sigma_exact``."""
    if N < 2:
        raise ValueError(f"N must be at least 2, got {N}")
    if mode not in ("exact", "analytic"):
        raise ValueError(f"mode must be 'exact' or 'analytic', got {mode!r}")
    exact = sigma_bruteforce(N)
    if mode == "analytic":
        ev = sigma_analytic(N, t)
        value, est = ev.value, ev.error_estimate
    else:
        value, est = float(exact), 0.0
    h = harmonic(N)
    rhs = _lagarias(h)
    robin = robin_rhs(N) if N >= 5041 else None
    return RHRecord(
        N=N,
        sigma_analytic=value,
        sigma_exact=exact,
        error_estimate=est,
        lagarias_rhs=rhs,
        robin_rhs=robin,
        margin=rhs - value,
        harmonic=h,
    )

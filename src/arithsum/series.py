"""Generic summation machinery and the coefficient-inversion theorem.

The central object is a partial-fraction series sum_{n>=1} f(n)/(n+z) with
nonnegative coefficients f(n).  Sampling its evaluator F at integer-shifted
complex points recovers the coefficients:

    f(N) = -(sinh(pi t)/pi) * [ Im F(-N+it) J(0,t)
            + sum_{r>=1} (-1)^r (Im F(r-N+it) + Im F(-r-N+it)) J(r,t) ]

for every t > 0, where J(q,t) = int_0^1 cos(pi q b)/cosh(pi b t) db.  The
right-hand side vanishes for N <= 0.  For real-coefficient evaluators the
bracket F(z conj) - F(z) is -2i Im F(z), which is how it is computed here
(no cancellation between two nearly equal values).

Callers must guarantee that their evaluator's shifted series converge
absolutely and uniformly; that hypothesis cannot be checked mechanically
and is documented per evaluator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .integrals import j_values

__all__ = [
    "TruncationPolicy",
    "SeriesEvaluator",
    "Evaluation",
    "TruncationError",
    "sum_series",
    "invert_series",
    "lemma4_residual",
    "self_consistency_residual",
    "indicator_series_evaluator",
    "geometric_series_evaluator",
]


class TruncationError(RuntimeError):
    """A series hit its term cap before meeting its stopping rule."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for an infinite series.

    tail_kind selects how the post-truncation error is bounded:
      * "exponential": terms decay at least geometrically with ratio
        ``tail_param``; bound = first omitted term / (1 - ratio).
      * "polynomial": |a_r| ~ C r^(-p) with p = ``tail_param`` > 1;
        integral bound C r^(1-p)/(p-1) = |a_r| r/(p-1).
      * "alternating": bound = magnitude of the first omitted term.

    ``quiet_run`` consecutive below-tolerance terms are required before
    stopping, which protects oscillatory series from accidental early
    zeros.
    """

    abs_tol: float = 1e-12
    max_terms: int = 10**6
    tail_kind: str = "exponential"
    tail_param: float = 0.5
    quiet_run: int = 5

    def __post_init__(self) -> None:
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.tail_kind not in ("exponential", "polynomial", "alternating"):
            raise ValueError(f"unknown tail_kind {self.tail_kind!r}")
        if self.tail_kind == "polynomial" and self.tail_param <= 1:
            raise ValueError("polynomial tail exponent must exceed 1")
        if self.quiet_run < 1:
            raise ValueError("quiet_run must be at least 1")

    def tail_bound(self, last_term: float, n_terms: int) -> float:
        """Bound on the omitted tail given the last accepted term."""
        a = abs(last_term)
        if self.tail_kind == "exponential":
            rho = self.tail_param
            return a * rho / (1.0 - rho)
        if self.tail_kind == "polynomial":
            return a * max(n_terms, 1) / (self.tail_param - 1.0)
        return a


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesEvaluator:
    """Evaluator F(z) of a partial-fraction series sum f(n)/(n+z).

    ``coefficient`` returns the true f(n) where known, so inversion tests
    can compare recovered against intended values.  Real-coefficient
    evaluators satisfy F(conj z) = conj F(z).
    """

    evaluate: Callable[[complex], complex]
    declared_tol: float
    label: str
    coefficient: Callable[[int], float] | None = None


@dataclass(frozen=True)
class Evaluation:
    """A computed scalar plus its error model and bookkeeping."""

    value: float
    error_estimate: float
    terms_used: dict = field(default_factory=dict)
    guards_engaged: bool = False


class _Accumulator:
    """Neumaier compensated accumulator; deterministic for a fixed order."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def total(self) -> float:
        return self.s + self.c


def sum_series(terms: Iterable[float], policy: TruncationPolicy = DEFAULT_POLICY) -> Evaluation:
    """Compensated summation of a term stream under a stopping rule.

    Stops after ``policy.quiet_run`` consecutive terms below ``abs_tol``
    or when the stream ends; raises TruncationError if ``max_terms`` is
    reached first.
    """
    acc = _Accumulator()
    quiet = 0
    n = 0
    last = 0.0
    exhausted = False
    it: Iterator[float] = iter(terms)
    while True:
        try:
            term = next(it)
        except StopIteration:
            exhausted = True
            break
        n += 1
        acc.add(term)
        last = term
        quiet = quiet + 1 if abs(term) < policy.abs_tol else 0
        if quiet >= policy.quiet_run:
            break
        if n >= policy.max_terms:
            raise TruncationError(
                f"series did not meet its stopping rule within {policy.max_terms} terms"
            )
    total = acc.total
    # the tail bound can be exactly tight (geometric series), so cover the
    # representation error of the accumulated value as well
    est = 0.0 if exhausted else policy.tail_bound(last, n) + 8.0 * 2.2e-16 * abs(total)
    return Evaluation(total, est, {"terms": n})


def invert_series(
    F: SeriesEvaluator,
    N: int,
    t: float,
    policy: TruncationPolicy | None = None,
) -> Evaluation:
    """Recover the coefficient f(N) of a partial-fraction series from its
    evaluator, for any t > 0.  Returns ~0 for N <= 0.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if policy is None:
        policy = TruncationPolicy(abs_tol=1e-14, tail_kind="polynomial", tail_param=4.0)
    N = int(N)
    block = 256
    r_max = min(policy.max_terms, 2 * 10**5)
    # J grows with the series, at least doubling, instead of being built
    # to r_max up front; the series usually settles within a few thousand
    J = j_values(min(r_max, 16 * block), t)
    acc = _Accumulator()
    acc.add(F.evaluate(complex(-N, t)).imag * J[0])
    quiet = 0
    r = 0
    last = 0.0
    while r < r_max:
        hi = min(r + block, r_max)
        if hi >= len(J):
            J = j_values(min(r_max, 2 * hi), t)
        for rr in range(r + 1, hi + 1):
            term = F.evaluate(complex(rr - N, t)).imag + F.evaluate(complex(-rr - N, t)).imag
            term *= J[rr] * (1.0 if rr % 2 == 0 else -1.0)
            acc.add(term)
            last = term
            quiet = quiet + 1 if abs(term) < policy.abs_tol else 0
        r = hi
        if quiet >= policy.quiet_run and r > abs(N) + 32:
            break
    else:
        raise TruncationError(f"inversion series not converged after {r_max} terms")
    scale = math.sinh(math.pi * t) / math.pi
    return Evaluation(
        -scale * acc.total,
        scale * policy.tail_bound(last, r),
        {"r_terms": r},
    )


def lemma4_residual(
    f: Callable[[int], float],
    beta: float,
    t: float,
    n_terms: int,
    k_max: int | None = None,
) -> float:
    """Defect of the phase-weighted coefficient identity for a truncated
    coefficient sequence.

    Both sides use f(1..n_terms) only, for which the identity is exact;
    the residual therefore measures the convergence of the shifted-sample
    series, which is summed to ``k_max`` (beyond n_terms) with a final
    two-point average to damp the alternating error term.

    Raises ValueError for |beta| > 1 or t = 0.
    """
    if abs(beta) > 1.0:
        raise ValueError(f"|beta| must not exceed 1, got {beta}")
    if t == 0:
        raise ValueError("t must be nonzero")
    if k_max is None:
        k_max = max(20_000, 4 * n_terms)
    n = np.arange(1, n_terms + 1, dtype=float)
    fn = np.array([f(int(j)) for j in range(1, n_terms + 1)], dtype=float)
    sgn_n = np.where(np.arange(1, n_terms + 1) % 2 == 0, 1.0, -1.0)
    lhs = (
        math.pi
        * math.cosh(math.pi * beta * t)
        / math.sinh(math.pi * t)
        * np.sum(sgn_n * np.exp(-1j * math.pi * n * beta) * fn)
    )

    def bracket(shift: np.ndarray) -> np.ndarray:
        # F(shift - it) - F(shift + it) = sum_n f(n) * 2it/((n+shift)^2+t^2)
        den = (n[None, :] + shift[:, None]) ** 2 + t * t
        return 2j * t * (fn[None, :] / den).sum(axis=1)

    total = bracket(np.array([0.0]))[0] / 2j
    last_contrib = 0j
    block = 2048
    k0 = 0
    while k0 < k_max:
        hi = min(k0 + block, k_max)
        ks = np.arange(k0 + 1, hi + 1, dtype=float)
        sgn = np.where(np.arange(k0 + 1, hi + 1) % 2 == 0, 1.0, -1.0)
        bp = bracket(ks)
        bm = bracket(-ks)
        phase_p = np.exp(1j * math.pi * ks * beta)
        phase_m = np.exp(-1j * math.pi * ks * beta)
        contrib = (sgn * (phase_p * bp + phase_m * bm)) / 2j
        total = total + contrib.sum()
        last_contrib = contrib[-1]
        k0 = hi
    # Averaging the last two partial sums damps the leading alternating
    # error term; for one-signed phases (beta = +-1) it is harmless.
    rhs = total - 0.5 * last_contrib
    return abs(lhs - rhs)


def self_consistency_residual(
    F: SeriesEvaluator,
    t: float,
    policy: TruncationPolicy | None = None,
) -> float:
    """Residual of the N = 0 case of the inversion: for any admissible
    evaluator the J-weighted sample series must reproduce the value at
    +-it exactly, so the recovered coefficient f(0) must vanish.  Returns
    |the bracket| = pi/sinh(pi t) |f(0)|.
    """
    f0 = invert_series(F, 0, t, policy).value
    return math.pi / math.sinh(math.pi * t) * abs(f0)


def indicator_series_evaluator(k: int = 1) -> SeriesEvaluator:
    """Closed-form evaluator of sum_n q_k(n)/(n^2 (n+z)), whose
    coefficients are q_k(N)/N^2 (1/N^2 at N = k m^2, else 0).

    Absolute and uniform convergence of the shifted sample series holds
    for this evaluator (the jump kernel decays polynomially).
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    rk = math.sqrt(k)

    def evaluate(z: complex) -> complex:
        w = cmath.sqrt(z)
        cth = 1.0 / cmath.tanh(math.pi * w / rk)
        return (
            math.pi**4 / (90.0 * k * k * z)
            - math.pi**2 / (6.0 * k * z * z)
            - 0.5 / z**3
            + math.pi * cth / (2.0 * rk * z * z * w)
        )

    def coefficient(n: int) -> float:
        if n < 1 or n % k:
            return 0.0
        m = math.isqrt(n // k)
        return 1.0 / (n * n) if m * m == n // k else 0.0

    return SeriesEvaluator(evaluate, 1e-12, f"square-indicator k={k}", coefficient)


def geometric_series_evaluator(ratio: float = 0.5, terms: int = 160) -> SeriesEvaluator:
    """Direct-summation evaluator of sum_n ratio^n/(n+z); coefficients are
    known by construction, making it the simplest inversion test bed."""
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")

    def evaluate(z: complex) -> complex:
        return sum(ratio**n / (n + z) for n in range(1, terms + 1))

    return SeriesEvaluator(evaluate, ratio**terms, f"geometric ratio={ratio}", lambda n: ratio**n)

"""The coefficient-inversion theorem, its residual checks and the
evaluators they are tested on.

The central object is a partial-fraction series sum_{n>=1} f(n)/(n+z) with
nonnegative coefficients f(n).  Sampling its evaluator F at integer-shifted
complex points recovers the coefficients:

    f(N) = -(sinh(pi t)/pi) * [ Im F(-N+it) J(0,t)
            + sum_{r>=1} (-1)^r (Im F(r-N+it) + Im F(-r-N+it)) J(r,t) ]

for every t > 0, where J(q,t) = int_0^1 cos(pi q b)/cosh(pi b t) db.  The
right-hand side vanishes for N <= 0.  For real-coefficient evaluators the
bracket F(z conj) - F(z) is -2i Im F(z) (no cancellation between two
nearly equal values), so an evaluator returns Im F alone:
``evaluate(x, t)`` maps an array of real points x to the real array
Im F(x + it).  ``invert_series_many`` samples it once, on the union of
the 2L+1 points of every N it inverts, in ascending order, and sums each
folded r-series, weighted by the signed table (-1)^r J(r) of ``j_values``,
pairwise; ``invert_series`` is its one-N case, and no N gives [].  The
length L is the one inversion rule; there is no stopping rule to tune.  It serves T_MIN <= t <= T_MAX, and ``lemma4_residual``,
which is even in t, T_MIN <= |t| <= T_MAX.

``lemma4_residual`` checks the phase-weighted form of the identity at
beta in {-1, 0, 1}, where its phases are real signs: it sums the shifts
term by term to n_terms + 32 and closes the rest in digamma form
(Stirling's series, DLMF 5.11.2).  Any other beta, whose tail is a Lerch
transcendent with no elementary form, is refused.

Callers must guarantee that their evaluator's shifted series converge
absolutely and uniformly; that hypothesis cannot be checked mechanically
and is documented per evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .integrals import _EPS, j_values
from .kernels import check_analytic_t

# the largest |N| or |shift| a driver takes: the points and windows it
# sizes from a few such coordinates stay inside int64
_COORD_MAX = 2**60

_LEMMA4_ROWS = 64  # rows per block of lemma4_residual: 64 x 2000 doubles ~ 1 MB
# lemma4_residual's closed tails start at shift n_terms + _PSI_MARGIN, where
# every digamma argument has real part >= (_PSI_MARGIN + 1)/2 = 16.5
_PSI_MARGIN = 32
# B_2k/(2k), k = 1..8, of Stirling's series for the digamma function
_PSI_STIRLING = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160)
_GEOMETRIC_RATIO, _GEOMETRIC_TERMS = 0.5, 160  # geometric_series_evaluator's ratio^n, n = 1..160

__all__ = [
    "SeriesEvaluator",
    "Evaluation",
    "invert_series",
    "invert_series_many",
    "lemma4_residual",
    "self_consistency_residual",
    "indicator_series_evaluator",
    "geometric_series_evaluator",
    "verdict",
]


@dataclass(frozen=True)
class SeriesEvaluator:
    """Evaluator F(z) of a partial-fraction series sum f(n)/(n+z).

    ``evaluate(x, t)`` maps a 1-D array of real points x and a real t to
    the real array Im F(x + it), which is odd in t for real coefficients.
    ``coefficient`` returns the true f(n) where known, so inversion tests
    can compare recovered against intended values.
    """

    evaluate: Callable[[np.ndarray, float], np.ndarray]
    label: str
    coefficient: Callable[[int], float] | None = None


@dataclass(frozen=True)
class Evaluation:
    """A computed scalar plus its error model and bookkeeping."""

    value: float
    error_estimate: float
    terms_used: dict = field(default_factory=dict)
    guards_engaged: bool = False


def verdict(value: float, oracle: float, bound: float, integer: bool = False) -> tuple[float, bool]:
    """(diff, failed) of a value against its oracle, the one failure rule: diff =
    |value - oracle| must be <= bound and, for an integer oracle, < 0.5.  Every
    ordered comparison with NaN is false, so a NaN value fails by the comparisons
    alone, and so does an infinite one against a finite bound."""
    diff = abs(value - oracle)
    return diff, not (diff <= bound and (not integer or diff < 0.5))


def invert_series(F: SeriesEvaluator, N: int, t: float) -> Evaluation:
    """Recover the coefficient f(N) of a partial-fraction series from its
    evaluator, for T_MIN <= t <= T_MAX: the one-N case of ``invert_series_many``."""
    return invert_series_many(F, [N], t)[0]


def invert_series_many(F: SeriesEvaluator, Ns, t: float) -> list[Evaluation]:
    """Recover the coefficients f(N) for each N of ``Ns``; ~0 for N <= 0,
    and [] for no N.

    Each N reads its 2L+1 points -N +- r + it, r = 0..L, with
    L = |N| + max(2500, 1200/t), from one call of F over the union of the
    points, x = lo..hi in ascending order, and its (-1)^r J(r) from one
    signed table.  The two sides are folded before the products with
    (-1)^r J(r) are summed pairwise.  The estimate is the tail model 20/L^2
    plus the sinh(pi t)/pi-amplified rounding of that sum,
    eps (ceil(log2 L) + 2) sum |terms|.  An |N| past 2^60, where the points
    could wrap int64, is refused before anything is sized.
    """
    check_analytic_t(t)
    Ns = [int(N) for N in Ns]
    for N in Ns:
        if abs(N) > _COORD_MAX:
            raise ValueError(f"|N| must be at most 2^60 in int64, got N = {N}")
    if not Ns:
        return []
    Ls = [abs(N) + max(2500, int(1200 / t)) for N in Ns]
    hi = max(L - N for N, L in zip(Ns, Ls))
    lo = min(-L - N for N, L in zip(Ns, Ls))
    im = F.evaluate(np.arange(lo, hi + 1, dtype=float), t)
    S = j_values(max(Ls), t)
    scale = math.sinh(math.pi * t) / math.pi
    out = []
    for N, L in zip(Ns, Ls):
        x0 = -N - lo  # the index of x = -N
        terms = (im[x0 + 1 : x0 + L + 1] + im[x0 - L : x0][::-1]) * S[1 : L + 1]
        head = float(im[x0] * S[0])
        rounding = _EPS * (math.ceil(math.log2(L)) + 2) * scale
        est = 20.0 / L**2 + rounding * (abs(head) + float(np.sum(np.abs(terms))))
        out.append(Evaluation(-scale * (head + float(np.sum(terms))), float(est), {"r_terms": L}))
    return out


def _digamma(z: np.ndarray) -> np.ndarray:
    """psi(z) from Stirling's series with eight Bernoulli terms (DLMF 5.11.2),
    for Re z >= 10, where the first dropped term is below 2e-18 relative."""
    z = np.asarray(z, dtype=complex)
    u = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_PSI_STIRLING):
        s = (s + c) * u
    return np.log(z) - 0.5 / z - s


def _closed_tail(fn: np.ndarray, beta: float, t: float, k_max: int) -> float:
    """sum_{k > k_max} (-1)^k e^(i pi k beta) [b(k) + b(-k)], with b(s) =
    t sum_n f(n)/((n+s)^2 + t^2), in closed form at beta in {-1, 0, 1}.

    With a = k_max + 1 +- n, sum_{j>=0} |t|/((j+a)^2 + t^2) = Im psi(a + i|t|),
    and its alternating form is Im (psi((w+1)/2) - psi(w/2))/2 with w = a - i|t|;
    the alternating tail starts with the sign (-1)^(k_max+1).
    """
    n = np.arange(1, fn.size + 1, dtype=float)
    a = np.concatenate((k_max + 1 + n, k_max + 1 - n))
    if beta == 0.0:
        w = a - 1j * abs(t)
        im = (-1.0) ** (k_max + 1) * 0.5 * (_digamma((w + 1.0) / 2.0) - _digamma(w / 2.0)).imag
    else:
        im = _digamma(a + 1j * abs(t)).imag
    return math.copysign(1.0, t) * float(np.dot(fn, im[: fn.size] + im[fn.size :]))


def lemma4_residual(f: Callable[[int], float], beta: float, t: float, n_terms: int) -> float:
    """Defect of the phase-weighted coefficient identity for a truncated
    coefficient sequence at beta in {-1, 0, 1}, where the phase
    (-1)^k e^(i pi k beta) is the real s^k, s = -1 at beta = 0 and +1 at +-1.

    Both sides use f(1..n_terms) only, for which the identity is exact, so
    the residual measures the shifted-sample series: summed term by term to
    k_max = n_terms + 32, where every digamma argument has real part >= 16.5,
    and closed past it in digamma form (``_closed_tail``), from the summand
    itself and never from the left-hand side.  Raises ValueError for
    n_terms < 1, for any other beta, whose tail is a Lerch transcendent
    (DLMF 25.14), before f is called, and for |t| outside [T_MIN, T_MAX];
    it is even in t.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    if beta not in (-1.0, 0.0, 1.0):
        raise ValueError(f"beta must be -1, 0 or 1, where the shift series' tail closes, got {beta}")
    check_analytic_t(abs(t))
    k_max = n_terms + _PSI_MARGIN
    fn = np.array([f(j) for j in range(1, n_terms + 1)], dtype=float)
    sk = (-1.0 if beta == 0.0 else 1.0) ** np.arange(1, k_max + 1)  # s^k, k = 1..k_max
    lhs = math.pi * math.cosh(math.pi * beta * t) / math.sinh(math.pi * t) * float(np.sum(sk[:n_terms] * fn))

    # (F(s - it) - F(s + it))/2i = t sum_n f(n)/((n+s)^2+t^2) for every shift
    # s in [-k_max, k_max], into brackets[k_max + s].  Shift s reads the
    # n_terms-wide window at m = 1+s of one table of m^2 + t^2, m = 1-k_max ..
    # n_terms+k_max.  m is an exact integer, so each window holds the bits of
    # (n + s)^2 + t^2; each row's pairwise sum is the same in blocks of
    # _LEMMA4_ROWS rows (~1 MB) as over all rows at once.
    m = np.arange(1 - k_max, n_terms + k_max + 1, dtype=float)
    rows = sliding_window_view(m**2 + t * t, n_terms)
    brackets = np.empty(2 * k_max + 1)
    buf = np.empty((_LEMMA4_ROWS, n_terms))
    for i in range(0, brackets.size, _LEMMA4_ROWS):
        den = rows[i : i + _LEMMA4_ROWS]
        quot = np.divide(fn, den, out=buf[: len(den)])
        np.sum(quot, axis=1, out=brackets[i : i + len(den)])
    brackets *= t

    shifts = float(np.sum(sk * (brackets[k_max + 1 :] + brackets[k_max - 1 :: -1])))  # k = 1..k_max, both signs
    return abs(lhs - (float(brackets[k_max]) + shifts + _closed_tail(fn, beta, t, k_max)))


def self_consistency_residual(F: SeriesEvaluator, t: float) -> float:
    """Residual of the N = 0 case of the inversion: for any admissible
    evaluator the J-weighted sample series must reproduce the value at
    +-it exactly, so the recovered coefficient f(0) must vanish.  Returns
    |the bracket| = pi/sinh(pi t) |f(0)|.
    """
    f0 = invert_series(F, 0, t).value
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

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        z = np.asarray(x, dtype=float) + 1j * t
        w = np.sqrt(z)
        cth = 1.0 / np.tanh(math.pi * w / rk)
        return (
            math.pi**4 / (90.0 * k * k * z)
            - math.pi**2 / (6.0 * k * z * z)
            - 0.5 / z**3
            + math.pi * cth / (2.0 * rk * z * z * w)
        ).imag

    def coefficient(n: int) -> float:
        if n < 1 or n % k:
            return 0.0
        m = math.isqrt(n // k)
        return 1.0 / (n * n) if m * m == n // k else 0.0

    return SeriesEvaluator(evaluate, f"square-indicator k={k}", coefficient)


def geometric_series_evaluator() -> SeriesEvaluator:
    """Direct-summation evaluator of sum_{n <= 160} 2^-n/(n+z); coefficients
    are known by construction, making it the simplest inversion test bed."""

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        z = np.asarray(x, dtype=float) + 1j * t
        total = np.zeros_like(z)
        for n in range(1, _GEOMETRIC_TERMS + 1):
            total += _GEOMETRIC_RATIO**n / (n + z)
        return total.imag

    return SeriesEvaluator(evaluate, f"geometric ratio={_GEOMETRIC_RATIO}", lambda n: _GEOMETRIC_RATIO**n)

"""The coefficient-inversion theorem, its residual checks and the
evaluators they are tested on.

The central object is a partial-fraction series sum_{n>=1} f(n)/(n+z) with
nonnegative coefficients f(n).  Sampling its evaluator F at integer-shifted
complex points recovers the coefficients:

    f(N) = -(sinh(pi t)/pi) * [ Im F(-N+it) S(0)
            + sum_{r>=1} S(r) (Im F(r-N+it) + Im F(-r-N+it)) ]

for every t > 0, where S(r) = (-1)^r J(r,t) and J(q,t) = int_0^1
cos(pi q b)/cosh(pi b t) db.  The right-hand side vanishes for N <= 0.
For real-coefficient evaluators the bracket F(z conj) - F(z) is -2i Im F(z)
(no cancellation between two nearly equal values), so an evaluator
returns Im F alone: ``evaluate(x, t)`` maps an array of real points x to
the real array Im F(x + it).  It also gives its partial fractions,
``poles(n_max)``: the poles n <= n_max, their residues f(n) and a bound
of the residues it leaves out.

``invert_series_many`` samples the head r <= L of the r-series, with

    L = |N| + max(128, ceil(24 t)),

and closes the tail r > L.  With Im F(x + it) = -t sum_n f(n) P(n + x),
P(u) = 1/(u^2 + t^2), the tail is -t sum_n f(n) K_L(n - N), where

    K_L(c) = sum_{r>L} S(r) [P(r + c) + P(r - c)].

Past L, S(r) is its moment form sum_j c_j/r^(2j+2) (``integrals._s_tail_form``),
and each moment's sum closes (``_closed_tails``): near poles, |c| <= (L+1)/4,
through the Hurwitz zeta function, far ones through the digamma function.
The n = N term is solved for, not read: with T' the tail without it and
scale = sinh(pi t)/pi,

    f(N) = -scale (head + T') / (1 - scale t K_L(0)),

so the value reads the samples and the residues at n != N alone.  L's 128
leaves the tail a small share of the value, and its 24t leaves S's sech
head past L, which the moment form omits, below 2^-54 of S(0).  The
inversion serves T_MIN <= t <= T_MAX, and ``lemma4_residual``, which is
even in t, T_MIN <= |t| <= T_MAX.

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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .integrals import _EPS, _j_table_error, _s_tail_form, j_values
from .kernels import TABLE_CHUNK, check_analytic_t

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
# the sampled half-width L = |N| + max(_TAIL_SPAN, ceil(_SECH_SPAN t)): e^(-pi 24/2) < 2^-54
_TAIL_SPAN, _SECH_SPAN = 128, 24.0
_TAIL_TOL = 2.0**-40  # of S's lead past L; the tail is 2^-16 of the value, so 2^-56 of it
# terms of a near pole's Hurwitz-zeta series, whose ratio is at most 1/4:
# the rest is below 2^-55 of its bound
_NEAR_TERMS = 28
# the tail reads the poles n <= _POLE_SPAN (L + 1) and bounds the rest
_POLE_SPAN = 1024
# B_2k/(2k)!, k = 1..10, of the Euler-Maclaurin series of the Hurwitz zeta function
_ZETA_EM = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000,
    1 / 74724249600, -3617 / 10670622842880000, 43867 / 5109094217170944000,
    -174611 / 802857662698291200000,
)

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
    ``poles(n_max)`` gives the series' partial fractions up to n_max:
    (n, f, rest), the poles n <= n_max in ascending order as floats, their
    residues f(n), and a bound rest >= sum_{n > n_max} f(n) of the ones it
    leaves out.  ``coefficient`` returns the true f(n) where known, so
    inversion tests can compare recovered against intended values.
    """

    evaluate: Callable[[np.ndarray, float], np.ndarray]
    label: str
    poles: Callable[[float], tuple[np.ndarray, np.ndarray, float]]
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
    L = |N| + max(128, ceil(24 t)), from one call of F over the union of the
    points, x = lo..hi in ascending order, and its S(r) from one signed
    table.  The two sides are folded before the products with S(r) are
    summed pairwise into the head.  The tail r > L is closed for all N at
    once (``_closed_tails``) from F's poles n != N, and the n = N term is
    solved for: f(N) = -scale (head + T')/(1 - scale t K_L(0)), scale =
    sinh(pi t)/pi.  So r_terms, L, does not grow as t falls.

    The estimate is, scaled by scale/|1 - scale t K_L(0)|, the head's
    rounding, eps (ceil(log2 L) + 2) sum |terms|, plus the error of the
    J table's entries (``integrals._j_table_error``), plus the tail's bound
    (``_closed_tails``), whose share from f(N) takes |value| for f(N);
    and 3 eps |value| for the solve.  An |N| past 2^60, where the points
    could wrap int64, is refused before anything is sized.
    """
    check_analytic_t(t)
    Ns = [int(N) for N in Ns]
    for N in Ns:
        if abs(N) > _COORD_MAX:
            raise ValueError(f"|N| must be at most 2^60 in int64, got N = {N}")
    if not Ns:
        return []
    Ls = [abs(N) + _tail_span(t) for N in Ns]
    hi = max(L - N for N, L in zip(Ns, Ls))
    lo = min(-L - N for N, L in zip(Ns, Ls))
    im = F.evaluate(np.arange(lo, hi + 1, dtype=float), t)
    S = j_values(max(Ls), t)
    q_w, j_delta, j_kappa = _j_table_error(t)
    scale = math.sinh(math.pi * t) / math.pi
    out = []
    for N, L, (tail, tk0, tail_err, err_per_f) in zip(Ns, Ls, _closed_tails(F, Ns, Ls, t)):
        x0 = -N - lo  # the index of x = -N
        folds = im[x0 + 1 : x0 + L + 1] + im[x0 - L : x0][::-1]
        terms = folds * S[1 : L + 1]
        head = float(im[x0] * S[0])
        denominator = 1.0 - scale * tk0
        value = -scale * (head + float(np.sum(terms)) - tail) / denominator
        abs_terms = np.abs(terms)
        est = _EPS * (math.ceil(math.log2(L)) + 2) * (abs(head) + float(np.sum(abs_terms)))
        # S's own error: delta on the weight-sum entries r < q_w, kappa eps |S| past them
        est += j_delta * (abs(float(im[x0])) + float(np.sum(np.abs(folds[: q_w - 1]))))
        est += j_kappa * _EPS * float(np.sum(abs_terms[q_w - 1 :]))
        est = scale * (est + tail_err + abs(value) * err_per_f) / abs(denominator) + 3.0 * _EPS * abs(value)
        out.append(Evaluation(float(value), float(est), {"r_terms": L}))
    return out


def _tail_span(t: float) -> int:
    """L - |N|: 128, or 24t where S's sech head past L would not be below
    2^-54 of S(0) otherwise."""
    return max(_TAIL_SPAN, math.ceil(_SECH_SPAN * t))


@functools.lru_cache(maxsize=16)
def _zeta_em_table(ns: int) -> tuple[np.ndarray, np.ndarray]:
    """(1/(s - 1), B_2k/(2k)! (s)_(2k-1) for k = 1..10) over s = 2..ns+1,
    (s)_j the rising factorial, read-only."""
    s = np.arange(2, ns + 2, dtype=float)
    rows, rising = [], s.copy()
    for k, b in enumerate(_ZETA_EM, 1):
        if k > 1:
            rising = rising * (s + 2 * k - 3) * (s + 2 * k - 2)
        rows.append(b * rising)
    inv, beta = 1.0 / (s - 1.0), np.array(rows)
    inv.flags.writeable = beta.flags.writeable = False
    return inv, beta


@functools.lru_cache(maxsize=64)
def _zeta_scaled(ns: int, a: float) -> np.ndarray:
    """Z[q] = a^(q+1) zeta(q + 2, a), q = 0..ns-1, the Hurwitz zeta function
    scaled to ~1/(q + 1), by Euler-Maclaurin summation from a (DLMF 2.10.1):
    1/(s - 1) + 1/(2a) + sum_k B_2k/(2k)! (s)_(2k-1)/a^(2k), read-only.
    Its remainder is below the first omitted term, below 2^-60 of the value
    for a >= 129 and s <= 53, the most the tail asks for, and for a = 256
    and s <= 116, the indicator evaluator's Taylor series."""
    inv, beta = _zeta_em_table(ns)
    powers = (1.0 / (a * a)) ** np.arange(1.0, len(_ZETA_EM) + 1.0)
    out = inv + 0.5 / a + powers @ beta
    out.flags.writeable = False
    return out


def _closed_tails(F: SeriesEvaluator, Ns: list, Ls: list, t: float) -> list:
    """Per N: (tail, t K_L(0), err, err_f), with tail = t sum_{n != N} f(n)
    K_L(n - N) over F's poles n <= 1024 (L + 1), and err + |f(N)| err_f a
    bound of the error of tail + f(N) t K_L(0) as the whole tail's value.

    The sums.  With a = L + 1 and S(r) = sum_j c_j/r^(2j+2) + R(r) for
    r >= a (``integrals._s_tail_form``) and P(u) = Im(1/(u - it))/t,
    t K_L(c) = sum_j c_j Im (G_2j+2(c - it) + G_2j+2(-c - it)) + t sum_r
    R(r) (P(r + c) + P(r - c)), where G_p(w) = sum_{r>=a} 1/(r^p (r + w)).
    Each w is an element, and c = 0 gives K_L(0).  In the scaled form
    chat_j = c_j/a^(2j+2), v = -w/a and y = a/w:
    - near, |w| <= a/4: sum_j c_j G_2j+2(w) = sum_k zt_k v^k, with
      zt_k = sum_j chat_j Z(2j + 3 + k) (``_zeta_scaled``), from
      1/(r + w) = sum_k (-w)^k/r^(k+1); K terms leave below (4/3) 4^-K Z_K,
      Z_K = sum_j |chat_j| (1/(K + 2) + 1/a) >= |zt_k| for k >= K;
    - far: G_1(w) = (psi(a + w) - psi(a))/w (``_digamma``, whose reflection
      gives the resonance of a pole inside the tail) and the recurrence
      G_p = (zeta(p, a) - G_(p-1))/w, unrolled into a polynomial in y of
      degree 2m - 1 with beta_e = (-1)^(e+1) sum_j chat_j Z(2j + 3 - e) and
      -chat_j G_1 a at y^(2j+1) (``_far_values``): its subtractions lose at
      most a factor |a/w| < 4 a step, which the terms' magnitudes carry.
    An element's value and the magnitude of its terms depend on (N, c, t)
    alone, and each N sums its own elements by fsum, so its results do not
    depend on the batch.

    The bound, over the residues W' of the poles n != N, read or not:
    - rounding, eps (K + 4m + 40) times the magnitude of each element's
      terms, a generous count of the roundings on either path;
    - R's share: |R(r)| <= eps_S = E/a^2 + e^(-pi a/(2t))/t for r >= a, the
      moment remainder and rounding and S's sech head, and t sum_r
      (P(r + c) + P(r - c)) <= 2 pi coth(pi t), so 2 pi coth(pi t) eps_S
      per unit of residue, plus the zeta series' cut-off, (8/3) 4^-K Z_K;
    - the poles past n_cut = 1024 a, whose residues F bounds by rest:
      with sigma >= r^2 |S(r)| for r >= a, |t K_L(c)| <= kappa/c^2,
      kappa = sigma (5t/(a - 1) + 4 pi coth(pi t)), since P(r + c) <= 1/c^2
      over sum_r r^-2 <= 1/(a - 1), P(r - c) <= 4/c^2 where r <= c/2, and
      r^-2 <= 4/c^2 over sum_r P(r - c) <= pi coth(pi t)/t where not; so
      rest kappa/(n_cut - N)^2.
    err_f takes the rounding of K_L(0)'s element and R's share.
    """
    a = np.array(Ls, dtype=float) + 1.0
    coeffs, rest_s = _s_tail_form(t, _tail_span(t) + 1, _TAIL_TOL)
    m, K, nN = coeffs.size, _NEAR_TERMS, a.size
    n_cut = _POLE_SPAN * a
    reads = {x: F.poles(x) for x in n_cut.tolist()}
    n, f, _ = reads[float(n_cut.max())]
    chat = coeffs * (1.0 / a[:, None] ** 2) ** np.arange(1.0, m + 1.0)  # c_j/a^(2j+2)
    zcols, signs = _tail_index(m)
    Z = np.array([_zeta_scaled(2 * m + K, ai) for ai in a.tolist()])
    zt_beta = (chat[:, :, None] * signs * Z[:, zcols]).sum(axis=1)
    zt, beta = zt_beta[:, : K - 1], zt_beta[:, K - 1 :]  # zt_k, k = 1..K-1; beta_e, e = 0..2m-1
    abs_chat = np.abs(chat).sum(axis=1)

    c = n - np.array(Ns, dtype=float)[:, None]
    valid = (n <= n_cut[:, None]) & (c != 0)
    rows, cols = np.nonzero(valid)
    cc, ne = c[rows, cols], cols.size
    rr = np.concatenate((rows, rows, np.arange(nN)))
    w = np.concatenate((cc, -cc, np.zeros(nN))) - 1j * t
    aw = a[rr]
    is_near = np.abs(w) <= 0.25 * aw
    near, far = np.flatnonzero(is_near), np.flatnonzero(~is_near)
    val, mag = np.empty(w.size), np.empty(w.size)

    # near: |v| <= 1/4, so each |v|^k <= |v| and the terms' magnitudes sum to at most |v| sum_k |zt_k|
    zt_abs = np.abs(zt).sum(axis=1)
    for i in range(0, near.size, TABLE_CHUNK // K):
        e = near[i : i + TABLE_CHUNK // K]
        v = w[e] / -aw[e]
        V = np.empty((e.size, K - 1), dtype=complex)
        V[:] = v[:, None]
        np.multiply.accumulate(V, axis=1, out=V)
        val[e] = (V.imag * zt[rr[e]]).sum(axis=1)
        mag[e] = np.abs(v) * zt_abs[rr[e]]

    if far.size:
        # each N's beta_e, chat_j, psi(a) (a >= 129, so Stirling's series) and sum_e |beta_e|, sum_j |chat_j|
        psi_a = [_stirling(x) for x in a.tolist()]
        per_n = np.column_stack((beta, chat, psi_a, np.abs(beta).sum(axis=1), abs_chat)).T
        for i in range(0, far.size, TABLE_CHUNK // 4):
            e = far[i : i + TABLE_CHUNK // 4]
            val[e], mag[e] = _far_values(w[e], aw[e], per_n[:, rr[e]], m)

    fc = f[cols]
    per_pole = [x.tolist() for x in (fc * (val[:ne] + val[ne : 2 * ne]), fc * (mag[:ne] + mag[ne : 2 * ne]), fc)]
    bounds = [0, *np.searchsorted(rows, np.arange(1, nN)).tolist(), ne]
    z_cut = abs_chat * (1.0 / (K + 2.0) + 1.0 / a)
    lorentz = 2.0 * math.pi / math.tanh(math.pi * t)  # t sum_r (P(r + c) + P(r - c))
    rounding = _EPS * (K + 4 * m + 40)
    out = []
    for i, N in enumerate(Ns):
        ai, rest = float(a[i]), reads[float(n_cut[i])][2]
        tail, tail_abs, mass = (math.fsum(x[bounds[i] : bounds[i + 1]]) for x in per_pole)
        sech = math.exp(-math.pi * ai / (2.0 * t)) / t
        share = lorentz * (rest_s / ai**2 + sech) + 8.0 / 3.0 * 4.0**-K * float(z_cut[i])
        sigma = math.fsum(abs(cj) / ai ** (2 * j) for j, cj in enumerate(coeffs.tolist())) + rest_s + ai * ai * sech
        omitted = rest * sigma * (5.0 * t / (ai - 1.0) + 2.0 * lorentz) / (float(n_cut[i]) - N) ** 2
        k0 = 2 * ne + i
        err = rounding * tail_abs + share * (mass + rest) + omitted
        out.append((tail, 2.0 * val[k0], err, rounding * 2.0 * mag[k0] + share))
    return out


def _far_values(w: np.ndarray, a: np.ndarray, per_n: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(Im sum_j c_j G_2j+2(w), the magnitude of its terms) of far elements:
    Horner's rule in y = a/w over the polynomial of each element's N, whose
    rows ``per_n`` holds, (3m + 3) x elements: beta_e (2m), chat_j (m),
    psi(a), sum_e |beta_e| and sum_j |chat_j|.  beta_0 = 0, so the terms'
    magnitudes sum to at most |y| max(1, |y|)^(2m-2) (sum_e |beta_e| +
    |y| (|psi(a + w)| + psi(a)) sum_j |chat_j|)."""
    b, ch, (psi_n, beta_abs, chat_abs) = per_n[: 2 * m], per_n[2 * m : 3 * m], per_n[3 * m :]
    y = a / w
    psi_w = _digamma(a + w)
    poly = b[2 * m - 1] * y
    for e in range(2 * m - 2, 0, -1):
        poly += b[e]
        poly *= y
    y2, odd = y * y, ch[m - 1].astype(complex)
    for j in range(m - 2, -1, -1):
        odd *= y2
        odd += ch[j]
    odd *= y2
    odd *= psi_w - psi_n
    poly -= odd
    ay = np.abs(y)
    mag = np.abs(psi_w)
    mag += psi_n
    mag *= ay
    mag *= chat_abs
    mag += beta_abs
    mag *= ay
    mag *= np.maximum(ay, 1.0) ** (2 * m - 2)
    return poly.imag, mag


@functools.lru_cache(maxsize=16)
def _tail_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(cols, signs) of ``_zeta_scaled`` that ``_closed_tails`` reads over m
    moments, (m, K - 1 + 2m) each: Z(2j + 3 + k), k = 1..K-1, of the near
    series, then (-1)^(e+1) Z(2j + 3 - e) of G_2j+2's y^e term,
    e = 1..2j+1 (sign 0 elsewhere), of the far one."""
    j = np.arange(m)[:, None]
    e = np.arange(2 * m)[None, :]
    closes = (e >= 1) & (e <= 2 * j + 1)
    cols = np.concatenate((np.broadcast_to(2 * j + 2 + np.arange(_NEAR_TERMS - 1), (m, _NEAR_TERMS - 1)),
                           np.where(closes, 2 * j + 1 - e, 0)), axis=1)
    signs = np.concatenate((np.ones((m, _NEAR_TERMS - 1)), np.where(closes, np.where(e % 2, 1.0, -1.0), 0.0)), axis=1)
    return cols, signs


def _stirling(z: np.ndarray) -> np.ndarray:
    """psi(z) from Stirling's series with eight Bernoulli terms (DLMF 5.11.2),
    for Re z >= 10, where the first dropped term is below 2e-18 relative."""
    u = 1.0 / (z * z)
    s = _PSI_STIRLING[-1] * u
    for c in _PSI_STIRLING[-2::-1]:
        s += c
        s *= u
    return np.log(z) - 0.5 / z - s


def _digamma(z: np.ndarray) -> np.ndarray:
    """psi(z) elementwise off the poles 0, -1, -2, ...: Stirling's series
    (``_stirling``) at Re z >= 10; below, the recurrence psi(z) =
    psi(z + 10) - sum_{i<10} 1/(z + i) (DLMF 5.5.2) from Re z >= 1/2, and below
    1/2 first the reflection psi(z) = psi(1 - z) - pi cot(pi z) (DLMF 5.5.4),
    with cot reduced by its period to z - round(Re z): at z = n - it that is
    -it exactly, so pi cot(pi z) = i pi coth(pi t), without pi n's rounding."""
    z = np.asarray(z, dtype=complex)
    low = np.flatnonzero(z.real < 10.0)
    if not low.size:
        return _stirling(z)
    zl = z[low]
    reflect = zl.real < 0.5
    wl = np.where(reflect, 1.0 - zl, zl)  # Re wl >= 1/2
    w = z.copy()
    w[low] = wl + 10.0
    psi = _stirling(w)
    drop = (1.0 / (wl[:, None] + np.arange(10.0))).sum(axis=1)
    zr = zl[reflect]
    drop[reflect] += np.pi / np.tan(np.pi * (zr - np.round(zr.real)))
    psi[low] -= drop
    return psi


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
    """Closed-form evaluator of F(z) = sum_n q_k(n)/(n^2 (n+z)), whose
    coefficients are q_k(N)/N^2 (1/N^2 at N = k m^2, else 0):

        F(z) = pi^4/(90 k^2 z) - pi^2/(6 k z^2) - 1/(2 z^3)
               + pi coth(pi u)/(2 k z^2 u),  u = sqrt(z/k).

    Two regions would lose digits in binary64, and each takes another form.
    - |z| < 4.5k, where the z^-3 terms cancel: the poles m = 1, 2 plus the
      Taylor series of the rest, sum_j (-z)^j zeta_3(2j + 6)/k^(j+3) with
      zeta_3(s) = sum_{m>=3} m^-s, inside its radius 9k; 56 terms at a
      ratio below 1/2 leave below 2^-55 of the first.
    - coth near its poles, z near -k m^2, where pi u rounds by eps pi m: coth
      has period i, and u - i m = (z/k + m^2)/(u + i m), m = round(Im u),
      whose numerator (x + k m^2 + it)/k carries no cancellation.
    The poles are k m^2 with residues 1/(k^2 m^4), as ``power_series_evaluator(k, 1)``'s.

    Absolute and uniform convergence of the shifted sample series holds
    for this evaluator (the jump kernel decays polynomially).
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    # zeta_3(s) for s = 2j + 6: m = 3..255 summed from the smallest term,
    # and m >= 256 from the scaled Hurwitz zeta function
    s = 2.0 * np.arange(56) + 6.0
    with np.errstate(under="ignore"):
        rest = _zeta_scaled(115, 256.0)[4::2] * 256.0 ** (1.0 - s)
        taylor = ((np.arange(255.0, 2.0, -1.0)[:, None] ** -s).sum(axis=0) + rest) / float(k) ** (s / 2.0)

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = x + 1j * t
        out = np.empty(x.size)
        near = np.abs(z) < 4.5 * k
        zn = z[near]
        poles = 1.0 / (k * k * (k + zn)) + 1.0 / (16.0 * k * k * (4.0 * k + zn))
        powers = np.cumprod(np.broadcast_to(-zn[:, None], (zn.size, taylor.size - 1)), axis=1)
        out[near] = poles.imag + (powers.imag * taylor[1:]).sum(axis=1)
        zf, xf = z[~near], x[~near]
        u = np.sqrt(zf / k)
        mi = np.round(u.imag)
        cth = 1.0 / np.tanh(math.pi * ((xf + k * mi * mi) + 1j * t) / (k * (u + 1j * mi)))
        out[~near] = (
            math.pi**4 / (90.0 * k * k * zf)
            - math.pi**2 / (6.0 * k * zf * zf)
            - 0.5 / zf**3
            + math.pi * cth / (2.0 * k * zf * zf * u)
        ).imag
        return out

    def coefficient(n: int) -> float:
        if n < 1 or n % k:
            return 0.0
        m = math.isqrt(n // k)
        return 1.0 / (n * n) if m * m == n // k else 0.0

    return SeriesEvaluator(evaluate, f"square-indicator k={k}", _power_poles(k, 1), coefficient)


def _power_poles(k: int, s: int) -> Callable[[float], tuple[np.ndarray, np.ndarray, float]]:
    """``poles`` of sum_m 1/(k^2 m^(4s) (k m^(2s) + z)): the poles n = k m^(2s)
    <= n_max, m = 1..M, with residues 1/(k^2 m^(4s)), and the rest
    sum_{m>M} 1/(k^2 m^(4s)) <= 1/(k^2 (4s - 1) M^(4s-1)), by the integral
    from M (1 + 1/(4s - 1) over k^2 for M = 0)."""

    def poles(n_max: float) -> tuple[np.ndarray, np.ndarray, float]:
        M = int((n_max / k) ** (1.0 / (2 * s)))
        while k * (M + 1) ** (2 * s) <= n_max:
            M += 1
        while M and k * M ** (2 * s) > n_max:
            M -= 1
        m = np.arange(1.0, M + 1.0)
        rest = (1.0 / M ** (4 * s - 1) if M else 4 * s) / (k * k * (4 * s - 1))
        return k * m ** (2 * s), 1.0 / (k * k * m ** (4 * s)), rest

    return poles


def geometric_series_evaluator() -> SeriesEvaluator:
    """Direct-summation evaluator of sum_{n <= 160} 2^-n/(n+z); coefficients
    are known by construction, making it the simplest inversion test bed.
    Its poles are n <= 160 with residues 2^-n; past n_max <= 160 they leave
    out at most 2^-n_max."""

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        z = np.asarray(x, dtype=float) + 1j * t
        total = np.zeros_like(z)
        for n in range(1, _GEOMETRIC_TERMS + 1):
            total += _GEOMETRIC_RATIO**n / (n + z)
        return total.imag

    def poles(n_max: float) -> tuple[np.ndarray, np.ndarray, float]:
        n = np.arange(1.0, min(_GEOMETRIC_TERMS, math.floor(n_max)) + 1.0)
        return n, _GEOMETRIC_RATIO**n, _GEOMETRIC_RATIO ** n.size if n.size < _GEOMETRIC_TERMS else 0.0

    return SeriesEvaluator(evaluate, f"geometric ratio={_GEOMETRIC_RATIO}", poles, lambda n: _GEOMETRIC_RATIO**n)

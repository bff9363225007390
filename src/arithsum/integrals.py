"""Closed forms for the three unit-interval integrals that weight every
series in this library:

    I(q, t) = int_0^1 sin(pi q b) / (e^{2 pi b t} + 1) db
    K(q, t) = int_0^1 b cos(pi q b) / (e^{2 pi b t} + 1) db
    J(q, t) = int_0^1 cos(pi q b) / cosh(pi b t) db

Each closed form is a small hyperbolic head plus an exponentially
convergent series over one of two weight grids, (-1)^(r-1) e^(-2 pi t r)
for I and K and (-1)^m n e^(-pi t n), n = 2m+1, for J.  Each grid omits
only weights below WEIGHT_TOL = 1e-18 of its leading one, with no cap.
``exp_series_sums`` (I and K) and ``p_values`` (J) are the one elementwise
implementation of each series; ``integral_i``, ``integral_k`` and
``integral_j`` are one-element calls of them; ``j_values`` is signed, (-1)^q J.
``quadrature_oracle`` integrates the defining integrands directly with
adaptive Gauss-Legendre quadrature so the closed forms are
machine-checkable.  Every entry takes any finite t >= T_MIN (``kernels.check_t``).

J has two forms, and ``_j`` is the one place that picks between them.
Below q0 = max(32, ceil(2t n_max)), n_max the last n of P's grid, J reads
the weight sum ``p_values``.  From q0 on it reads the moment expansion
(Bender & Orszag 1978, ch. 6)

    S(q) = (-1)^q J(q) = (-1)^q sech(pi q/(2t))/(2t)
                         - (2t/pi) sum_j (-t^2)^j mu_j / q^(2j+2),

with mu_j = -(d/dx)^(2j+1) [sech(x)/2] at x = pi t in closed form
(``_moments``), summed by Horner's rule in 1/q^2.  One remainder bound
(``_log_rest``) and one count rule (``_moment_count``) serve every reader:
J's table, which leaves 2^-56 of the leading term per dyadic segment from q0
on, or sums the weights everywhere at a t whose count at q0 is not below
P's weight count (above about 0.885, ``_table_q0``); ``integral_j`` and the
table's error bound; and the inversion's closed tail, which leaves 2^-40
(``_s_tail_form``).  ``p_values`` itself stays the weight sum, so the
oracles that read it (``indicators.q_shifted_analytic`` and the unit forms
of ``dsums``) stay independent of the moment form.

The hyperbolic heads csch, sech and cosh/sinh^2 each have one guarded
implementation, elementwise over arrays (``csch_values``, ``sech_values``,
``cosh_over_sinh2_values``); the scalar forms call it on a one-element
array.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .kernels import GUARD_THRESHOLD, TABLE_CHUNK, check_t

WEIGHT_TOL = 1e-18
# machine epsilon, 2^-52; the unit roundoff u, the scale of one rounding, is _EPS / 2
_EPS = float(np.finfo(float).eps)
# J's table reads moments from q0 = max(_FAR_Q0, ceil(2t n_max)) on, and
# each of its segments leaves out at most _TABLE_TOL of its leading term
_FAR_Q0, _TABLE_TOL = 32, 2.0**-56


@dataclass(frozen=True)
class IntegralValue:
    """Closed-form integral value with the series length used and an
    error estimate: the first omitted term plus the rounding (``_rounding``)."""

    value: float
    series_terms_used: int
    error_estimate: float


def csch(x: float) -> float:
    """1/sinh(x), decaying gracefully to 0 instead of overflowing."""
    return float(csch_values([x])[0])


def sech(x: float) -> float:
    """1/cosh(x), decaying gracefully to 0 instead of overflowing."""
    return float(sech_values([x])[0])


def cosh_over_sinh2(x: float) -> float:
    """cosh(x)/sinh(x)^2, stable for large |x|."""
    return float(cosh_over_sinh2_values([x])[0])


def coth(x: float) -> float:
    """coth(x) for x != 0; tanh rounds to +-1 from |x| ~ 19.1, so it needs no guard."""
    return 1.0 / math.tanh(x)


def csch_values(x: np.ndarray) -> np.ndarray:
    """1/sinh elementwise (odd in x), decaying to 0 instead of overflowing."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    big = ax > GUARD_THRESHOLD
    with np.errstate(under="ignore"):
        e = np.exp(-np.where(big, ax, GUARD_THRESHOLD))
        guarded = np.copysign(2.0 * e / (1.0 - e * e), x)
        direct = 1.0 / np.sinh(np.where(big, 1.0, x))
    return np.where(big, guarded, direct)


def sech_values(x: np.ndarray) -> np.ndarray:
    """1/cosh elementwise, underflowing to 0 for large |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    with np.errstate(under="ignore"):
        e = np.exp(-x)
        return 2.0 * e / (1.0 + e * e)


def cosh_over_sinh2_values(x: np.ndarray) -> np.ndarray:
    """cosh/sinh^2 elementwise (even in x), underflowing to 0 for large |x|."""
    x = np.abs(np.asarray(x, dtype=float))
    big = x > GUARD_THRESHOLD
    with np.errstate(under="ignore"):
        e = np.exp(-np.where(big, x, GUARD_THRESHOLD))
        guarded = 2.0 * e * (1.0 + e * e) / (1.0 - e * e) ** 2
        s = np.sinh(np.where(big, 1.0, x))
        direct = np.cosh(np.where(big, 1.0, x)) / (s * s)
    return np.where(big, guarded, direct)


def _exp_series_terms(t: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, w_r) grid with w_r = (-1)^(r-1) e^(-2 pi t r), the weights of the
    I and K series.  The omitted weights r > r_max are below
    e^(-2 pi t r_max) < WEIGHT_TOL of the leading one."""
    r_max = max(4, int(math.ceil(-math.log(WEIGHT_TOL) / (2.0 * math.pi * t))) + 2)
    r = np.arange(1, r_max + 1, dtype=float)
    with np.errstate(under="ignore"):
        w = np.exp(-2.0 * math.pi * t * r)
    w[1::2] *= -1.0
    return r, w


@functools.lru_cache(maxsize=8)
def _p_weights(t: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, c_n) with n = 2m+1 and c_n = (-1)^m n e^(-pi t n), the weights of P,
    read-only and kept for the last few t: the engine's tail bound and the J
    table of one evaluation read the same weights.  J's table sums them only
    below q0 = max(32, ceil(2t n_max)), or everywhere at a t whose moment
    form would need as many terms as there are weights (``_table_q0``); the
    oracles' ``p_values`` sums them at every q.

    The omitted weights are below WEIGHT_TOL of the leading one, e^(-pi t):
    n e^(-pi t (n-1)) < WEIGHT_TOL.  With L = -ln WEIGHT_TOL, a = pi t and
    the tangent bound ln n <= ln n0 + n/n0 - 1, that holds for every
    n > (L + ln n0 - 1 + a)/(a - 1/n0), whatever t and n0 > 1/a.  The
    tangent point n0 = 1 + (L + ln(1 + L/a))/a lies near the crossing, so
    the grid keeps at most one weight more than the rule needs."""
    a = math.pi * t
    big_l = -math.log(WEIGHT_TOL)
    n0 = 1.0 + (big_l + math.log1p(big_l / a)) / a
    n_cut = (big_l + math.log(n0) - 1.0 + a) / (a - 1.0 / n0)
    n = 2.0 * np.arange(int((n_cut - 1.0) // 2.0) + 1) + 1.0
    # math.exp, not np.exp, which can differ in the last bit: at t >= 6.8 c_1 is
    # J's one weight, and the block results there turn on J's last bits
    c = np.array([nm * math.exp(-a * nm) for nm in n.tolist()])
    c[1::2] *= -1.0
    n.flags.writeable = c.flags.writeable = False
    return n, c


def exp_series_sums(y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s1, s2, s3), the r-series of I and K, elementwise over y: with w_r from
    ``_exp_series_terms`` and d_r = 4 t^2 r^2 + y^2, s1 = sum w_r / d_r,
    s2 = sum w_r r / d_r and s3 = sum w_r (4 t^2 r^2 - y^2) / d_r^2, in blocks of
    ~TABLE_CHUNK terms.  Each y's terms are one contiguous row, which numpy
    sums pairwise, so its sums have the same bits whatever the other y."""
    yf = np.asarray(y, dtype=float)
    r, w = _exp_series_terms(t)
    r2 = 4.0 * t * t * r**2
    s, n = np.empty((3, yf.size)), yf.size
    for rows in np.array_split(np.arange(n), max(1, n * r.size // TABLE_CHUNK)):
        y2 = yf[rows, None] ** 2
        dmat = r2 + y2
        s[0, rows] = (w / dmat).sum(axis=1)
        s[1, rows] = (w * r / dmat).sum(axis=1)
        s[2, rows] = (w * (r2 - y2) / dmat**2).sum(axis=1)
    return s[0], s[1], s[2]


def p_values(q: np.ndarray, t: float) -> np.ndarray:
    """P(q) = sum_n c_n / (t^2 n^2 + q^2) elementwise over q, with (n, c_n)
    from ``_p_weights(t)``, one weight at a time into one buffer.
    The smallest terms come first: in the other order the partial sums at t = 0.001
    stay near P(0) ~ 1/t^2 and put 3e-12 of rounding into J(0), not 1.3e-13."""
    q2 = np.square(np.asarray(q, dtype=float))
    out = np.zeros_like(q2)
    buf = np.empty_like(q2)
    n, c = _p_weights(t)
    for nm, cm in zip(n[::-1], c[::-1]):
        np.add(q2, t * t * nm * nm, out=buf)
        np.divide(cm, buf, out=buf)
        out += buf
    return out


@functools.cache
def _sech_poly(p: int) -> tuple:
    """R_p, with sech^(p)(x) = sech(x) R_p(tanh x), as its integer
    coefficients, lowest power first: R_0 = 1 and
    R_(p+1)(s) = -s R_p(s) + (1 - s^2) R_p'(s)."""
    if p == 0:
        return (1,)
    r = _sech_poly(p - 1)
    out = [0] * (len(r) + 1)
    for k, c in enumerate(r):
        out[k + 1] -= (k + 1) * c
        if k:
            out[k - 1] += k * c
    return tuple(out)


@functools.cache
def _sech_terms(p: int) -> tuple:
    """The nonzero (k, r_k) of R_p (``_sech_poly``), r_k as a float: the
    product of an int and a float rounds the int to a float first."""
    return tuple((k, float(c)) for k, c in enumerate(_sech_poly(p)) if c)


@functools.lru_cache(maxsize=128)
def _moments(t: float, m: int) -> tuple[tuple, tuple, tuple]:
    """(mu, coeffs, errs) for j < m: J's moments mu_j = -(d/dx)^(2j+1) [sech(x)/2]
    at x = pi t, the coefficients c_j = -(2t/pi) (-t^2)^j mu_j of S's moment
    form, and bounds of the rounding of each c_j; one moment at a time, on
    the cached first m - 1.  J's table, ``integral_j`` and the inversion's
    closed tail (``_s_tail_form``) read them.

    Each mu_j = -(1/2) sech(x) R_(2j+1)(tanh x) is an fsum of its
    polynomial's terms, which cancel as tanh x nears 1.  Its rounding,
    below (p + 6) u (sech/2) sum_k |r_k s^k| with p = 2j + 1, plus x's own
    rounding, u x |mu_j'| <= u x (sech/2) sum_k |r'_k| s^k over R_(p+1),
    goes into errs, as does the rounding of c_j's 2j + 3 products."""
    if m == 0:
        return (), (), ()
    mu, coeffs, errs = _moments(t, m - 1)
    j = m - 1
    p = 2 * j + 1
    x = math.pi * t
    s, e = math.tanh(x), math.exp(-x)
    h = 2.0 * e / (1.0 + e * e)
    a = 2.0 * t / math.pi
    powers = [s**k for k in range(p + 2)]
    poly, poly_abs = _sech_terms(p), _sech_terms(p + 1)
    terms = [c * powers[k] for k, c in poly]
    mu_j = -0.5 * h * math.fsum(terms)
    c_j = -a * (-t * t) ** j * mu_j
    dx = x * math.fsum([abs(c) * powers[k] for k, c in poly_abs])
    dmu = _EPS / 4.0 * h * ((p + 6) * math.fsum(map(abs, terms)) + dx)
    err = a * t ** (2 * j) * dmu + (2 * j + 3) * _EPS / 2.0 * abs(c_j)
    return mu + (mu_j,), coeffs + (c_j,), errs + (err,)


def _log_weight_moment(t: float, m: int) -> float:
    """log of a bound of A_m = sum_{n odd} n^p e^(-b n), p = 2m + 1, b = pi t.
    For b > p each term is at most e^(-b) e^(-(b - p)(n - 1)), since
    n^p <= e^(p (n - 1)), a geometric series; otherwise the terms are
    unimodal in n, and a sum at spacing 2 is at most half the integral,
    p!/b^(p+1), plus the largest term, (p/(e b))^p."""
    b, p = math.pi * t, 2 * m + 1
    if b > p:
        return -b - math.log1p(-math.exp(-2.0 * (b - p)))
    half_integral = math.lgamma(p + 1) - (p + 1) * math.log(b) - math.log(2.0)
    peak = p * (math.log(p / b) - 1.0)
    return max(half_integral, peak) + math.log1p(math.exp(-abs(half_integral - peak)))


@functools.lru_cache(maxsize=1024)
def _log_rest(t: float, m: int) -> float:
    """log(|c_0| K_m): past m moments, S's P-part -(2t/pi) P(q) differs from
    sum_{j<m} c_j/q^(2j+2) by at most |c_0| K_m/q^(2m+2) plus the sech head,
    e^(-pi q/(2t))/t, at every q >= 1.  |c_0| K_m is the smaller of two bounds.
    - Cauchy's.  J's integrand f(b) = sech(pi t b) is even, so integration
      by parts gives the moment terms with the remainder (-1)^m (pi q)^(-2m)
      int_0^1 cos(pi q b) f^(2m)(b) db, and two more steps bound it by
      (pi q)^(-2m-2) (|f^(2m+1)(1)| + int_0^1 |f^(2m+2)|).  The first part
      is the next term, |c_m|/q^(2m+2).  Cauchy's estimate on a circle of
      radius (pi/2) p/(p+1), p = 2m + 2, inside sech's strip |Im x| < pi/2,
      where |sech| <= 1/cos(Im x), bounds the second by e (p+1)! (2t/(pi q))^p.
      This bounds S less its moments, so the P-part adds the head.  It is
      tight at small t.
    - The weights'.  With P(q) = sum_n c_n/(q^2 + t^2 n^2) over all odd n,
      expanding 1/(q^2 + t^2 n^2) to m terms leaves (-t^2/q^2)^m sum_n
      c_n n^(2m)/(q^2 + t^2 n^2), so the P-part's remainder is at most
      (2t/pi) t^(2m) A_m/q^(2m+2) (``_log_weight_moment``).  At large t,
      where mu_j carries sech(pi t) and Cauchy's bound does not, it is the
      tight one.
    c_m is computed only where Cauchy's bound, which needs it, can be the smaller."""
    a = 2.0 * t / math.pi
    log_rest = math.log(a) + 2 * m * math.log(t) + _log_weight_moment(t, m)
    log_cauchy = 1.0 + math.lgamma(2 * m + 4) + (2 * m + 2) * math.log(a)
    if log_cauchy < log_rest:
        log_rest = min(log_rest, math.log(abs(_moments(t, m + 1)[1][m]) + math.exp(log_cauchy)))
    return log_rest


@functools.lru_cache(maxsize=256)
def _moment_count(t: float, q: int, tol: float, limit: int = sys.maxsize) -> int:
    """The count at q: the least m < limit with K_m/q^(2m) <= tol, or limit.
    K_m/q^(2m) (``_log_rest``) is the share of S's leading term |c_0|/q^2
    that m moments leave out, the sech head aside; it falls with q, so the
    count at q holds at every larger q."""
    log_q, log_tol = math.log(q), math.log(tol * abs(_moments(t, 1)[1][0]))
    return next((m for m in range(1, limit) if _log_rest(t, m) - 2 * m * log_q <= log_tol), limit)


@functools.lru_cache(maxsize=8)
def _table_q0(t: float) -> int:
    """Where J's table starts reading moments: q0 = max(32, ceil(2t n_max)),
    n_max the last n of P's grid, at a t whose count at q0 is below P's
    weight count, else sys.maxsize.  Wherever the table reads moments, the
    sech head at q0 is below 2^-66 of the leading term."""
    n = _p_weights(t)[0]
    if n.size < 2:
        return sys.maxsize
    q0 = max(_FAR_Q0, math.ceil(2.0 * t * float(n[-1])))
    return q0 if _moment_count(t, q0, _TABLE_TOL, n.size) < n.size else sys.maxsize


@functools.lru_cache(maxsize=8)
def _s_tail_form(t: float, q_min: int, tol: float) -> tuple[np.ndarray, float]:
    """(coeffs, E): S(q) = sum_{j<m} c_j/q^(2j+2) + R(q) for every q >= q_min,
    at any t, with |R(q)| <= E/q^2 + e^(-pi q/(2t))/t, c_j from ``_moments``
    and m the count at q_min (``_moment_count``).  E is the remainder's bound
    (``_log_rest``) times q_min^2, at most tol |c_0|, plus the moments' own
    rounding, sum_j errs_j/q_min^(2j); both fall with q faster than 1/q^2."""
    m = _moment_count(t, q_min, tol)
    _, coeffs, errs = _moments(t, m)
    rounding = math.fsum(err / float(q_min) ** (2 * j) for j, err in enumerate(errs))
    return np.array(coeffs), math.exp(min(_log_rest(t, m) - 2 * m * math.log(q_min), 700.0)) + rounding


def _segment_start(q0: int, q: int) -> int:
    """The first q of q's dyadic segment of J's table, [q0, 2^b) or
    [2^(b-1), 2^b), b the bit length of q >= q0, whose count it reads."""
    return max(q0, 1 << (q.bit_length() - 1))


def _p_part(q: np.ndarray, t: float) -> np.ndarray:
    """-(2t/pi) P(q), S(q) without its sech head, elementwise over consecutive
    integers q >= 0: the weight sum ``p_values`` below q0 (``_table_q0``) and
    the moment form from q0 on, Horner's rule in x = 1/q^2 over each
    segment's moments (``_segment_start``)."""
    q0, q_first = _table_q0(t), int(q[0])
    k = min(max(q0 - q_first, 0), q.size)
    out = np.empty(q.size)
    if k:
        np.multiply(p_values(q[:k], t), -2.0 * t / math.pi, out=out[:k])
    while k < q.size:
        qk = q_first + k
        end = min(q.size, (1 << qk.bit_length()) - q_first)
        coeffs = _moments(t, _moment_count(t, _segment_start(q0, qk), _TABLE_TOL))[1]
        xs, acc = 1.0 / np.square(q[k:end].astype(float)), out[k:end]
        np.multiply(xs, coeffs[-1], out=acc)
        for c in reversed(coeffs[:-1]):
            acc += c
            acc *= xs
        k = end
    return out


def _j(q: np.ndarray, t: float) -> np.ndarray:
    """S(q) = (-1)^q J(q, t) = (-1)^q sech(pi q/(2t))/(2t) - (2t/pi) P(q),
    elementwise over consecutive integers q = a, a + 1, ... >= 0, P as in
    ``_p_part``.  Only the sech head alternates, and
    it is added only below q_s = ceil(746 * 2t/pi): exp(-x) is +0 for x > 745.14,
    so from q_s on the head is +-0, and +-0 + y = y for the nonzero y = -(2t/pi) P(q), P > 0."""
    a = int(q[0])
    out = _p_part(q, t)
    m = min(max(math.ceil(746.0 * 2.0 * t / math.pi) - a, 0), q.size)
    if m:
        head = sech_values(math.pi * q[:m] / (2.0 * t)) / (2.0 * t)
        head[1 - a % 2 :: 2] *= -1.0  # (-1)^q
        out[:m] += head
    return out


def _rounding(parts: list, exponents: list, terms: np.ndarray, term_exponents: np.ndarray) -> float:
    """eps * sum |x| (1 + a) over the head parts and the series terms x:
    the rounding of their sum, where an x proportional to e^(-a) also
    carries the rounding of a, which exp amplifies to a relative a eps."""
    heads = sum(abs(p) * (1.0 + abs(a)) for p, a in zip(parts, exponents))
    return _EPS * (heads + float(np.dot(np.abs(terms), 1.0 + term_exponents)))


def integral_i(q: int, t: float) -> IntegralValue:
    """Closed form of int_0^1 sin(pi q b)/(e^{2 pi b t}+1) db; odd in q."""
    check_t(t)
    q = int(q)
    if q == 0:
        return IntegralValue(0.0, 0, 0.0)
    x = math.pi * q / (2.0 * t)
    h0, h1 = 1.0 / (2.0 * math.pi * q), 0.25 / t * csch(x)
    s1 = float(exp_series_sums(np.array([q]), t)[0][0])
    pref = (-1.0 if q % 2 == 0 else 1.0) * q / math.pi
    r, w = _exp_series_terms(t)
    n1 = r.size + 1
    est = abs(pref) * math.exp(-2.0 * math.pi * t * n1) / (4.0 * t * t * n1 * n1 + float(q) * q)
    terms = pref * w / (4.0 * t * t * r * r + float(q) * q)
    est += _rounding([h0, h1], [0.0, x], terms, 2.0 * math.pi * t * r)
    return IntegralValue(h0 - h1 + pref * s1, n1 - 1, est)


def integral_k(q: int, t: float) -> IntegralValue:
    """Closed form of int_0^1 b cos(pi q b)/(e^{2 pi b t}+1) db; even in q.

    Derived by expanding 1/(e^{2 pi b t}+1) as a geometric series and
    integrating b cos(pi q b) e^{-2 pi t r b} term by term; the head is the
    exponential-free part of that expansion (its q -> 0 limit is 1/(48 t^2)).
    """
    check_t(t)
    q = abs(int(q))
    x = math.pi * q / (2.0 * t)
    if q == 0:
        h0, h1 = 1.0 / (48.0 * t * t), 0.0
    else:
        h0, h1 = -1.0 / (2.0 * math.pi**2 * q * q), cosh_over_sinh2(x) / (8.0 * t * t)
    _, s2, s3 = exp_series_sums(np.array([q]), t)
    sq = -1.0 if q % 2 == 0 else 1.0
    value = h0 + h1 + sq * 2.0 * t / math.pi * float(s2[0]) + sq / math.pi**2 * float(s3[0])
    r, w = _exp_series_terms(t)
    n1 = r.size + 1
    est = math.exp(-2.0 * math.pi * t * n1) * (2.0 * t * n1 + 1.0) / (4.0 * t * t * n1 * n1 + float(q) * q)
    r2, q2 = 4.0 * t * t * r * r, float(q) * q
    terms = np.abs(w) * (2.0 * t / math.pi * r / (r2 + q2) + np.abs(r2 - q2) / (math.pi * (r2 + q2)) ** 2)
    est += _rounding([h0, h1], [0.0, x], terms, 2.0 * math.pi * t * r)
    return IntegralValue(value, n1 - 1, est)


def integral_j(q: int, t: float) -> IntegralValue:
    """Closed form of int_0^1 cos(pi q b)/cosh(pi b t) db; even in q:
    (-1)^q times the entry |q| of ``j_values``, read from the same form.
    The estimate adds the rounding to what the form leaves out: below q0
    the first omitted weight's term, from q0 on the moments' remainder and
    rounding (``_s_tail_form`` at q's ``_segment_start``) and the head."""
    check_t(t)
    q = abs(int(q))
    n, c = _p_weights(t)
    x = math.pi * q / (2.0 * t)
    head = sech(x) / (2.0 * t)
    q0 = _table_q0(t)
    if q < q0:
        n1 = float(n[-1]) + 2.0
        est = 2.0 * t / math.pi * n1 * math.exp(-math.pi * t * n1) / (t * t * n1 * n1 + float(q) * q)
        terms = 2.0 * t / math.pi * c / (t * t * n * n + float(q) * q)
        used, exponents = n.size, math.pi * t * n
    else:
        coeffs, rest = _s_tail_form(t, _segment_start(q0, q), _TABLE_TOL)
        used, xq = coeffs.size, 1.0 / (float(q) * q)
        terms = coeffs * xq ** np.arange(1, used + 1)
        est = rest * xq + math.exp(-x) / t
        # Horner's rule rounds each term at most 3 used + 1 times
        exponents = np.full(used, 3.0 * used + 1.0)
    est += _rounding([head], [x], terms, exponents)
    # head + (-1)^q S's P-part is (-1)^q S(q) with S's bits: negation is exact
    return IntegralValue(head + (-1) ** q * float(_p_part(np.array([q]), t)[0]), used, est)


@functools.lru_cache(maxsize=8)
def _j_table_error(t: float) -> tuple[int, float, float]:
    """(q_w, delta, kappa): each entry q < q_w of ``j_values`` is within delta
    of S(q), and each entry from q_w on within kappa eps |S(q)|, q_w = q0
    where the moment form is read (``_table_q0``) and no bound otherwise.

    Below q_w an entry is the weight sum, with the rounding convention of
    ``integral_j``, eps sum |x| (1 + a), whose terms fall with q; its head
    sech(x)/(2t) with x's rounding, (1 + x) sech x <= 1.35, is at most
    1.35 eps/(2t); and the first omitted weight's term at q = 0 bounds the
    rest.  From q_w on, Horner's rule rounds each term at most 3m + 1 times
    over the m moments of q0's count; the moments' remainder and rounding
    are E/|c_0| of the leading term (``_s_tail_form`` at q0), and the head
    is below 2^-66 of it (``_table_q0``)."""
    n, c = _p_weights(t)
    a = 2.0 * t / math.pi
    n1 = float(n[-1]) + 2.0
    terms = a * np.abs(c) / (t * t * n * n)
    delta = _EPS * (1.35 / (2.0 * t) + float(np.dot(terms, 1.0 + math.pi * t * n)))
    delta += a * math.exp(-math.pi * t * n1) / (t * t * n1)
    q0 = _table_q0(t)
    if q0 == sys.maxsize:
        return q0, delta, 0.0
    coeffs, rest = _s_tail_form(t, q0, _TABLE_TOL)
    return q0, delta, 3 * coeffs.size + 2 + rest / (_EPS * abs(float(coeffs[0])))


def j_values(q_max: int, t: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """S(q) = (-1)^q J(q, t), the form in which every series reads J, for q = 0..q_max,
    in _j calls of TABLE_CHUNK entries, into ``out`` (q_max + 1 doubles) if
    given.  Entries below q0 sum P's weights and entries from q0 on sum J's
    moments, a few per entry (``_p_part``), so at small t the cost is O(q_max),
    not O(q_max/t).  Each entry depends on (q, t) alone, whatever q_max,
    ``out`` or the chunks.
    The sech head is computed only for q below q_s = ceil(746 * 2t/pi); from
    q_s on it is +0.

    The series drivers index this table by |r +- c|, so it is built once
    per evaluation context rather than per call.
    """
    check_t(t)
    out = np.empty(q_max + 1) if out is None else out
    for i in range(0, q_max + 1, TABLE_CHUNK):
        out[i : i + TABLE_CHUNK] = _j(np.arange(i, min(i + TABLE_CHUNK, q_max + 1)), t)
    return out


def _integrand(kind: str, b: np.ndarray, q: int, t: float) -> np.ndarray:
    """The defining integrand of I, K or J at the points b, written with
    e^(-x) only: 1/(e^x + 1) = e^(-x)/(1 + e^(-x)), sech x = 2e^(-x)/(1 + e^(-2x))."""
    with np.errstate(under="ignore"):
        if kind == "J":
            e = np.exp(-math.pi * t * b)
            return np.cos(math.pi * q * b) * (2.0 * e / (1.0 + e * e))
        e = np.exp(-2.0 * math.pi * t * b)
        if kind == "I":
            return np.sin(math.pi * q * b) * (e / (1.0 + e))
        return b * np.cos(math.pi * q * b) * (e / (1.0 + e))


_QUAD_PANELS = 500


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1],
    nodes ascending, each the binary64 rounding of a 40-digit value.

    Each node is Newton-polished from cos(pi (i - 1/4)/(n + 1/2)) in
    40-digit decimal arithmetic, and its weight is 2/((1 - x^2) P_n'(x)^2).
    In binary64 the weight formula alone errs by about 2(n + 1) u relative,
    from the last bit of the node, and numpy's leggauss(40) by up to 7e-13.
    """
    import decimal  # here, not at module level, so that CLI start-up does not load it

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        nodes, weights = [], []
        for i in range(n, 0, -1):
            x, step = decimal.Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5))), 1
            while True:
                p0, p1 = decimal.Decimal(1), x  # P_{j-1}(x), P_j(x)
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                dp = n * (x * p1 - p0) / (x * x - 1)  # P_n'(x)
                if abs(step) < decimal.Decimal("1e-36"):
                    break
                step = p1 / dp
                x -= step
            nodes.append(float(x))
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


@functools.cache
def _gauss_legendre_rules() -> tuple:
    """(nodes, weights) of the 20- and 40-point rules on [-1, 1]."""
    return _gauss_legendre(20), _gauss_legendre(40)


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement fails to reach the requested tolerance."""


def quadrature_oracle(kind: str, q: int, t: float, tol: float = 1e-12) -> float:
    """Adaptive quadrature of the defining integral, independent of the
    closed forms.  ``kind`` selects I, K or J.

    Each panel of [0, 1] takes the 20- and 40-point Gauss-Legendre rules;
    a panel is bisected while |Q40 - Q20| > tol * (its length), and the
    accepted panels' Q40 are summed with ``math.fsum``.

    Raises QuadratureError past _QUAD_PANELS panels or if the summed
    |Q40 - Q20| exceeds 50 max(tol, 1e-14 |value|), and ValueError for an
    unknown kind, tol < 1e-12 or a t that ``kernels.check_t`` refuses.
    """
    if kind not in ("I", "K", "J"):
        raise ValueError(f"unknown integral kind {kind!r}; expected one of I, K, J")
    if tol < 1e-12:
        raise ValueError(f"tol must be at least 1e-12, got {tol}")
    check_t(t)
    q = int(q)
    rules = _gauss_legendre_rules()
    lo, hi = np.array([0.0]), np.array([1.0])
    values, errors, panels = [], [], 1
    while lo.size:
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        q20, q40 = (
            half * (_integrand(kind, mid[:, None] + half[:, None] * x, q, t) * w).sum(axis=1)
            for x, w in rules
        )
        err = np.abs(q40 - q20)
        done = err <= tol * 2.0 * half
        values += q40[done].tolist()
        errors += err[done].tolist()
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        panels += lo.size
        if panels > _QUAD_PANELS:
            raise QuadratureError(
                f"quadrature of {kind}({q}, {t}) did not converge within {_QUAD_PANELS} panels"
            )
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    value, abserr = math.fsum(values), math.fsum(errors)
    if abserr > max(tol, 1e-14 * abs(value)) * 50.0:
        raise QuadratureError(
            f"quadrature of {kind}({q}, {t}) reports error {abserr:.2e} above tolerance {tol:.2e}"
        )
    return value

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
``integral_j`` are one-element calls of them.
``quadrature_oracle`` integrates the defining integrands directly with
adaptive quadrature so the closed forms are machine-checkable.

The hyperbolic heads csch, sech and cosh/sinh^2 each have one guarded
implementation, elementwise over arrays (``csch_values``, ``sech_values``,
``cosh_over_sinh2_values``); the scalar forms call it on a one-element
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import GUARD_THRESHOLD

WEIGHT_TOL = 1e-18


@dataclass(frozen=True)
class IntegralValue:
    """Closed-form integral value with the series length used and a
    first-omitted-term bound on the truncation error."""

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
    """coth(x) for x != 0."""
    ax = abs(x)
    if ax <= GUARD_THRESHOLD:
        return 1.0 / math.tanh(x)
    return math.copysign(1.0, x)


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


def _p_weights(t: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, c_n) with n = 2m+1 and c_n = (-1)^m n e^(-pi t n), the weights of P.

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
    return n, c


def exp_series_sums(y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s1, s2, s3), the r-series of I and K, elementwise over y: with w_r from
    ``_exp_series_terms`` and d_r = 4 t^2 r^2 + y^2, s1 = sum w_r / d_r,
    s2 = sum w_r r / d_r and s3 = sum w_r (4 t^2 r^2 - y^2) / d_r^2."""
    yf = np.asarray(y, dtype=float)
    r, w = _exp_series_terms(t)
    r2 = 4.0 * t * t * r[:, None] ** 2
    dmat = r2 + yf[None, :] ** 2
    s1 = (w[:, None] / dmat).sum(axis=0)
    s2 = (w[:, None] * r[:, None] / dmat).sum(axis=0)
    s3 = (w[:, None] * (r2 - yf[None, :] ** 2) / dmat**2).sum(axis=0)
    return s1, s2, s3


def p_values(q: np.ndarray, t: float) -> np.ndarray:
    """P(q) = sum_n c_n / (t^2 n^2 + q^2) elementwise over q, with c_n from
    ``_p_weights``, one weight at a time into one buffer.  The smallest
    terms come first: in the other order the partial sums at t = 0.001
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


def _j(q: np.ndarray, t: float) -> np.ndarray:
    """J(q, t) = sech(pi q/(2t))/(2t) + (-1)^(q-1) (2t/pi) P(q), elementwise
    over an array of integers q >= 0."""
    x = math.pi * q / (2.0 * t)
    e = np.exp(-x)
    head = e / (1.0 + e * e) / t
    sign_q = np.where(q % 2 == 0, -1.0, 1.0)  # (-1)^(q-1)
    return head + sign_q * (2.0 * t / math.pi) * p_values(q, t)


def _check_t(t: float) -> None:
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")


def integral_i(q: int, t: float) -> IntegralValue:
    """Closed form of int_0^1 sin(pi q b)/(e^{2 pi b t}+1) db; odd in q."""
    _check_t(t)
    q = int(q)
    if q == 0:
        return IntegralValue(0.0, 0, 0.0)
    head = 1.0 / (2.0 * math.pi * q) - 0.25 / t * csch(math.pi * q / (2.0 * t))
    s1 = float(exp_series_sums(np.array([q]), t)[0][0])
    pref = (-1.0 if q % 2 == 0 else 1.0) * q / math.pi
    n1 = _exp_series_terms(t)[0].size + 1
    est = abs(pref) * math.exp(-2.0 * math.pi * t * n1) / (4.0 * t * t * n1 * n1 + float(q) * q)
    return IntegralValue(head + pref * s1, n1 - 1, est)


def integral_k(q: int, t: float) -> IntegralValue:
    """Closed form of int_0^1 b cos(pi q b)/(e^{2 pi b t}+1) db; even in q.

    Derived by expanding 1/(e^{2 pi b t}+1) as a geometric series and
    integrating b cos(pi q b) e^{-2 pi t r b} term by term; the head is the
    exponential-free part of that expansion (its q -> 0 limit is 1/(48 t^2)).
    """
    _check_t(t)
    q = abs(int(q))
    if q == 0:
        head = 1.0 / (48.0 * t * t)
    else:
        x = math.pi * q / (2.0 * t)
        head = -1.0 / (2.0 * math.pi**2 * q * q) + cosh_over_sinh2(x) / (8.0 * t * t)
    _, s2, s3 = exp_series_sums(np.array([q]), t)
    sq = -1.0 if q % 2 == 0 else 1.0
    value = head + sq * 2.0 * t / math.pi * float(s2[0]) + sq / math.pi**2 * float(s3[0])
    n1 = _exp_series_terms(t)[0].size + 1
    est = math.exp(-2.0 * math.pi * t * n1) * (2.0 * t * n1 + 1.0) / (4.0 * t * t * n1 * n1 + float(q) * q)
    return IntegralValue(value, n1 - 1, est)


def integral_j(q: int, t: float) -> IntegralValue:
    """Closed form of int_0^1 cos(pi q b)/cosh(pi b t) db; even in q: the
    entry |q| of ``j_values``."""
    _check_t(t)
    q = abs(int(q))
    n = _p_weights(t)[0]
    n1 = n[-1] + 2.0
    est = 2.0 * t / math.pi * n1 * math.exp(-math.pi * t * n1) / (t * t * n1 * n1 + float(q) * q)
    return IntegralValue(float(_j(np.array([q]), t)[0]), n.size, est)


def j_values(q_max: int, t: float) -> np.ndarray:
    """J(q, t) for q = 0..q_max as one vectorized sweep.

    The series drivers index this table by |r +- c|, so it is built once
    per evaluation context rather than per call.
    """
    _check_t(t)
    return _j(np.arange(q_max + 1), t)


_INTEGRANDS = {
    "I": lambda b, q, t: math.sin(math.pi * q * b) / (math.exp(2.0 * math.pi * b * t) + 1.0),
    "K": lambda b, q, t: b * math.cos(math.pi * q * b) / (math.exp(2.0 * math.pi * b * t) + 1.0),
    "J": lambda b, q, t: math.cos(math.pi * q * b) / math.cosh(math.pi * b * t),
}


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement fails to reach the requested tolerance."""


def quadrature_oracle(kind: str, q: int, t: float, tol: float = 1e-12) -> float:
    """Adaptive quadrature of the defining integral, independent of the
    closed forms.  ``kind`` selects I, K or J.

    Raises QuadratureError if the subdivision limit is reached without
    convergence, and ValueError for an unknown kind or tol < 1e-12.
    """
    if kind not in _INTEGRANDS:
        raise ValueError(f"unknown integral kind {kind!r}; expected one of I, K, J")
    if tol < 1e-12:
        raise ValueError(f"tol must be at least 1e-12, got {tol}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    from scipy.integrate import quad  # the only scipy user; imported lazily for CLI start-up

    f = _INTEGRANDS[kind]
    value, abserr, info, *rest = quad(
        f, 0.0, 1.0, args=(int(q), t), epsabs=tol, epsrel=0.0, limit=500, full_output=1
    )
    if rest:
        raise QuadratureError(f"quadrature of {kind}({q}, {t}) did not converge: {rest[-1]}")
    if abserr > max(tol, 1e-14 * abs(value)) * 50.0:
        raise QuadratureError(
            f"quadrature of {kind}({q}, {t}) reports error {abserr:.2e} above tolerance {tol:.2e}"
        )
    return value

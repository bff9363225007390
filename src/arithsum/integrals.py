"""Closed forms for the three unit-interval integrals that weight every
series in this library:

    I(q, t) = int_0^1 sin(pi q b) / (e^{2 pi b t} + 1) db
    K(q, t) = int_0^1 b cos(pi q b) / (e^{2 pi b t} + 1) db
    J(q, t) = int_0^1 cos(pi q b) / cosh(pi b t) db

Each closed form is a small hyperbolic head plus an exponentially
convergent series; the series stop once the first-omitted-term bound
drops below ``tol / 10``.  ``quadrature_oracle`` integrates the defining
integrands directly with adaptive quadrature so the closed forms are
machine-checkable.

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

DEFAULT_TOL = 1e-12


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


def _sign_pow(n: int) -> float:
    """(-1)**n without float exponentiation."""
    return -1.0 if n & 1 else 1.0


def integral_i(q: int, t: float, tol: float = DEFAULT_TOL) -> IntegralValue:
    """Closed form of int_0^1 sin(pi q b)/(e^{2 pi b t}+1) db; odd in q."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    q = int(q)
    if q == 0:
        return IntegralValue(0.0, 0, 0.0)
    head = 1.0 / (2.0 * math.pi * q) - 0.25 / t * csch(math.pi * q / (2.0 * t))
    q2 = float(q) * q
    pref = _sign_pow(q - 1) * q / math.pi
    total = 0.0
    r = 0
    while True:
        r += 1
        w = math.exp(-2.0 * math.pi * t * r)
        term = _sign_pow(r - 1) * w / (4.0 * t * t * r * r + q2)
        total += term
        if abs(pref) * w / (4.0 * t * t * r * r) < tol / 10.0 or w == 0.0:
            break
    est = abs(pref) * math.exp(-2.0 * math.pi * t * (r + 1)) / (4.0 * t * t * (r + 1) ** 2 + q2)
    return IntegralValue(head + pref * total, r, est)


def integral_k(q: int, t: float, tol: float = DEFAULT_TOL) -> IntegralValue:
    """Closed form of int_0^1 b cos(pi q b)/(e^{2 pi b t}+1) db; even in q.

    Derived by expanding 1/(e^{2 pi b t}+1) as a geometric series and
    integrating b cos(pi q b) e^{-2 pi t r b} term by term; the head is the
    exponential-free part of that expansion (its q -> 0 limit is 1/(48 t^2)).
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    q = int(q)
    if q == 0:
        head = 1.0 / (48.0 * t * t)
    else:
        x = math.pi * q / (2.0 * t)
        head = -1.0 / (2.0 * math.pi**2 * q * q) + cosh_over_sinh2(x) / (8.0 * t * t)
    q2 = float(q) * q
    sq = _sign_pow(q - 1)
    total1 = 0.0
    total2 = 0.0
    r = 0
    while True:
        r += 1
        w = math.exp(-2.0 * math.pi * t * r)
        d = 4.0 * t * t * r * r + q2
        s = _sign_pow(r - 1)
        total1 += s * r * w / d
        total2 += s * w * (4.0 * t * t * r * r - q2) / (d * d)
        if w * (2.0 * t * r / math.pi + 1.0 / math.pi**2) / (4.0 * t * t * r * r) < tol / 10.0 or w == 0.0:
            break
    value = head + sq * 2.0 * t / math.pi * total1 + sq / math.pi**2 * total2
    est = math.exp(-2.0 * math.pi * t * (r + 1)) * (2.0 * t * (r + 1) + 1.0) / (4.0 * t * t * (r + 1) ** 2 + q2)
    return IntegralValue(value, r, est)


def integral_j(q: int, t: float, tol: float = DEFAULT_TOL) -> IntegralValue:
    """Closed form of int_0^1 cos(pi q b)/cosh(pi b t) db; even in q."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    q = int(q)
    q2 = float(q) * q
    head = sech(math.pi * q / (2.0 * t)) / (2.0 * t)
    pref = _sign_pow(q - 1) * 2.0 * t / math.pi
    total = 0.0
    r = -1
    while True:
        r += 1
        n = 2 * r + 1
        w = math.exp(-math.pi * t * n)
        total += _sign_pow(r) * n * w / (t * t * n * n + q2)
        if abs(pref) * w / (t * t * n) < tol / 10.0 or w == 0.0:
            break
    n1 = 2 * r + 3
    est = abs(pref) * n1 * math.exp(-math.pi * t * n1) / (t * t * n1 * n1 + q2)
    return IntegralValue(head + pref * total, r + 1, est)


def j_values(q_max: int, t: float) -> np.ndarray:
    """J(q, t) for q = 0..q_max as one vectorized sweep.

    The series drivers index this table by |r +- c|, so it is built once
    per evaluation context rather than per call.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    q = np.arange(q_max + 1, dtype=float)
    x = math.pi * q / (2.0 * t)
    e = np.exp(-x)
    head = e / (1.0 + e * e) / t
    sign_q = np.where(np.arange(q_max + 1) % 2 == 0, -1.0, 1.0)  # (-1)^(q-1)
    q2 = q * q
    tail = np.zeros_like(q)
    m = 0
    while True:
        n = 2 * m + 1
        w = math.exp(-math.pi * t * n)
        if w * n < 1e-18 and m > 0:
            break
        tail += _sign_pow(m) * n * w / (t * t * n * n + q2)
        m += 1
        if m > 2000:
            break
    return head + sign_q * (2.0 * t / math.pi) * tail


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

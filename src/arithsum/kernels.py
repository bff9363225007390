"""Stable evaluation of the hyperbolic kernels behind the quartic lattice sums.

Everything in this module is built from the first-quadrant square root of
M + it.  Writing sqrt(M + it) = u + iv with u, v > 0, three closed-form
kernels are exposed:

* ``kernel_t`` -- encodes the one-signed lattice sum
  sum_{n>=1} 1/(z^2 + (n^2 + x)^2),
* ``kernel_v`` -- encodes its alternating counterpart,
* ``kernel_g`` -- the jump of the square-indicator generating function
  across the real axis, equal to -2 Im[coth(pi sqrt(M+it)/sqrt(k)) *
  (M+it)^(-5/2)] for the principal branch.

Direct sinh/cosh evaluation overflows binary64 once the argument passes
~709; every kernel therefore switches to an exponential rewrite when the
argument exceeds ``GUARD_THRESHOLD``, and reports that the rewrite fired
via ``KernelValue.overflow_guarded``.  G and T take each element's own
branch only: direct for a <= 30; past it num = 2p, den = 1, the rewrite's
exact bits wherever its terms in e^(-2a) < 2^(-86) round away, which is
wherever |q| < 2^31 |p|; the rewrite itself for the rest.

G and T have one implementation each, elementwise over arrays of M
(``g_values``, ``t_values``); the scalar forms ``kernel_g``, ``kernel_t``
and ``half_plane_root`` call it on a one-element array, so that they
return the same bits.  (numpy's 0-d paths can round differently.)

The t-domain is defined here only: the kernels and integrals take
T_MIN <= t <= T_BIG (``check_t``), the analytic entries T_MIN <= t <= T_MAX
(``check_analytic_t``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Largest hyperbolic argument evaluated directly.  exp overflows near 709,
# and the direct ratios square e^x; switching to the exponential rewrite
# already at 30 costs nothing (the rewrite agrees to ~1e-26 there) and
# leaves maximal headroom for downstream products.
GUARD_THRESHOLD = 30.0
# entries per _g/_j call of a table build: 64 KiB temporaries, in L2 and below malloc's mmap threshold
TABLE_CHUNK = 1 << 13
T_MAX = math.log(np.finfo(float).max) / (2.0 * math.pi)
# The entries size grids of c/t entries, the longest being the
# unit forms' 12000/t (``dsums._unit_value``); numpy sizes them with a C
# long, and at t >= 2^-48 every c < 2^14 keeps c/t below 2^62
T_MIN = 2.0**-48
# The largest t at which no entry's intermediate overflows, for |M|, |q| <= t:
# G forms |M + it|^5 <= (sqrt(2) t)^5, finite for t < 2^204.3; T and V form
# t |M + it|, finite for t < 2^511.7; J forms t^2 n^2 + q^2, finite for
# t < 2^511; I and K form (pi (4 t^2 r^2 + q^2))^2 with r <= 4 past t = 1,
# finite for t < 2^252.  G's bound is the least; T_BIG is the power of two below it.
T_BIG = 2.0**204


def check_t(t: float) -> None:
    """Refuse a t that is not finite and positive, before anything is sized
    from it, t < T_MIN, past which grids of c/t entries overflow, and
    t > T_BIG, past which G's |M + it|^5 overflows."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be positive and finite, got {t}")
    if t < T_MIN:
        raise ValueError(f"t must be at least 2^-48 = {T_MIN:.6g}, where grids of 2^14/t entries fit in 2^62, got {t}")
    if t > T_BIG:
        raise ValueError(f"t must be at most 2^204 = {T_BIG:.6g}, where G's |M + it|^5 stays finite, got {t}")


def check_analytic_t(t: float) -> None:
    """``check_t``, and refuse t > T_MAX, where the closed heads' e^(2 pi t) - 1 overflows."""
    check_t(t)
    if t > T_MAX:
        raise ValueError(f"t must be at most ln(DBL_MAX)/(2 pi) = {T_MAX:.6g}, got {t}")


@dataclass(frozen=True)
class HalfPlaneRoot:
    """First-quadrant square root of M + it, split into real coordinates.

    Satisfies u^2 - v^2 = M and 2uv = t, with u, v > 0 whenever t > 0.
    """

    M: float
    t: float
    u: float
    v: float


@dataclass(frozen=True)
class KernelValue:
    """A kernel evaluation plus a flag recording whether the overflow
    guard replaced the direct hyperbolic expression."""

    value: float
    overflow_guarded: bool = False


def _roots(M: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|M+it|, u, v) elementwise, with u + iv the first-quadrant square
    root of M + it.

    The smaller coordinate is recovered from 2uv = t rather than by
    subtractive cancellation, so the invariants hold to ~1e-15 relative
    even for |M| ~ 1e12.
    """
    check_t(t)
    h = np.hypot(M, t)
    big = np.sqrt((h + np.abs(M)) / 2.0)
    small = t / (2.0 * big)
    pos = M >= 0
    u = np.where(pos, big, small)
    np.copyto(big, small, where=pos)  # v: small where M >= 0, big elsewhere
    return h, u, big


def _direct(p, q, a, b):
    sb = np.sin(b)
    return p * np.sinh(2.0 * a) + q * np.sin(2.0 * b), np.sinh(a) ** 2 + sb * sb


def _rewrite(p, q, a, b):
    # sinh(2a) = e^{2a}(1 - x^2)/2 and sinh^2(a) = e^{2a}(1 - x)^2/4
    # with x = e^{-2a}; dividing through by e^{2a}/4 keeps everything finite.
    sb = np.sin(b)
    with np.errstate(under="ignore"):
        x = np.exp(-2.0 * a)
    return 2.0 * p * (1.0 - x * x) + 4.0 * q * np.sin(2.0 * b) * x, (1.0 - x) ** 2 + 4.0 * sb * sb * x


# _collapsed gives _rewrite's exact bits wherever a > 30 and |q| < 2^31 |p|.
# There x = e^(-2a) < e^(-60) < 0.68 * 2^(-86), so 1 - x^2 and (1 - x)^2
# round to 1, 4 sin^2(b) x < 2^(-84) is below half an ulp of 1, and
# |4 q sin(2b) x| < 0.68 * 2^(-53) |p| is below half the gap on either side
# of 2p, which is at least 2^(-53) |p|; the 0.68 also covers the rounding of
# x and of that product.  |q| / 2^31 is exact, or below 2^(-1022), where the
# product rounds to 0.  Strict < leaves p = +-0 to _rewrite, whose
# -0 + (+0) = +0 differs from 2p = -0, and NaN or infinite q with it.
_COLLAPSE_RATIO = 2.0**31


def _collapsed(p, q, a, b):
    return 2.0 * p, np.ones_like(a)


def _guarded_ratio(
    p: np.ndarray, q: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator and denominator of [p sinh(2a) + q sin(2b)] / (sinh^2(a) +
    sin^2(b)), and the mask where a > GUARD_THRESHOLD and both were rewritten
    in exponentials.  The denominator is bounded below by sinh^2(a) > 0 for
    a > 0, so no special-casing is needed near sin resonances.  Each element
    takes only its own branch: direct for a <= 30, (2p, 1) where a > 30 and
    |q| < 2^31 |p| (``_collapsed``: the rewrite's terms in x = e^(-2a) round
    away there), else the rewrite.  A branch runs on the whole array, on a
    slice where it is one run (as on monotone grids: every table chunk), else
    on a gather; the collapse test is made only when some element is guarded."""
    guarded = a > GUARD_THRESHOLD
    if not np.count_nonzero(guarded):
        return (*_direct(p, q, a, b), guarded)
    collapse = guarded & (np.abs(q) / _COLLAPSE_RATIO < np.abs(p))
    num, den = np.empty_like(a), np.empty_like(a)
    for branch, mask in ((_direct, ~guarded), (_rewrite, guarded & ~collapse), (_collapsed, collapse)):
        m = np.count_nonzero(mask)
        if m == a.size:
            return (*branch(p, q, a, b), guarded)
        if m:
            i = mask.argmax()
            s = slice(i, i + m) if a.ndim == 1 and mask[i : i + m].all() else mask
            num[s], den[s] = branch(p[s], q[s], a[s], b[s])
    return num, den, guarded


def _g(M, t: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(G(M), guarded mask) elementwise; see ``kernel_g``."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    M = np.asarray(M, dtype=float)
    h, u, v = _roots(M, t)
    rk = math.sqrt(k)
    mm = M * M - t * t
    mt2 = 2.0 * M * t
    n1 = mm * u - mt2 * v
    n2 = mt2 * u + mm * v
    num, den, guarded = _guarded_ratio(n2, n1, math.pi * u / rk, math.pi * v / rk)
    return num / (den * h**5), guarded


def _t(M, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(T(M), guarded mask) elementwise; see ``kernel_t``."""
    M = np.asarray(M, dtype=float)
    h, u, v = _roots(M, t)
    num, den, guarded = _guarded_ratio(v, u, math.pi * u, math.pi * v)
    return num / (den * t * h), guarded


def half_plane_root(M: float, t: float) -> HalfPlaneRoot:
    """Split sqrt(M + it) into (u, v) with u^2 - v^2 = M and 2uv = t > 0."""
    _, u, v = _roots(np.array([float(M)]), t)
    return HalfPlaneRoot(M=float(M), t=float(t), u=float(u[0]), v=float(v[0]))


def kernel_t(M: float, t: float) -> KernelValue:
    """Closed form whose value T satisfies
    sum_{n>=1} 1/(t^2 + (n^2 + M)^2) = (pi/4) T - 1/(2(M^2 + t^2))."""
    value, guarded = _t([M], t)
    return KernelValue(float(value[0]), bool(guarded[0]))


def kernel_v(M: float, t: float) -> KernelValue:
    """Closed form whose value V satisfies
    sum_{n>=1} (-1)^n/(t^2 + (n^2 + M)^2) = (pi/2) V - 1/(2(M^2 + t^2)).

    V keeps its own scalar guard rather than an elementwise form through
    ``_guarded_ratio``: its numerator grows like e^a, not e^(2a), so that
    rewrite does not apply, and no caller evaluates V on arrays."""
    root = half_plane_root(M, t)
    u, v = root.u, root.v
    a = math.pi * u
    b = math.pi * v
    sb, cb = math.sin(b), math.cos(b)
    if a <= GUARD_THRESHOLD:
        num = v * math.sinh(a) * cb + u * math.cosh(a) * sb
        den = math.sinh(a) ** 2 + sb * sb
        guarded = False
    else:
        # Divide numerator and denominator by e^{2a}/4; the numerator picks
        # up e^{-a} and is exponentially small, as the true value is.
        y = math.exp(-2.0 * a)
        num = 2.0 * math.exp(-a) * (v * (1.0 - y) * cb + u * (1.0 + y) * sb)
        den = (1.0 - y) ** 2 + 4.0 * sb * sb * y
        guarded = True
    return KernelValue(num / (den * t * math.hypot(M, t)), guarded)


def kernel_g(M: float, t: float, k: int = 1) -> KernelValue:
    """Jump kernel G of the square-indicator generating function.

    Equals -2 Im[coth(pi sqrt(M+it)/sqrt(k)) (M+it)^(-5/2)] with the
    principal square root.
    """
    value, guarded = _g([M], t, k)
    return KernelValue(float(value[0]), bool(guarded[0]))


def g_values(M: np.ndarray, t: float, k: int = 1) -> np.ndarray:
    """``kernel_g`` elementwise over an array of real arguments M."""
    return _g(M, t, k)[0]


def t_values(M: np.ndarray, t: float) -> np.ndarray:
    """``kernel_t`` elementwise over an array of real arguments M."""
    return _t(M, t)[0]


def mittag_leffler_residual(theta: float, x: float, n_terms: int) -> float:
    """Defect of the cosh/sinh partial-fraction expansion after n_terms.

    Compares 1/(2x^2) - pi cosh(theta x)/(2x sinh(pi x)) against the
    truncated sum of (-1)^(j-1) cos(j theta)/(j^2 + x^2).  The returned
    value decreases toward the analytic tail bound as n_terms grows.

    Raises ValueError for |theta| > pi or x = 0.
    """
    if abs(theta) > math.pi:
        raise ValueError(f"|theta| must not exceed pi, got {theta}")
    if x == 0:
        raise ValueError("x must be nonzero")
    ax = abs(x)
    # cosh(theta x)/sinh(pi x) with the large-|x| exponentials factored out;
    # the exponents theta x - pi x and -(theta + pi) x are both <= 0.
    num = math.exp((abs(theta) - math.pi) * ax) + math.exp(-(abs(theta) + math.pi) * ax)
    den = 1.0 - math.exp(-2.0 * math.pi * ax)
    ratio = num / den
    if x < 0:
        ratio = -ratio
    lhs = 1.0 / (2.0 * x * x) - math.pi * ratio / (2.0 * x)
    x2 = x * x
    partial = math.fsum(
        (math.cos(j * theta) if j % 2 else -math.cos(j * theta)) / (j * j + x2)
        for j in range(1, n_terms + 1)
    )
    return abs(lhs - partial)

"""The power-form indicators q_k(N) and q_{k,s}(N).

q_{k,s}(N) is 1 when N = k m^(2s) for some natural m and 0 otherwise;
q_k abbreviates s = 1.  Alongside the integer-exact definition this
module carries the convergent-series representation of q_k(N)/N^2
obtained by inverting the generating series sum q_k(n)/(n^2 (n+z)),
its vanishing counterpart for N <= 0, the integer-shifted variants, and
the general-s form.

The series representation at base N and shift c is assembled as

    head(N+c) + exp-series(N+c) + G-part(N, c)

where head and the three exponential r-series depend only on y = N+c,
and the G-part is the bilateral jump-kernel series

    sinh(pi t)/(4 sqrt(k)) * (-1)^c * sum_{r in Z} (-1)^r G(r-N) J(|r+c|).

The whole expression equals q_k(N+c)/(N+c)^2 for N+c >= 1 and 0 for
N+c <= 0, for every t > 0.

``BlockTables`` is the one block engine.  It holds the signed two-sided
grid sg[R+r] = (-1)^r G(r-N) and Js[Q+m] = J(|m|) of a base, contracts
them tile by tile into the G-parts of many shifts, and ``blocks``
assembles head + exp-series + G-part for an array of shifts; no other
code assembles a block.  The Diophantine and divisor-pair sums of
``dsums`` and ``sigma_analytic`` evaluate their blocks through it.
``q_analytic`` and the vanishing identities are its shift-0 block, with
the two sides folded, (sg[R+r] + sg[R-r]) J(r), before the products are
summed.  Only the oracles (``q_shifted_analytic``, the general-s form)
keep organizations of their own.
"""

from __future__ import annotations

import math
from math import pi

import numpy as np

from .integrals import cosh_over_sinh2_values, coth, csch_values, j_values, sech_values
from .kernels import _g
from .series import Evaluation, TruncationPolicy

# doubles of sg per tile of the G-part contraction (512 KiB); a tile and
# the Js range it meets, ~3 MB at sigma(600), fit a 4 MiB L2 cache
_TILE = 1 << 16

__all__ = [
    "AmbiguousClassification",
    "BlockTables",
    "integer_root",
    "q_bruteforce",
    "q_analytic",
    "q_classify",
    "classify_unit",
    "zero_identity_residual",
    "q_shifted_analytic",
    "q_general_analytic",
    "block_value",
]


class AmbiguousClassification(ValueError):
    """A series value was too far from its rounding targets to classify;
    ``value`` is that series value."""

    def __init__(self, message: str, value: float = math.nan):
        super().__init__(message)
        self.value = value


def integer_root(x: int, e: int) -> int:
    """Floor of the e-th root of x >= 0 by integer binary search."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if e < 1:
        raise ValueError("e must be a positive integer")
    if x < 2:
        return x
    lo, hi = 1, 1 << (x.bit_length() // e + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**e <= x:
            lo = mid
        else:
            hi = mid
    return lo


def q_bruteforce(k: int, s: int, N: int) -> int:
    """1 iff N = k m^(2s) for some natural m >= 1, by exact integer
    root extraction; 0 otherwise (including all N <= 0)."""
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive integers")
    if N < 1 or N % k:
        return 0
    m = integer_root(N // k, 2 * s)
    return 1 if m >= 1 and m ** (2 * s) == N // k else 0


def _sign(n: int) -> float:
    return -1.0 if n % 2 else 1.0


def _exp_series_terms(t: float, tol: float = 1e-18) -> tuple[np.ndarray, np.ndarray]:
    """(r, w_r) grid with w_r = (-1)^(r-1) e^(-2 pi t r), long enough that
    the omitted weight is below tol."""
    r_max = max(4, int(math.ceil(-math.log(tol) / (2.0 * pi * t))) + 2)
    r = np.arange(1, r_max + 1, dtype=float)
    with np.errstate(under="ignore"):
        w = np.exp(-2.0 * pi * t * r)
    w[1::2] *= -1.0
    return r, w


def _closed_heads(y: np.ndarray, k: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(U(y), three exponential r-series at y), elementwise over an integer
    array y; together they are the part of a block that depends only on
    the argument y = N + c."""
    cth = coth(pi * t)
    yf = y.astype(float)
    ys = np.where(y != 0, yf, 1.0)
    sy = np.where(np.abs(y) % 2 == 1, -1.0, 1.0)  # (-1)^y
    x = pi * ys / (2.0 * t)
    head = (
        pi * pi / (3.0 * k * ys * math.expm1(2.0 * pi * t))
        + (1.0 - cth) / (2.0 * ys * ys)
        - sy * pi**3 * cth / (12.0 * k * t) * csch_values(x)
        + sy * pi * pi * cth / (8.0 * t * t) * cosh_over_sinh2_values(x)
    )
    sh = math.sinh(pi * t)
    u0 = (
        pi**4 / (90.0 * k * k)
        + pi * pi / 12.0
        + pi * pi / 4.0
        + pi * pi / (2.0 * sh * sh)
        - pi * pi * cth / 4.0
        + pi * pi * cth / (48.0 * t * t)
    )
    head = np.where(y == 0, u0, head)
    r, w = _exp_series_terms(t)
    r2 = 4.0 * t * t * r[:, None] ** 2
    dmat = r2 + yf[None, :] ** 2
    s1 = (w[:, None] / dmat).sum(axis=0)
    s2 = (w[:, None] * r[:, None] / dmat).sum(axis=0)
    s3 = (w[:, None] * (r2 - yf[None, :] ** 2) / dmat**2).sum(axis=0)
    return head, -yf * pi * pi * cth / (3.0 * k) * s1 - 2.0 * pi * t * cth * s2 - cth * s3


class BlockTables:
    """Jump-kernel and integral grids for one base (N, k, t): the one
    block engine every analytic driver evaluates its blocks through.

    sg[R + r] = (-1)^r G(r - N) for r = -R..R and Js[Q + m] = J(|m|) for
    m = -Q..Q.  Grids grow on demand, at least doubling, and are reused
    across every shift c evaluated against the same base.  The G-parts
    are contracted tile by tile: each tile of sg is read once and serves
    every shift.
    """

    def __init__(self, N: int, k: int, t: float, r_len: int = 0, q_len: int = 0):
        if not t > 0:
            raise ValueError(f"t must be positive, got {t}")
        self.N = int(N)
        self.k = int(k)
        self.t = float(t)
        self.R = self.Q = 0
        self.ensure(max(r_len, 8), max(q_len, 8))  # _g rejects k < 1
        self.coeff = math.sinh(pi * t) / (4.0 * math.sqrt(k))

    def ensure(self, r_len: int, q_len: int) -> None:
        # the grids are elementwise and read through slices, so growing them
        # at least twofold changes no value and rebuilds them O(log) times;
        # each side of sg is its own _g call, which halves the temporaries
        if r_len > self.R:
            R = self.R = max(r_len, 2 * self.R)
            r = np.arange(R + 1, dtype=float)
            self.sg = sg = np.empty(2 * R + 1)
            sg[R:], guarded = _g(r - self.N, self.t, self.k)
            sg[:R] = _g(-r[:0:-1] - self.N, self.t, self.k)[0]
            sg[(R + 1) % 2 :: 2] *= -1.0
            self.g0_guarded = bool(guarded[0])
        if q_len > self.Q:
            Q = self.Q = max(q_len, 2 * self.Q)
            self.Js = Js = np.empty(2 * Q + 1)
            Js[Q:] = j_values(Q, self.t)
            Js[:Q] = Js[:Q:-1]

    def gpart(self, c: int, r_len: int) -> float:
        """The bilateral G-series at shift c, truncated at |r| <= r_len."""
        return float(self._gparts(np.array([c]), np.array([r_len]))[0])

    def _gparts(self, c: np.ndarray, L: np.ndarray) -> np.ndarray:
        # tile by tile over r, and within a tile shift by shift, so the sg
        # tile and the Js range it meets stay in cache for every shift; the
        # tiles [jT - T/2, jT + T/2) are centred on r = 0, so a window of at
        # most one tile is still one dot and keeps its bits
        m = int(L.max())
        self.ensure(m, m + int(np.abs(c).max()))
        R, Q, sg, Js = self.R, self.Q, self.sg, self.Js
        windows = list(enumerate(zip(c.tolist(), L.tolist())))
        acc = [0.0] * len(windows)
        for lo in range((_TILE // 2 - m) // _TILE * _TILE - _TILE // 2, m + 1, _TILE):
            for i, (ci, li) in windows:
                a, b = max(lo, -li), min(lo + _TILE, li + 1)
                if a < b:
                    acc[i] += np.dot(sg[R + a : R + b], Js[Q + ci + a : Q + ci + b])
        return self.coeff * np.where(c % 2, -1.0, 1.0) * np.array(acc)

    def blocks(self, shifts, r_lens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(value, head, scale) of the block at each shift, its G-part
        truncated at the matching entry of r_lens (or at r_lens for all)
        and contracted tile by tile.

        value = head + exp-series + G-part; head is the closed head U(N+c);
        scale = |head| + |exp-series| + coeff * ||sg window||_1 * J(0), which
        bounds the magnitude of every term summed, so eps * scale bounds
        the block's rounding.
        """
        c = np.asarray(shifts, dtype=np.int64)
        L = np.broadcast_to(np.asarray(r_lens, dtype=np.int64), c.shape)
        g = self._gparts(c, L)
        m = int(L.max())
        head, exp_part = _closed_heads(self.N + c, self.k, self.t)
        cum = np.concatenate(([0.0], np.cumsum(np.abs(self.sg[self.R - m : self.R + m + 1]))))
        g_norm = cum[m + L + 1] - cum[m - L]
        scale = np.abs(head) + np.abs(exp_part) + self.coeff * g_norm * self.Js[self.Q]
        return head + exp_part + g, head, scale


def _default_r_len(N: int, c: int, t: float) -> int:
    return abs(c) + abs(N) + max(1500, int(900 / t))


def block_value(tables: BlockTables, c: int, r_len: int | None = None) -> float:
    """Series value at shift c over ``tables``'s base: q_k(N+c)/(N+c)^2
    for N+c >= 1, and 0 for N+c <= 0."""
    if r_len is None:
        r_len = _default_r_len(tables.N, c, tables.t)
    return float(tables.blocks([c], r_len)[0][0])


def _shift0_block(
    k: int, N: int, t: float, policy: TruncationPolicy | None
) -> tuple[float, float, float, int, bool]:
    """The block at base N and shift 0, at any integer N; it equals
    q_k(N)/N^2 for N >= 1 and 0 for N <= 0.  Returns (face, series, tail,
    r_len, guarded): face is the head, the exp-series and the r = 0 term
    coeff G(-N) J(0); series the r != 0 terms; tail models the omitted
    ones."""
    r_len = _default_r_len(N, 0, t)
    if policy is not None:
        r_len = min(r_len, policy.max_terms)
    tables = BlockTables(N, k, t, r_len, r_len)
    R, sg, J = tables.R, tables.sg, tables.Js[tables.Q :]
    head, exp_part = _closed_heads(np.array([N]), k, t)
    face = float(head[0] + exp_part[0]) + tables.coeff * float(sg[R] * J[0])
    # the two sides are folded before the product: one unfolded dot, as
    # gpart(0) would take, loses enough accuracy at t ~ 7-10 to fail more
    # classifications
    terms = (sg[R + 1 : R + r_len + 1] + sg[R - r_len : R][::-1]) * J[1 : r_len + 1]
    series = tables.coeff * float(np.sum(terms))
    # Tail model: past r_len the summand decays at least like r^(-7/2) on
    # the positive side and r^(-4) through the J factor on the negative.
    tail = tables.coeff * float(np.max(np.abs(terms[-64:]))) * r_len / 2.5
    return face, series, tail, r_len, tables.g0_guarded


def q_analytic(
    k: int,
    N: int,
    t: float = 1.0,
    policy: TruncationPolicy | None = None,
) -> Evaluation:
    """Convergent-series value of q_k(N)/N^2 for N >= 1: the shift-0
    block of ``BlockTables`` at base N, its two sides folded."""
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    tol = policy.abs_tol if policy is not None else 1e-12
    face, series, tail, r_len, guarded = _shift0_block(k, N, t, policy)
    est = tail + max(tol, 1e-15) + abs(face) * 1e-15
    return Evaluation(face + series, est, {"r_terms": r_len}, guarded)


def classify_unit(value: float, residual_tol: float = 0.25) -> tuple[int, float]:
    """Round a should-be-indicator value to {0, 1}; the residual is the
    distance to the rounded target.  Raises AmbiguousClassification when
    the residual reaches ``residual_tol``."""
    bit = 1 if value >= 0.5 else 0
    residual = abs(value - bit)
    if residual >= residual_tol:
        raise AmbiguousClassification(
            f"value {value} is {residual:.3f} away from both 0 and 1", value
        )
    return bit, residual


def q_classify(k: int, N: int, t: float = 1.0) -> tuple[int, float]:
    """Classify N by rounding N^2 times the series value of q_k(N)/N^2."""
    ev = q_analytic(k, N, t)
    return classify_unit(N * N * ev.value)


def zero_identity_residual(k: int, N: int, t: float = 1.0) -> float:
    """|series representation at a nonpositive argument|, which the
    vanishing identity says is 0.  Requires N <= 0."""
    if N > 0:
        raise ValueError(f"N must be <= 0, got {N}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    face, series, *_ = _shift0_block(k, N, t, None)
    return abs(face + series)


def _p_weights(t: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, c_n) with n = 2m+1 and c_n = (-1)^m n e^(-pi t n).

    The last weight kept has pi t n >= 64, about 1e-30 at t = 1, so the
    omitted ones are far below the rounding of any O(1) sum over them."""
    m_max = max(2, int(math.ceil(32.0 / (pi * t))))
    m = np.arange(0, m_max + 1)
    n = 2.0 * m + 1.0
    with np.errstate(under="ignore"):
        c = n * np.exp(-pi * t * n)
    c[1::2] *= -1.0
    return n, c


def q_shifted_analytic(k: int, N: int, c: int, t: float = 1.0) -> Evaluation:
    """Fully expanded shifted representation at base N and shift c.

    All integrals are expanded: the closed head U(N+c), the three
    exponential r-series, the sech-weighted bilateral G sums, and the
    one-signed double G sums.  Returns ~q_k(N+c)/(N+c)^2 when N+c >= 1
    and ~0 when N+c <= 0 (the vanishing branch).

    The bilateral sums run over r = -r_len..r_len in one pass: the
    negative side G(-r-N) w(r-c) is the r -> -r image of G(r-N) w(r+c),
    since both weights w are even.
    """
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    y = N + c
    heads, exp_part = _closed_heads(np.array([y]), k, t)
    head = float(heads[0] + exp_part[0])

    r_len = abs(c) + N + max(1200, int(700 / t))
    r = np.arange(-r_len, r_len + 1)
    g, guarded = _g(r - N, t, k)
    sech_block = float(np.sum(np.where(r % 2, -g, g) * sech_values(pi * (r + c) / (2.0 * t))))
    # P(q) = sum_m (-1)^m n e^(-pi t n) / (t^2 n^2 + q^2), n = 2m+1, summed
    # one weight at a time so that memory stays O(r_len) at small t
    q2 = (r + c).astype(float) ** 2
    p = sum(wm / (t * t * nm * nm + q2) for nm, wm in zip(*_p_weights(t)))
    p_block = float(np.sum(g * p))
    sh = math.sinh(pi * t)
    gpart = _sign(c) * sh / (8.0 * math.sqrt(k) * t) * sech_block
    gpart -= t * sh / (2.0 * math.sqrt(k) * pi) * p_block
    est = 1e-12 + (abs(head) + abs(gpart)) * 1e-14 + 3.0 / r_len**2.5
    return Evaluation(head + gpart, est, {"r_terms": r_len}, bool(guarded.any()))


def _h_power_series(z: float, k: int, s: int, t: float) -> float:
    """sum_n 1/(k^2 n^(4s) ((k n^(2s) + z)^2 + t^2)), the bracket series
    of the general-power generating function."""
    total = 0.0
    n = 0
    k2 = k * k
    while True:
        n += 1
        kn = k * float(n) ** (2 * s)
        term = 1.0 / (k2 * float(n) ** (4 * s) * ((kn + z) ** 2 + t * t))
        total += term
        if kn > abs(z) + 1.0 and term < 1e-18 * max(total, 1e-300):
            break
        if n > 10**6:
            break
    return total


def q_general_analytic(
    k: int,
    s: int,
    N: int,
    t: float = 1.0,
    policy: TruncationPolicy | None = None,
) -> Evaluation:
    """Series value of q_{k,s}(N)/N^2 via the general-power generating
    series, for N >= 1, s >= 1."""
    if N < 1 or s < 1 or k < 1:
        raise ValueError("need N >= 1, s >= 1, k >= 1")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    r_len = N + max(2500, int(1200 / t))
    if policy is not None:
        r_len = min(r_len, policy.max_terms)
    J = j_values(r_len, t)
    total = 0.0
    for r in range(1, r_len + 1):
        h = _h_power_series(float(r - N), k, s, t) + _h_power_series(float(-r - N), k, s, t)
        total += _sign(r) * h * J[r]
    sh = math.sinh(pi * t)
    value = t * sh / pi * total
    value += 2.0 * _h_power_series(float(-N), k, s, t) * sh * math.atan(
        math.tanh(pi * t / 2.0)
    ) / (pi * pi)
    est = (policy.abs_tol if policy is not None else 1e-9) + 20.0 / r_len**2
    return Evaluation(value, est, {"r_terms": r_len})

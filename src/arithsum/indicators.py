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
summed.  Only the oracles keep organizations of their own:
``q_shifted_analytic``, and the general-s form ``q_general_analytic``,
which is ``series.invert_series`` of ``power_series_evaluator``.
``q_shifted_analytic`` and the unit-weight forms of ``dsums`` read the
same signed grid (``_signed_g``) and take their sech sums from one
windowed contraction (``_sech_parts``).
"""

from __future__ import annotations

import math
from math import pi

import numpy as np

from .integrals import _exp_series_terms, _p_weights  # noqa: F401 (re-exported)
from .integrals import cosh_over_sinh2_values, coth, csch_values, exp_series_sums
from .integrals import j_values, p_values, sech_values
from .kernels import _g
from .series import Evaluation, SeriesEvaluator, invert_series

# doubles of sg per tile of the G-part contraction (512 KiB); a tile and
# the Js range it meets, ~3 MB at sigma(600), fit a 4 MiB L2 cache
_TILE = 1 << 16
# points and terms per block of power_series_evaluator: 32k doubles
_R_CHUNK = 256
_M_CHUNK = 128

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
    "power_series_evaluator",
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
    s1, s2, s3 = exp_series_sums(yf, t)
    return head, -yf * pi * pi * cth / (3.0 * k) * s1 - 2.0 * pi * t * cth * s2 - cth * s3


def _signed_g(N: int, t: float, k: int, R: int) -> tuple[np.ndarray, np.ndarray]:
    """(sg, guarded): the signed two-sided grid sg[R + r] = (-1)^r G(r - N)
    for r = -R..R, and the overflow-guard mask of each entry.  Each side is
    its own _g call, which halves the temporaries."""
    r = np.arange(R + 1, dtype=float)
    sg = np.empty(2 * R + 1)
    guarded = np.empty(2 * R + 1, dtype=bool)
    sg[R:], guarded[R:] = _g(r - N, t, k)
    sg[:R], guarded[:R] = _g(-r[:0:-1] - N, t, k)
    sg[(R + 1) % 2 :: 2] *= -1.0
    return sg, guarded


def _sech_half_width(t: float) -> int:
    """Half-width W of the sech windows: sech(pi W/(2t)) < 1e-18."""
    return math.ceil(27.0 * t) + 3


def _sech_parts(sg: np.ndarray, R: int, centres, t: float) -> np.ndarray:
    """sum over |r - c| <= W of (-1)^(r-c) G(r-N) sech(pi (r-c)/(2t)) for
    each centre c, from the signed grid sg[R + r] = (-1)^r G(r - N); each
    window is one row of sg against one sech vector and must lie inside
    the grid."""
    W = _sech_half_width(t)
    c = np.asarray(centres, dtype=np.int64)
    lo = R + c - W
    if lo.min() < 0 or lo.max() + 2 * W > 2 * R:
        raise ValueError(f"a sech window of half-width {W} leaves the grid r = -{R}..{R}")
    s = sech_values(pi * np.arange(-W, W + 1) / (2.0 * t))
    rows = np.lib.stride_tricks.sliding_window_view(sg, 2 * W + 1)[lo]
    return np.where(c % 2, -1.0, 1.0) * (rows @ s)


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
        # at least twofold changes no value and rebuilds them O(log) times
        if r_len > self.R:
            R = self.R = max(r_len, 2 * self.R)
            self.sg, guarded = _signed_g(self.N, self.t, self.k, R)
            self.g0_guarded = bool(guarded[R])
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


def _shift0_block(k: int, N: int, t: float) -> tuple[float, float, float, int, bool]:
    """The block at base N and shift 0, at any integer N; it equals
    q_k(N)/N^2 for N >= 1 and 0 for N <= 0.  Returns (face, series, tail,
    r_len, guarded): face is the head, the exp-series and the r = 0 term
    coeff G(-N) J(0); series the r != 0 terms; tail models the omitted
    ones."""
    r_len = _default_r_len(N, 0, t)
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


def q_analytic(k: int, N: int, t: float = 1.0) -> Evaluation:
    """Convergent-series value of q_k(N)/N^2 for N >= 1: the shift-0
    block of ``BlockTables`` at base N, its two sides folded."""
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    face, series, tail, r_len, guarded = _shift0_block(k, N, t)
    est = tail + 1e-12 + abs(face) * 1e-15
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
    face, series, *_ = _shift0_block(k, N, t)
    return abs(face + series)


def q_shifted_analytic(k: int, N: int, c: int, t: float = 1.0) -> Evaluation:
    """Fully expanded shifted representation at base N and shift c.

    All integrals are expanded: the closed head U(N+c), the three
    exponential r-series, the sech-weighted bilateral G sums, and the
    one-signed double G sums.  Returns ~q_k(N+c)/(N+c)^2 when N+c >= 1
    and ~0 when N+c <= 0 (the vanishing branch).

    The bilateral sums run over r = -r_len..r_len of the signed grid: the
    negative side G(-r-N) w(r-c) is the r -> -r image of G(r-N) w(r+c),
    since both weights w are even.  The sech sum is ``_sech_parts`` at the
    centre -c.  The estimate adds the sinh(pi t)-amplified rounding of both
    sums: eps sum |terms| times the dot's length or ceil(log2 n) + 1.
    """
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    heads, exp_part = _closed_heads(np.array([N + c]), k, t)
    head = float(heads[0] + exp_part[0])
    W = _sech_half_width(t)
    r_len = abs(c) + max(N + max(1200, int(700 / t)), W)
    sg, guarded = _signed_g(N, t, k, r_len)
    r = np.arange(-r_len, r_len + 1)
    p_terms = np.where(r % 2, -sg, sg) * p_values(r + c, t)
    sh = math.sinh(pi * t)
    sech_coeff = sh / (8.0 * math.sqrt(k) * t)
    p_coeff = t * sh / (2.0 * math.sqrt(k) * pi)
    gpart = sech_coeff * _sech_parts(sg, r_len, [-c], t)[0] - p_coeff * float(np.sum(p_terms))
    sech_abs = sech_coeff * abs(_sech_parts(np.abs(sg), r_len, [-c], t)[0])
    p_abs = p_coeff * float(np.sum(np.abs(p_terms)))
    est = 1e-12 + (abs(head) + abs(gpart)) * 1e-14 + 3.0 / r_len**2.5
    # n = r.size is odd, so ceil(log2 n) = n.bit_length()
    est += np.finfo(float).eps * ((2 * W + 1) * sech_abs + (r.size.bit_length() + 1) * p_abs)
    return Evaluation(head + gpart, est, {"r_terms": r_len}, bool(guarded.any()))


def power_series_evaluator(k: int, s: int) -> SeriesEvaluator:
    """Direct-summation evaluator of F(z) = sum_m 1/(k^2 m^(4s) (k m^(2s) + z)),
    the generating series of q_{k,s}(n)/n^2.

    Points are taken in chunks of _R_CHUNK and terms in chunks of _M_CHUNK,
    so no (m x point) temporary grows with the input.  A chunk with
    |Re z| <= X and |Im z| <= Y keeps the terms m <= M, with M past the
    resonance, k M^(2s) >= 2X, and M^(8s) >= 4e18 ((k+X)^2 + Y^2)/k^2.
    Past the resonance |k m^(2s) + z| >= k m^(2s)/2, so each omitted term of
    Im F is below 1e-18 of the m = 1 term, whose sign all terms of Im F
    share.
    """
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive integers")

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for lo in range(0, flat.size, _R_CHUNK):
            x, y = flat.real[lo : lo + _R_CHUNK], flat.imag[lo : lo + _R_CHUNK]
            X, Y = float(np.abs(x).max()), float(np.abs(y).max())
            m_max = math.ceil(
                max(
                    (2.0 * X / k) ** (1.0 / (2 * s)),
                    (4e18 * ((k + X) ** 2 + Y * Y) / (k * k)) ** (1.0 / (8 * s)),
                )
            )
            y2 = y * y
            re = np.zeros(x.size)
            im = np.zeros(x.size)
            for m0 in range(1, m_max + 1, _M_CHUNK):
                m = np.arange(m0, min(m0 + _M_CHUNK, m_max + 1), dtype=float)
                u = k * m[:, None] ** (2 * s) + x
                inv = 1.0 / (u * u + y2)
                w = 1.0 / (k * k * m ** (4 * s))
                im += np.einsum("m,mr->r", w, inv)
                re += np.einsum("m,mr->r", w, u * inv)
            out.real[lo : lo + _R_CHUNK] = re
            out.imag[lo : lo + _R_CHUNK] = -y * im
        return out.reshape(z.shape)

    def coefficient(n: int) -> float:
        return q_bruteforce(k, s, n) / (n * n) if n >= 1 else 0.0

    return SeriesEvaluator(evaluate, f"power k={k} s={s}", coefficient)


def q_general_analytic(k: int, s: int, N: int, t: float = 1.0) -> Evaluation:
    """Series value of q_{k,s}(N)/N^2 for N >= 1, s >= 1: the inversion of
    ``power_series_evaluator(k, s)`` at N.  It shares no code with the block
    engine, so at s = 1 it is an oracle for ``q_analytic``."""
    if N < 1 or s < 1 or k < 1:
        raise ValueError("need N >= 1, s >= 1, k >= 1")
    return invert_series(power_series_evaluator(k, s), N, t)

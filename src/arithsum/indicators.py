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

``BlockTables`` is the one block engine, a fixed contraction plan.  It
sets up the signed two-sided grid sg[R+r] = (-1)^r G(r-N) and
Js[Q+m] = J(|m|) of a base once (views of the held tables where those
cover them), at the sizes its driver passes,
contracts them into the G-parts of many shifts whose windows lie inside
the grids and hold their J peak r = -c (the products next to the peak
summed by ``math.fsum``, the rest tile by tile), and ``blocks`` assembles
head + exp-series + G-part for an array of shifts; no other code
assembles a block.  ``q_analytic`` and the vanishing identities are its
shift-0 block; the Diophantine and divisor-pair sums of ``dsums`` and
``sigma_analytic`` evaluate their blocks through it too.  Only the
oracles keep organizations of their own:
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

from .integrals import cosh_over_sinh2_values, coth, csch_values, exp_series_sums
from .integrals import _p_weights, j_values, p_values, sech_values
from .kernels import TABLE_CHUNK, _g
from .series import Evaluation, SeriesEvaluator, invert_series

# doubles of sg per tile of the G-part contraction (512 KiB); a tile and
# the Js range it meets, ~3 MB at sigma(600), fit a 4 MiB L2 cache
_TILE = 1 << 16
# the near products of a G-part, |r + c| <= _NEAR next to J's peak
_NEAR = 32
_NEAR_RANGE = np.arange(-_NEAR, _NEAR + 1)
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
        pi * pi / (3.0 * k) / ys / math.expm1(2.0 * pi * t)
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
    for r = -R..R, and the overflow-guard mask of each entry, filled
    TABLE_CHUNK entries at a time so that _g's temporaries stay in cache."""
    sg = np.empty(2 * R + 1)
    guarded = np.empty(2 * R + 1, dtype=bool)
    for i in range(0, 2 * R + 1, TABLE_CHUNK):
        s = sg[i : i + TABLE_CHUNK]
        s[:], guarded[i : i + TABLE_CHUNK] = _g(np.arange(i, i + s.size, dtype=float) - (R + N), t, k)
        s[(R + 1 + i) % 2 :: 2] *= -1.0
    return sg, guarded


# the held tables: "g", the last (sg, guard mask) built, keyed by (k, t), with
# its base N and M = r - N range; "j", the last (Js,), keyed by t, over q = -Q..Q
_HELD: dict = {}


def _held(name: str, key, base: int, lo: int, hi: int, build) -> list:
    """Read-only arrays over the coordinates lo..hi: views of the held entry
    if it has this key and covers lo..hi (the first negated if its base has
    the other parity), else build()'s, which replace it.  Each entry depends
    only on its coordinate and the key, so a view has the bits of a build."""
    e = _HELD.get(name)
    if e is not None and e[0] == key and e[2] <= lo and hi <= e[3]:
        views = [a[lo - e[2] : hi - e[2] + 1] for a in e[4]]
        if (e[1] - base) % 2:
            views[0] = -views[0]
            views[0].flags.writeable = False
        return views
    del e  # drop the old entry before the build: the two are never resident at once
    _HELD.pop(name, None)
    arrays = build()
    for a in arrays:
        a.flags.writeable = False
    _HELD[name] = (key, base, lo, hi, arrays)
    return list(arrays)


def _two_sided_j(Q: int, t: float) -> tuple[np.ndarray]:
    Js = np.empty(2 * Q + 1)
    j_values(Q, t, out=Js[Q:])
    Js[:Q] = Js[:Q:-1]
    return (Js,)


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

    A fixed contraction plan: sg[R + r] = (-1)^r G(r - N) for r = -R..R
    and Js[Q + m] = J(|m|) for m = -Q..Q are set up once, here, at
    R = r_len and Q = q_len, and serve every shift c against the base.
    They are read-only views of the held tables (``_held``) where those
    cover them: the last G grid per (k, t) and the last J table per t.
    Otherwise they are built, bit for bit the same, and become the held ones.
    A shift's window |r| <= L must lie inside them (L <= R, L + |c| <= Q)
    and hold the near range around its J peak r = -c (|c| + _NEAR <= L);
    ``_gparts`` refuses any other.  Each tile of sg is read once and
    serves every shift.
    """

    def __init__(self, N: int, k: int, t: float, r_len: int, q_len: int):
        if not t > 0:
            raise ValueError(f"t must be positive, got {t}")
        self.N, self.k, self.t = N, k, t = int(N), int(k), float(t)
        self.R, self.Q = R, Q = int(r_len), int(q_len)
        self.sg, guarded = _held("g", (k, t), N, -R - N, R - N, lambda: _signed_g(N, t, k, R))
        self.g0_guarded = bool(guarded[R])
        (self.Js,) = _held("j", t, 0, -Q, Q, lambda: _two_sided_j(Q, t))
        self.coeff = math.sinh(pi * t) / (4.0 * math.sqrt(k))

    def gpart(self, c: int, r_len: int) -> float:
        """The bilateral G-series at shift c, truncated at |r| <= r_len."""
        return float(self._gparts(np.array([c]), np.array([r_len]))[0])

    def _gparts(self, c: np.ndarray, L: np.ndarray) -> np.ndarray:
        # each shift first sums its near products, |r + c| <= _NEAR, with
        # one rounding (math.fsum): they carry most of its sum |terms|, and
        # a dot rounds them worse.  The rest of the window follows tile by
        # tile, one dot on either side of the near range, so the sg tile and
        # the Js range it meets stay in cache for every shift; the tiles
        # [jT - T/2, jT + T/2) are centred on r = 0
        R, Q, sg, Js = self.R, self.Q, self.sg, self.Js
        cs, ls = c.tolist(), L.tolist()
        for ci, li in zip(cs, ls):
            if li > R or li + abs(ci) > Q:
                raise ValueError(f"window |r| <= {li} at shift {ci} leaves the grids R={R}, Q={Q}")
            if abs(ci) + _NEAR > li:
                raise ValueError(f"window |r| <= {li} misses the near range of shift {ci}")
        near = sg[(R - c)[:, None] + _NEAR_RANGE] * Js[Q - _NEAR : Q + _NEAR + 1]
        acc = [math.fsum(row) for row in near.tolist()]
        m = max(ls)
        for lo in range((_TILE // 2 - m) // _TILE * _TILE - _TILE // 2, m + 1, _TILE):
            hi = lo + _TILE
            for i, (ci, li) in enumerate(zip(cs, ls)):
                for a, b in (-li, -ci - _NEAR), (-ci + _NEAR + 1, li + 1):
                    a, b = max(lo, a), min(hi, b)
                    if a < b:
                        acc[i] += np.dot(sg[R + a : R + b], Js[Q + ci + a : Q + ci + b])
        return self.coeff * np.where(c % 2, -1.0, 1.0) * np.array(acc)

    def blocks(self, shifts, r_lens) -> tuple[np.ndarray, ...]:
        """(value, head, exp-series, scale) of the block at each shift, its
        G-part truncated at the matching entry of r_lens (or at r_lens for
        all) and contracted by ``_gparts``.

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
        cum = np.zeros(2 * m + 2)  # one array: at sigma(600) a window takes 6 MB
        np.cumsum(np.abs(self.sg[self.R - m : self.R + m + 1], out=cum[1:]), out=cum[1:])
        g_norm = cum[m + L + 1] - cum[m - L]
        scale = np.abs(head) + np.abs(exp_part) + self.coeff * g_norm * self.Js[self.Q]
        return head + exp_part + g, head, exp_part, scale


def _default_r_len(N: int, c: int, t: float) -> int:
    return abs(c) + abs(N) + max(1500, int(900 / t))


def block_value(tables: BlockTables, c: int, r_len: int | None = None) -> float:
    """Series value at shift c over ``tables``'s base: q_k(N+c)/(N+c)^2
    for N+c >= 1, and 0 for N+c <= 0."""
    if r_len is None:
        r_len = _default_r_len(tables.N, c, tables.t)
    return float(tables.blocks([c], r_len)[0][0])


def q_analytic(k: int, N: int, t: float = 1.0) -> Evaluation:
    """Convergent-series value of q_k(N)/N^2 for N >= 1: the shift-0
    block of ``BlockTables`` at base N."""
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    r_len = _default_r_len(N, 0, t)
    tables = BlockTables(N, k, t, r_len, r_len)
    value, head, exp_part, _ = tables.blocks([0], r_len)
    R, Q, sg, Js = tables.R, tables.Q, tables.sg, tables.Js
    face = float(head[0] + exp_part[0]) + tables.coeff * float(sg[R] * Js[Q])
    # tail model: past r_len the summand decays at least like r^(-7/2) on
    # the positive side and r^(-4) through the J factor on the negative
    r = np.arange(r_len - 63, r_len + 1)
    tail = tables.coeff * float(np.max(np.abs((sg[R + r] + sg[R - r]) * Js[Q + r]))) * r_len / 2.5
    est = tail + 1e-12 + abs(face) * 1e-15
    return Evaluation(float(value[0]), est, {"r_terms": r_len}, tables.g0_guarded)


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
    r_len = _default_r_len(N, 0, t)
    return abs(block_value(BlockTables(N, k, t, r_len, r_len), 0))


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
    p_terms = np.where(r % 2, -sg, sg) * p_values(r + c, t, _p_weights(t))
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

    ``evaluate(x, t)`` returns Im F(x + it) over a 1-D array of real points
    x.  Points are taken in chunks of _R_CHUNK and terms in chunks of
    _M_CHUNK, so no (m x point) temporary grows with the input.  A chunk
    with |x| <= X keeps the terms m <= M, with M past the resonance,
    k M^(2s) >= 2X, and M^(8s) >= 4e18 ((k+X)^2 + t^2)/k^2.  Past the
    resonance |k m^(2s) + z| >= k m^(2s)/2, so each omitted term of Im F is
    below 1e-18 of the m = 1 term, whose sign all terms of Im F share.
    """
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive integers")

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y2 = t * t
        out = np.empty(x.size)
        for lo in range(0, x.size, _R_CHUNK):
            xc = x[lo : lo + _R_CHUNK]
            X = float(np.abs(xc).max())
            m_max = math.ceil(
                max(
                    (2.0 * X / k) ** (1.0 / (2 * s)),
                    (4e18 * ((k + X) ** 2 + y2) / (k * k)) ** (1.0 / (8 * s)),
                )
            )
            im = np.zeros(xc.size)
            for m0 in range(1, m_max + 1, _M_CHUNK):
                m = np.arange(m0, min(m0 + _M_CHUNK, m_max + 1), dtype=float)
                u = k * m[:, None] ** (2 * s) + xc
                w = 1.0 / (k * k * m ** (4 * s))
                im += np.einsum("m,mr->r", w, 1.0 / (u * u + y2))
            out[lo : lo + _R_CHUNK] = -t * im
        return out

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

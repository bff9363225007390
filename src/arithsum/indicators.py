"""The power-form indicators q_k(N) and q_{k,s}(N).

q_{k,s}(N) is 1 when N = k m^(2s) for some natural m and 0 otherwise;
q_k abbreviates s = 1.  Alongside the integer-exact definition this
module carries the convergent-series value of q_k(N)/N^2, ``q_analytic``,
and its vanishing counterpart for N <= 0, ``zero_identity_residual``:
both are ``series.invert_series`` of ``indicator_series_evaluator(k)``,
the closed form of the generating series sum q_k(n)/(n^2 (n+z)).  The
module also carries the integer-shifted blocks that weighted sums of q
are made of, and the general-s form.

A driver's block at base N and shift c is a function of its argument
y = N + c alone, assembled as

    head(y) + exp-series(y) + G-part(y)

where the G-part is the bilateral jump-kernel series, in M = r - N,

    sinh(pi t)/(4 sqrt(k)) * sum_{M in Z} G(M) (-1)^(M+y) J(|M + y|).

The whole expression equals q_k(y)/y^2 for y >= 1 and 0 for y <= 0, for
every t > 0.

``BlockTables`` is the one block engine, a fixed contraction plan keyed on
(k, t).  It sets up the grid g[M - lo] = G(M), M = lo..hi, and Js[Q + q] =
S(|q|), the signed ``j_values`` table S(q) = (-1)^q J(q) and its mirror,
which carry the (-1)^(M+y), once (views of the held plan, the last
tables built, where it has this (k, t) and covers them), and contracts
them into the G-parts of many blocks (the products next to each J peak
M = -y summed by ``math.fsum``, the rest tile by tile).  A block's window
is lo <= M <= hi: the driver sets lo and a cap on hi, and the engine cuts
hi lower where a closed bound of the rest is below one rounding of the
block's head and exp-series (``_cut_windows``); the window carries that
bound.  ``evaluate`` returns head + exp-series +
G-part for an array of blocks, and no other code assembles a block; only
sigma's tail reads ``rounding_scale``.  ``weighted_blocks`` is the one
function that forms a weighted sum of blocks, sum_i w_i block(N + c_i), and
its estimate; it alone turns a driver's (N, c, r_len) into (y, lo, hi),
cuts windows and sizes tables.  Every driver that sums many blocks, the
Diophantine and divisor-pair sums and sigma, is one call of it.  Only the
oracles keep organizations of their own, with symmetric grids:
``q_shifted_analytic``, q's independent oracle, and the general-s form
``q_general_analytic``, which is ``series.invert_series`` of
``power_series_evaluator``.
``q_shifted_analytic`` and the unit-weight forms of ``dsums`` build the
same plain grid (``_g_grid``) and take their sech sums from one windowed
contraction (``_sech_parts``), whose sech weights carry the (-1)^j.
"""

from __future__ import annotations

import functools
import math
import operator
from math import pi
from typing import NamedTuple

import numpy as np

from .integrals import _EPS, cosh_over_sinh2_values, coth, csch_values, exp_series_sums
from .integrals import _p_weights, j_values, p_values, sech_values
from .kernels import TABLE_CHUNK, _g, check_analytic_t, kernel_g
from .series import _COORD_MAX, Evaluation, SeriesEvaluator, _power_poles, indicator_series_evaluator, invert_series

# doubles of g per tile of the G-part contraction (512 KiB): a tile fits a
# core's 2 MiB L2 cache, but with the Js range it meets, ~3 MB at
# sigma(600), it does not
_TILE = 1 << 16
# the near products of a G-part, |r + c| <= _NEAR next to J's peak
_NEAR = 32
_NEAR_RANGE = np.arange(-_NEAR, _NEAR + 1)

__all__ = [
    "BlockTables",
    "integer_root",
    "q_bruteforce",
    "q_analytic",
    "zero_identity_residual",
    "q_shifted_analytic",
    "q_general_analytic",
    "power_series_evaluator",
    "block_value",
    "weighted_blocks",
]


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


def _g_grid(lo: int, hi: int, t: float, k: int) -> np.ndarray:
    """The grid g[i] = G(lo + i) for M = lo..hi, filled TABLE_CHUNK entries
    at a time so that _g's temporaries stay in cache.  G's guard is set on a
    suffix M >= M*(k, t) > 0 of any grid, so its flag is ``kernel_g``'s at hi."""
    g = np.empty(hi - lo + 1)
    for i in range(0, g.size, TABLE_CHUNK):
        M = np.arange(lo + i, min(lo + i + TABLE_CHUNK, hi + 1), dtype=float)
        g[i : i + TABLE_CHUNK] = _g(M, t, k)[0]
    return g


# the held plan, (k, t) -> (lo, hi, Q, g, Js): the last tables built, g over
# M = lo..hi and Js over q = -Q..Q, both read-only; it holds at most one plan
_HELD: dict = {}


def _two_sided_j(Q: int, t: float) -> np.ndarray:
    """Js[Q + m] = (-1)^m J(|m|), m = -Q..Q, the signed ``j_values`` table and its mirror."""
    Js = np.empty(2 * Q + 1)
    j_values(Q, t, out=Js[Q:])
    Js[:Q] = Js[:Q:-1]
    return Js


def _sech_half_width(t: float) -> int:
    """Half-width W of the sech windows: sech(pi W/(2t)) < 1e-18."""
    return math.ceil(27.0 * t) + 3


def _sech_parts(g: np.ndarray, R: int, centres, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(sum over |r - c| <= W of (-1)^(r-c) G(r-N) sech(pi (r-c)/(2t)), and
    of |G(r-N)| sech(pi (r-c)/(2t))) for each centre c, from the grid
    g[R + r] = G(r - N); each window is one row of g against sech weights
    that carry the (-1)^(r-c), and must lie inside the grid."""
    W = _sech_half_width(t)
    c = np.asarray(centres, dtype=np.int64)
    lo = R + c - W
    if lo.min() < 0 or lo.max() + 2 * W > 2 * R:
        raise ValueError(f"a sech window of half-width {W} leaves the grid r = -{R}..{R}")
    j = np.arange(-W, W + 1)
    s = sech_values(pi * j / (2.0 * t))
    rows = np.lib.stride_tricks.sliding_window_view(g, 2 * W + 1)[lo]
    return rows @ np.where(j % 2, -s, s), np.abs(rows) @ s


@functools.lru_cache(maxsize=8)
def _j_far_coeffs(t: float) -> tuple[float, float]:
    """(a2, a4) with |S(q)| = |J(q)| <= a2/q^2 + a4/q^4 + e^(-pi q/(2t))/t for q >= 1,
    S as ``j_values`` computes it.  J's series P(q) = sum_n c_n/(q^2 + t^2 n^2)
    is mu0/q^2 minus sum_n c_n t^2 n^2/(q^2 (q^2 + t^2 n^2)), mu0 = sum_n c_n,
    and its sum of n terms rounds by at most (n + 4) u sum_n |c_n|/q^2."""
    n, c = (w.tolist() for w in _p_weights(t))
    a = 2.0 * t / pi
    mu0 = abs(math.fsum(c)) + (len(n) + 4) * (_EPS / 2.0) * math.fsum(map(abs, c))
    return a * mu0, a * t * t * math.fsum(abs(cm) * nm * nm for nm, cm in zip(n, c))


def _positive_tails(k: int, t: float, m: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S_GJ, S_G): bounds of sum_{M > m} |G(M) J(M + y)| and of
    sum_{M > m} |G(M)| for each block, where m >= 1 and y are floats of
    integer value, and m + y >= 1.

    With x = M > m and q = x + y:
    - |G(x)| <= 5t x^(-7/2) + 2 eps(x) x^(-5/2), where eps(x) = 2/expm1(2 pi
      sqrt(x/k)) bounds |coth - 1|, since |Im (x + it)^(-5/2)| <= (5t/2x) x^(-5/2);
    - |J(q)| <= a2/q^2 + a4/q^4 + e^(-pi q/(2t))/t (``_j_far_coeffs``);
    - both bounds fall with x, so their sum over x > m is at most their
      integral from m, and there q >= q0 (x/m)^theta, q0 = m + y, with
      theta = min(1, m/q0): log q is convex in log x for y >= 0, and
      q/q0 >= x/m for y < 0.  So the x^(-7/2) q^(-2) part integrates to at
      most q0^(-2) m^(-5/2)/(5/2 + 2 theta), and so, a fortiori, does the
      x^(-7/2) q^(-4) part with q0^(-4).
    """
    q0 = m + y
    a2, a4 = _j_far_coeffs(t)
    iq2 = q0**-2.0
    j_far = iq2 * (a2 + a4 * iq2)
    sech = np.exp(q0 * (-pi / (2.0 * t))) / t
    g = (5.0 * t) * m**-2.5
    # the eps part, (4/3) eps(m) m^(-3/2); 2 pi sqrt(m/k) is capped where expm1 would overflow
    g_eps = (8.0 / 3.0) * m**-1.5 / np.expm1(np.minimum(np.sqrt(m * (4.0 * pi * pi / k)), 700.0))
    s_gj = g * (j_far / (2.5 + 2.0 * np.minimum(m / q0, 1.0)) + 0.4 * sech) + g_eps * (j_far + sech)
    return s_gj, 0.4 * g + g_eps


def _positive_cuts(k: int, t: float, y: np.ndarray, hi: np.ndarray, floor: np.ndarray) -> tuple[np.ndarray, ...]:
    """(m, coeff * S_GJ(m), S_G(m)) of each cut block (``_positive_tails``),
    (hi, 0, 0) of the others.  m, the last M of its window, is at least
    max(1, _NEAR - y), past G's peak M = 0 and J's near range, solved in
    closed form so that coeff * S_GJ(m) is at most ``floor``; a block is
    uncut where that m is not below hi, where y <= 0, or where a check of
    the whole bound at m fails.

    For y > 0 the main part of coeff S_GJ, its g j_far/(5/2 + 2 theta) part
    with a4 = 0, is K floor/(m^(5/2) (m + y) (9m/2 + 5y/2)), K = coeff 5t
    a2/floor.  Its denominator is at least each of 9/2 m^(9/2),
    5/2 m^(5/2) y^2 and 13.7 m^(7/2) y (13.7 < 7 + 2 sqrt(11.25)), so at the
    least m that makes one of them K the main part is at most the floor.
    That m is below 1.17 times the m at which the main part is the floor."""
    coeff = math.sinh(pi * t) / (4.0 * math.sqrt(k))
    yf = y.astype(float)
    # a floor that underflowed to 0 makes K and the roots inf, and a y <= 0
    # makes a root NaN; both leave the block uncut
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = coeff * 5.0 * t * _j_far_coeffs(t)[0] / floor
        m = np.minimum.reduce([(K / 4.5) ** (2 / 9), (K / (2.5 * yf * yf)) ** 0.4, (K / (13.7 * yf)) ** (2 / 7)])
    # raised to the near range and M = 1, then clipped to hi
    m = np.minimum(np.maximum(np.where(yf > 0, m, np.inf), np.maximum(1, _NEAR - y)), hi)
    m = np.ceil(m).astype(np.int64)
    bound, g_tail = np.zeros(y.size), np.zeros(y.size)
    i = np.flatnonzero(m < hi)
    s_gj, s_g = _positive_tails(k, t, m[i].astype(float), yf[i])
    s_gj *= coeff
    held = s_gj <= floor[i]
    m[i[~held]] = hi[i[~held]]
    bound[i[held]], g_tail[i[held]] = s_gj[held], s_g[held]
    return m, bound, g_tail


class Windows(NamedTuple):
    """The window lo <= M <= hi of each block's G-series, y its argument and
    hi the engine's closed-form cut (``_positive_cuts``) with the bounds of
    what it drops, coeff * sum_{M > hi} |G(M) J(M + y)| and sum_{M > hi} |G(M)|
    (0 where uncut), and the closed parts of each block, from ``_cut_windows``."""

    y: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    bound: np.ndarray
    g_tail: np.ndarray
    head: np.ndarray
    exp_part: np.ndarray

    @property
    def extent(self) -> tuple[int, int, int]:
        """(lo, hi, q_len) of the grids that hold exactly these windows."""
        y, lo, hi = self.y, self.lo, self.hi
        return int(lo.min()), int(hi.max()), int(np.maximum(-lo - y, hi + y).max())


def _cut_windows(k: int, t: float, y, lo, hi) -> Windows:
    """The windows of the blocks at arguments y, from lo to at most hi (one
    each): each upper end is cut below hi where the bounded rest is below
    one rounding of the block's head and exp-series, u (|head| + |exp-series|)."""
    y, lo, hi = (np.asarray(a, dtype=np.int64) for a in (y, lo, hi))
    head, exp_part = _closed_heads(y, k, t)
    return Windows(y, lo, *_positive_cuts(k, t, y, hi, _EPS / 2.0 * (np.abs(head) + np.abs(exp_part))), head, exp_part)


class BlockTables:
    """Jump-kernel and integral grids for one (k, t): the one block engine
    every analytic driver evaluates its blocks through.

    A fixed contraction plan: g[M - lo] = G(M), M = lo..hi, and
    Js[Q + q] = (-1)^q J(|q|), q = -Q..Q, Q = q_len, are set up once and
    serve every block; ``weighted_blocks`` sizes them to its windows,
    ``BlockTables(k, t, *w.extent).evaluate(w)``.  They are read-only
    views of the held plan (``_HELD``, the last g and Js built, one array
    each, no guard mask) where it has this (k, t) and covers lo..hi and
    -Q..Q.  Otherwise the held plan is dropped, and exactly these two
    tables are built, bit for bit the same, and become the held plan.

    The block at argument y sums G(M) Js(M + y) over its window
    lo <= M <= hi from ``_cut_windows``, which must lie inside the grids
    and hold the near range around J's peak, |M + y| <= _NEAR; ``_gparts``
    refuses any other.  Each tile of g is read once and serves every block.
    """

    def __init__(self, k: int, t: float, lo: int, hi: int, q_len: int):
        check_analytic_t(t)
        self.k, self.t = k, t = int(k), float(t)
        self.lo, self.hi, self.Q = lo, hi, Q = int(lo), int(hi), int(q_len)
        plan = _HELD.get((k, t))
        if plan is None or lo < plan[0] or hi > plan[1] or Q > plan[2]:
            del plan  # drop the held plan before the build: two plans are never resident at once
            _HELD.clear()
            g, Js = _g_grid(lo, hi, t, k), _two_sided_j(Q, t)
            g.flags.writeable = Js.flags.writeable = False
            plan = _HELD[k, t] = (lo, hi, Q, g, Js)
        a, _, P, g, Js = plan
        self.g, self.Js = g[lo - a : hi - a + 1], Js[P - Q : P + Q + 1]
        self.coeff = math.sinh(pi * t) / (4.0 * math.sqrt(k))

    def gpart(self, y: int, lo: int, hi: int) -> float:
        """The G-series of the block at argument y over lo <= M <= hi."""
        return float(self._gparts(np.array([y]), np.array([lo]), np.array([hi]))[0])

    def _gparts(self, y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # each block first sums its near products, |M + y| <= _NEAR, with
        # one rounding (math.fsum): they carry most of its sum |terms|, and
        # a dot rounds them worse.  The rest of the window follows tile by
        # tile, one dot on either side of the near range, so the g tile and
        # the Js range it meets stay in cache for every block.  The tiles
        # [jT - T/2, jT + T/2) of M are the same in every call, so a block's
        # bits depend on its (k, t, y, lo, hi) alone.  Js carries the (-1)^(M+y)
        g0, Q, g, Js = self.lo, self.Q, self.g, self.Js
        ys, los, his = y.tolist(), lo.tolist(), hi.tolist()
        for yi, a, b in zip(ys, los, his):
            if a < g0 or b > self.hi or a + yi < -Q or b + yi > Q:
                raise ValueError(f"window {a} <= M <= {b} at y = {yi} leaves the grids {g0}..{self.hi}, |q| <= {Q}")
            if a > -yi - _NEAR or b < _NEAR - yi:
                raise ValueError(f"window {a} <= M <= {b} misses the near range of y = {yi}")
        near = g[(-g0 - y)[:, None] + _NEAR_RANGE] * Js[Q - _NEAR : Q + _NEAR + 1]
        acc = [math.fsum(row) for row in near.tolist()]
        for start in range((min(los) + _TILE // 2) // _TILE * _TILE - _TILE // 2, max(his) + 1, _TILE):
            end = start + _TILE
            for i, (yi, a, b) in enumerate(zip(ys, los, his)):
                for u, v in (a, -yi - _NEAR), (-yi + _NEAR + 1, b + 1):
                    u, v = max(start, u), min(end, v)
                    if u < v:
                        acc[i] += np.dot(g[u - g0 : v - g0], Js[Q + yi + u : Q + yi + v])
        return self.coeff * np.array(acc)

    def evaluate(self, w: Windows) -> np.ndarray:
        """The value of each block of ``w``: its closed head U(y) + exp-series +
        G-part, contracted by ``_gparts`` over the window lo <= M <= hi."""
        return w.head + w.exp_part + self._gparts(w.y, w.lo, w.hi)

    def rounding_scale(self, w: Windows) -> np.ndarray:
        """|head| + |exp-series| + coeff * (||g window||_1 + g_tail) * J(0) of each
        block of ``w``, the window's norm plus the cut rest's bound: it bounds every
        term the block sums, so eps * scale bounds its rounding.  It takes a prefix
        sum of |g| over the union of the windows, and only sigma's tail reads it."""
        a, b = int(w.lo.min()), int(w.hi.max())
        cum = np.zeros(b - a + 2)  # one array: at sigma(600) a window takes 3 MB
        np.cumsum(np.abs(self.g[a - self.lo : b - self.lo + 1], out=cum[1:]), out=cum[1:])
        g_norm = cum[w.hi - a + 1] - cum[w.lo - a] + w.g_tail
        return np.abs(w.head) + np.abs(w.exp_part) + self.coeff * g_norm * self.Js[self.Q]


def _default_r_len(N: int, c, t: float):
    return abs(c) + abs(N) + max(1500, int(900 / t))


def weighted_blocks(N: int, k: int, t: float, weights, shifts, r_lens, tail) -> Evaluation:
    """sum_i w_i block(N + c_i) and its estimate, the one weighted sum of blocks.

    It alone turns a driver's (N, c, r_len) into the engine's (y, lo, hi):
    y = N + c, lo = -r_len - N and hi at most r_len - N.  r_lens are one for
    all or one per shift (None: ``_default_r_len``, below 2^61 + 900/T_MIN).  An N, c
    or r_len past 2^60, 2^60 or 2^62, where y, lo, hi or q_len could wrap int64, is refused.
    tail(tables, w, r_len) is the driver's model of each block's truncation
    and rounding per unit weight.  The value is math.fsum of the w_i
    block_i, the estimate math.fsum of the |w_i| (tail_i + bound_i), bound_i
    that of the cut tail: neither depends on the order of the pairs.
    guards_engaged is G's guard anywhere in the windows, by the oracles' rule:
    the guarded entries of any grid are a suffix M >= M*(k, t) > 0, so it is
    ``kernel_g``'s flag at the top M of the windows, the grid's hi.
    """
    # before any window or table is sized from k, t, N and the shifts
    if not k >= 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    check_analytic_t(t)
    c = np.asarray(shifts)
    if not c.size:
        return Evaluation(0.0, 0.0, {"blocks": 0})
    if max(abs(N), abs(int(c.min())), int(c.max())) > _COORD_MAX or (r_lens is not None and np.asarray(r_lens).max() > 2**62):
        raise ValueError(f"|N| and every |shift| must be at most 2^60 and r_len at most 2^62 in int64, got N = {N}")
    c = c.astype(np.int64, copy=False)
    r_len = np.empty_like(c)
    r_len[:] = _default_r_len(N, c, t) if r_lens is None else r_lens
    w = _cut_windows(k, t, N + c, -r_len - N, r_len - N)
    tables = BlockTables(k, t, *w.extent)
    return Evaluation(
        math.fsum(map(operator.mul, weights, tables.evaluate(w).tolist())),
        math.fsum(map(operator.mul, map(abs, weights), (tail(tables, w, r_len) + w.bound).tolist())),
        {"blocks": c.size, "r_terms": -tables.lo - N},
        kernel_g(tables.hi, t, k).overflow_guarded,
    )


def block_value(tables: BlockTables, y: int, lo: int, hi: int) -> float:
    """The block at argument y over ``tables``, its window lo <= M <= hi cut
    by the engine: q_k(y)/y^2 for y >= 1, and 0 for y <= 0."""
    return float(tables.evaluate(_cut_windows(tables.k, tables.t, [y], [lo], [hi]))[0])


def q_analytic(k: int, N: int, t: float = 1.0) -> Evaluation:
    """Convergent-series value of q_k(N)/N^2 for N >= 1: the coefficient
    inversion of ``indicator_series_evaluator(k)`` at N."""
    if N < 1:
        raise ValueError(f"N must be a natural number, got {N}")
    return invert_series(indicator_series_evaluator(k), N, t)


def zero_identity_residual(k: int, N: int, t: float = 1.0) -> float:
    """|series representation at a nonpositive argument|, which the
    vanishing identity says is 0: q's inversion at N.  Requires N <= 0."""
    if N > 0:
        raise ValueError(f"N must be <= 0, got {N}")
    return abs(invert_series(indicator_series_evaluator(k), N, t).value)


def q_shifted_analytic(k: int, N: int, c: int, t: float = 1.0) -> Evaluation:
    """Fully expanded shifted representation at base N and shift c.

    All integrals are expanded: the closed head U(N+c), the three
    exponential r-series, the sech-weighted bilateral G sums, and the
    one-signed double G sums.  Returns ~q_k(N+c)/(N+c)^2 when N+c >= 1
    and ~0 when N+c <= 0 (the vanishing branch).

    The bilateral sums run over r = -r_len..r_len of ``_g_grid``: the
    negative side G(-r-N) w(r-c) is the r -> -r image of G(r-N) w(r+c),
    since both weights w are even.  The sech sum is ``_sech_parts`` at the
    centre -c.  The estimate adds the sinh(pi t)-amplified rounding of both
    sums: eps sum |terms| times the dot's length or ceil(log2 n) + 1.
    """
    if k < 1 or N < 1:
        raise ValueError(f"k and N must be positive integers, got k = {k}, N = {N}")
    if max(abs(N), abs(c)) > _COORD_MAX:
        raise ValueError(f"|N| and |c| must be at most 2^60 in int64, got N = {N}, c = {c}")
    check_analytic_t(t)
    heads, exp_part = _closed_heads(np.array([N + c]), k, t)
    head = float(heads[0] + exp_part[0])
    W = _sech_half_width(t)
    r_len = abs(c) + max(N + max(1200, int(700 / t)), W)
    g = _g_grid(-r_len - N, r_len - N, t, k)
    r = np.arange(-r_len, r_len + 1)
    p_terms = g * p_values(r + c, t)
    sh = math.sinh(pi * t)
    sech_coeff = sh / (8.0 * math.sqrt(k) * t)
    p_coeff = t * sh / (2.0 * math.sqrt(k) * pi)
    sech, sech_abs = (sech_coeff * s[0] for s in _sech_parts(g, r_len, [-c], t))
    gpart = sech - p_coeff * float(np.sum(p_terms))
    p_abs = p_coeff * float(np.sum(np.abs(p_terms)))
    est = 1e-12 + (abs(head) + abs(gpart)) * 1e-14 + 3.0 / r_len**2.5
    # n = r.size is odd, so ceil(log2 n) = n.bit_length()
    est += _EPS * ((2 * W + 1) * sech_abs + (r.size.bit_length() + 1) * p_abs)
    return Evaluation(head + gpart, est, {"r_terms": r_len}, kernel_g(r_len - N, t, k).overflow_guarded)


def power_series_evaluator(k: int, s: int) -> SeriesEvaluator:
    """Direct-summation evaluator of F(z) = sum_m 1/(k^2 m^(4s) (k m^(2s) + z)),
    the generating series of q_{k,s}(n)/n^2.

    ``evaluate(x, t)`` returns Im F(x + it) over a 1-D array of real points
    x.  A point keeps the terms m <= M, with M past the resonance,
    k M^(2s) >= 2|x|, and M^(8s) >= 4e18 ((k+|x|)^2 + t^2)/k^2.  Past the
    resonance |k m^(2s) + z| >= k m^(2s)/2, so each omitted term of Im F is
    below 1e-18 of the m = 1 term, whose sign all terms of Im F share.  One
    pass per term, m = max M down to 1, adds it to the points that keep it,
    so each point sums its own terms from its smallest, m = M, down, and its
    value depends on (k, s, t, x) alone, not on the batch, its order or its
    blocking.
    Points go in blocks of TABLE_CHUNK, so the temporaries stay at 64 KiB.
    The mask sits only on the passes above the block's smallest M: every
    point keeps the terms up to it, which a plain add sums with the bits
    that an all-true mask gives.
    """
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive integers")

    def evaluate(x: np.ndarray, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y2, ax = t * t, np.abs(x)
        resonance = (2.0 * ax / k) ** (1.0 / (2 * s))
        cut = np.ceil(np.maximum(resonance, (4e18 * ((k + ax) ** 2 + y2) / (k * k)) ** (1.0 / (8 * s))))
        out = np.zeros(x.size)
        for lo in range(0, x.size, TABLE_CHUNK):
            xb, cb, acc = (a[lo : lo + TABLE_CHUNK] for a in (x, cut, out))
            u, keep = np.empty(xb.size), np.empty(xb.size, dtype=bool)
            every = int(cb.min())
            for m in range(int(cb.max()), 0, -1):
                np.add(xb, float(k * m ** (2 * s)), out=u)
                np.multiply(u, u, out=u)
                np.add(u, y2, out=u)
                np.divide(1.0 / (k * k * m ** (4 * s)), u, out=u)
                if m <= every:
                    np.add(acc, u, out=acc)
                else:
                    np.greater_equal(cb, m, out=keep)
                    np.add(acc, u, out=acc, where=keep)
        out *= -t
        return out

    def coefficient(n: int) -> float:
        return q_bruteforce(k, s, n) / (n * n) if n >= 1 else 0.0

    return SeriesEvaluator(evaluate, f"power k={k} s={s}", _power_poles(k, s), coefficient)


def q_general_analytic(k: int, s: int, N: int, t: float = 1.0) -> Evaluation:
    """Series value of q_{k,s}(N)/N^2 for N >= 1, s >= 1: the inversion of
    ``power_series_evaluator(k, s)`` at N.  At s = 1 it and ``q_analytic``
    run one shared inversion, so there it checks the closed-form evaluator
    against direct summation; ``q_shifted_analytic`` is q's independent oracle."""
    if N < 1 or s < 1 or k < 1:
        raise ValueError("need N >= 1, s >= 1, k >= 1")
    return invert_series(power_series_evaluator(k, s), N, t)

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsum import dsums, indicators, sigma_rh
from arithsum.cli import _SIGMA_BOUND
from arithsum.indicators import (
    BlockTables,
    _closed_heads,
    _cut_windows,
    block_value,
    integer_root,
    q_analytic,
    q_bruteforce,
    q_general_analytic,
    q_shifted_analytic,
    power_series_evaluator,
    zero_identity_residual,
)
from arithsum.integrals import _p_weights, integral_i, integral_j, integral_k, sech, sech_values
from arithsum.kernels import g_values, kernel_g
from arithsum.series import verdict
from arithsum.sigma_rh import sigma_analytic

# the quarter rule: a classification stands only within a quarter of its bit
QUARTER = _SIGMA_BOUND


def test_integer_root():
    assert integer_root(0, 3) == 0
    assert integer_root(1, 7) == 1
    assert integer_root(63, 2) == 7
    assert integer_root(64, 2) == 8
    assert integer_root(2**40, 4) == 2**10
    assert integer_root(2**40 - 1, 4) == 2**10 - 1
    with pytest.raises(ValueError):
        integer_root(-1, 2)


def test_q_bruteforce_examples():
    assert q_bruteforce(1, 1, 4) == 1
    assert q_bruteforce(2, 1, 8) == 1
    assert q_bruteforce(3, 2, 5) == 0
    assert q_bruteforce(1, 1, 0) == 0
    assert q_bruteforce(1, 1, -9) == 0
    assert q_bruteforce(1, 2, 16) == 1
    assert q_bruteforce(1, 2, 4) == 0


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=300, deadline=None)
def test_q_bruteforce_roundtrip(k, s, m):
    assert q_bruteforce(k, s, k * m ** (2 * s)) == 1


def test_q_analytic_examples():
    assert q_analytic(1, 1, 1.0).value == pytest.approx(1.0, abs=1e-6)
    assert abs(4 * q_analytic(1, 2, 1.0).value) < 1e-4
    assert q_analytic(2, 8, 1.0).value == pytest.approx(1.0 / 64.0, abs=1e-8)


@pytest.mark.parametrize("k, N, bit", [(1, 49, 1), (1, 50, 0), (5, 45, 1)])
def test_q_analytic_classifies_under_the_quarter_rule(k, N, bit):
    # N^2 q_k(N)/N^2 passes against its bit alone, with a residual below 1e-3
    value = N * N * q_analytic(k, N, 1.0).value
    diff, failed = verdict(value, bit, QUARTER, integer=True)
    assert not failed and diff < 1e-3
    assert verdict(value, 1 - bit, QUARTER, integer=True)[1]


def test_the_quarter_rule_refuses_ambiguous_values():
    for value in (0.5, 0.31):
        assert verdict(value, 0.0, QUARTER, integer=True)[1]
        assert verdict(value, 1.0, QUARTER, integer=True)[1]
    assert verdict(0.01, 0.0, QUARTER, integer=True) == (pytest.approx(0.01), False)
    assert verdict(1.2, 1.0, QUARTER, integer=True) == (pytest.approx(0.2), False)


def test_indicator_matches_definition_grid():
    for k in (1, 2, 3, 5):
        for N in range(1, 61):
            diff, failed = verdict(N * N * q_analytic(k, N, 1.0).value, q_bruteforce(k, 1, N), QUARTER, integer=True)
            assert not failed, (k, N)
            assert diff < 1e-4, (k, N)


def test_zero_identity_examples():
    assert zero_identity_residual(1, 0, 1.0) < 1e-6
    assert zero_identity_residual(2, -1, 1.0) < 1e-6
    assert zero_identity_residual(1, -10, 2.0) < 1e-6
    with pytest.raises(ValueError):
        zero_identity_residual(1, 3, 1.0)


def _mu(y, k, t):
    """The parity head mu(y) of the organization that keeps the exponential
    content inside the I and K integrals."""
    cth = 1.0 / math.tanh(math.pi * t)
    if y == 0:
        sh = math.sinh(math.pi * t)
        return (
            math.pi**4 / (90.0 * k * k)
            + math.pi**2 / 12.0
            + math.pi**2 / 4.0
            + math.pi**2 / (2.0 * sh * sh)
            - math.pi**2 * cth / 4.0
        )
    gate = 2.0 if y % 2 else 0.0  # 1 + (-1)^(y-1)
    return (
        -math.pi**2 / (6.0 * k * y)
        + gate * (math.pi**2 * cth / (6.0 * k * y) - cth / (2.0 * y * y))
        + 0.5 / (y * y)
    )


def test_integral_organization_matches_closed_heads():
    # the paper's organization of the N-dependent part of a block,
    # mu(N) + (-1)^N pi^3 coth/(3k) I(N) + (-1)^N pi^2 coth K(N), against
    # the closed head and exponential r-series that every driver uses
    ys = np.arange(-20, 101)
    for k in (1, 2, 3):
        for t in (0.1, 1.0, 3.0, 8.0):
            cth = 1.0 / math.tanh(math.pi * t)
            heads, exps = _closed_heads(ys, k, t)
            for y, head, exp_part in zip(ys.tolist(), heads, exps):
                sy = -1.0 if y % 2 else 1.0
                face = (
                    _mu(y, k, t)
                    + sy * math.pi**3 * cth / (3.0 * k) * integral_i(y, t).value
                    + sy * math.pi**2 * cth * integral_k(y, t).value
                )
                assert abs(head + exp_part - face) <= 1e-11 * max(1.0, abs(face)), (k, t, y)


def _scalar_head_and_exp(y, k, t):
    """U(y) and the three exponential r-series, term by term in scalars."""
    cth = 1.0 / math.tanh(math.pi * t)
    if y == 0:
        head = _mu(0, k, t) + math.pi**2 * cth / (48.0 * t * t)
    else:
        x = math.pi * y / (2.0 * t)
        sgn = -1.0 if y % 2 else 1.0
        head = (
            math.pi**2 / (3.0 * k * y * math.expm1(2.0 * math.pi * t))
            + (1.0 - cth) / (2.0 * y * y)
            - sgn * math.pi**3 * cth / (12.0 * k * t) / math.sinh(x)
            + sgn * math.pi**2 * cth / (8.0 * t * t) * math.cosh(x) / math.sinh(x) ** 2
        )
    exp_part = 0.0
    for r in range(1, 40):
        w = (-1) ** (r - 1) * math.exp(-2.0 * math.pi * t * r)
        d = 4.0 * t * t * r * r + y * y
        exp_part += w * (
            -y * math.pi**2 * cth / (3.0 * k * d)
            - 2.0 * math.pi * t * cth * r / d
            - cth * (4.0 * t * t * r * r - y * y) / (d * d)
        )
    return head, exp_part


@pytest.mark.parametrize("k,t", [(1, 0.7), (2, 1.0), (3, 1.6)])
def test_closed_heads_match_scalar_terms(k, t):
    ys = [-9, -2, -1, 0, 1, 2, 5, 12, 40]
    heads, exps = _closed_heads(np.array(ys), k, t)
    for y, head, exp_part in zip(ys, heads, exps):
        want_head, want_exp = _scalar_head_and_exp(y, k, t)
        assert head == pytest.approx(want_head, rel=1e-13, abs=1e-300)
        assert exp_part == pytest.approx(want_exp, rel=1e-13, abs=1e-18)


def test_q_shifted_examples():
    ev = q_shifted_analytic(1, 10, 6, 1.0)
    assert ev.value == pytest.approx(1.0 / 256.0, abs=1e-8)
    ev = q_shifted_analytic(1, 10, -10, 1.0)
    assert abs(ev.value) < 1e-6
    ev = q_shifted_analytic(1, 10, 7, 1.0)
    assert abs(ev.value) < 1e-6


@pytest.mark.parametrize("k,N,c,t", [(1, 10, 6, 1.0), (2, 5, -3, 0.7), (3, 25, 11, 2.0)])
def test_q_shifted_matches_scalar_loop(k, N, c, t):
    # the per-r loop over the scalar kernels that the one-pass form
    # replaced, kept as the reference; only the summation order differs
    ev = q_shifted_analytic(k, N, c, t)
    n, w = _p_weights(t)
    p_series = lambda q: float(np.sum(w / (t * t * n * n + q * q)))
    g0 = kernel_g(-N, t, k).value
    sech_block = g0 * sech(math.pi * c / (2.0 * t))
    p_block = g0 * p_series(c)
    for r in range(1, ev.terms_used["r_terms"] + 1):
        gp, gn = kernel_g(r - N, t, k).value, kernel_g(-r - N, t, k).value
        sech_block += (-1) ** r * (
            gp * sech(math.pi * (r + c) / (2.0 * t)) + gn * sech(math.pi * (r - c) / (2.0 * t))
        )
        p_block += gp * p_series(r + c) + gn * p_series(r - c)
    sh = math.sinh(math.pi * t)
    head, exp_part = _closed_heads(np.array([N + c]), k, t)
    want = float(head[0] + exp_part[0]) + (-1) ** c * sh / (8.0 * math.sqrt(k) * t) * sech_block
    want -= t * sh / (2.0 * math.sqrt(k) * math.pi) * p_block
    assert ev.value == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("c", [-13, -5, -4, 0, 3, 6])
def test_q_shifted_consistency_with_direct(c):
    # shifted evaluation at (N, c) against the direct evaluation at N + c:
    # two independent expansions of the same quantity
    N, k = 10, 2
    ev = q_shifted_analytic(k, N, c, 1.0)
    y = N + c
    if y >= 1:
        direct = q_analytic(k, y, 1.0)
        tol = ev.error_estimate + direct.error_estimate
        assert abs(ev.value - direct.value) < tol
    else:
        assert abs(ev.value) < 1e-6


@pytest.mark.parametrize("t", [8.0, 10.0, 16.0, 20.0])
def test_q_shifted_within_estimate_at_large_t(t):
    # sinh(pi t) amplifies the rounding of the sech and P sums to ~1e7 at
    # t = 20; the estimate must cover it
    for k in (1, 2):
        for N in (1, 5, 10, 25):
            for c in (-13, -1, 0, 3, 11):
                y = N + c
                want = q_bruteforce(k, 1, y) / (y * y) if y >= 1 else 0.0
                ev = q_shifted_analytic(k, N, c, t)
                assert abs(ev.value - want) <= ev.error_estimate, (k, N, c)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gpart_is_the_two_sided_series(k):
    # the bilateral G-series summed term by term from the scalar kernel and
    # the closed-form J, against gpart
    # over the window M = r - N, |r| <= r_len, of each shift c at base N
    N, t, r_len = 9, 1.0, 80
    tables = BlockTables(k, t, -r_len - N, r_len - N, r_len + 40)
    coeff = math.sinh(math.pi * t) / (4.0 * math.sqrt(k))
    for c in (0, 5, -7, 33, -40):
        want = coeff * (-1) ** c * math.fsum(
            (-1) ** r * kernel_g(r - N, t, k).value * integral_j(abs(r + c), t).value
            for r in range(-r_len, r_len + 1)
        )
        assert tables.gpart(N + c, -r_len - N, r_len - N) == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("k,t", [(1, 1.0), (2, 0.5)])
def test_tiled_gparts_match_fsum(k, t):
    # windows |M| <= L over 3-5 tiles (ending mid-tile or on a tile's last
    # index) and one shorter than a tile, at unsorted and negative arguments
    # y, in one contraction.  The tiles are [jT - T/2, jT + T/2) in M; the J
    # peak M = -y lies on a tile's first index for y = -T/2, on the index
    # before it for y = 1 - T/2, and next to the central tile's first index
    # for y = T/2 - 1.  The largest term carries 40-96% of sum |terms|, so
    # an off-by-one at a tile edge breaks the bound below
    T = indicators._TILE
    ys = [-T // 2, 400, -T // 2 + 1, -3000, -1, T // 2 - 1]
    r_lens = [110000, 3 * T // 2 - 1, 70000, 100000, T // 4, 140000]
    tables = BlockTables(k, t, -140000, 140000, 140000 + T // 2 - 1)
    g = tables._gparts(np.array(ys), -np.array(r_lens), np.array(r_lens))
    g0, Q, eps = tables.lo, tables.Q, np.finfo(float).eps
    for gi, y, L in zip(g, ys, r_lens):
        terms = tables.g[-L - g0 : L - g0 + 1] * tables.Js[Q + y - L : Q + y + L + 1]
        want = tables.coeff * math.fsum(terms)
        scale = tables.coeff * math.fsum(np.abs(terms))
        # a BLAS dot accumulates each lane in sequence, so its rounding
        # grows like sqrt(n) eps sum |terms| (0.13 sqrt(n) at most here,
        # 56 eps at n ~ 2e5 where the sum cancels to 1e-11 of sum |terms|)
        assert abs(gi - want) <= eps * math.sqrt(2 * L + 1) * scale, (y, L)
        assert gi == tables.gpart(y, -L, L)  # one window alone, same bits


@pytest.mark.parametrize("N,k,t", [(40, 2, 1.3), (97, 3, 9.5)])
def test_window_of_one_tile_is_near_sum_then_dots(N, k, t):
    # a window of at most one tile is the math.fsum of its products with
    # |M + y| <= _NEAR, then one dot on either side of that range, so the
    # blocks of the Diophantine sums have these bits.  The windows are
    # those of base N and shift c, M = r - N for |r| <= r_len, the one of
    # r_len T/2 - 1 starting at the central tile's first index, M = -T/2.
    # The near range fills the window of c = 0 (r_len 32) and ends on the
    # left edge of c = 7's and the right edge of c = -3's, whose dots on
    # that side are empty.  Adding the right dot before the left one
    # changes the bits of c = 1500 and c = 200 at both bases and of c = -40,
    # -2 and -120 at the second
    T, W = indicators._TILE, indicators._NEAR
    shifts = [7, -3, 0, -40, 1500, -2, -120, 200]
    r_lens = np.array([39, 35, 32, 2000, T // 2 - 1, 9000, 200, 260])
    ys, los, his = N + np.array(shifts), np.maximum(-r_lens - N, -T // 2), r_lens - N
    tables = BlockTables(k, t, -T // 2, T // 2 - 1 - N, T // 2 - 1 + 1500)
    g = tables._gparts(ys, los, his)
    g0, Q, grid, Js = tables.lo, tables.Q, tables.g, tables.Js
    for gi, y, lo, hi in zip(g, ys.tolist(), los.tolist(), his.tolist()):
        a, b = -y - W, -y + W + 1
        near = math.fsum(grid[a - g0 : b - g0] * Js[Q + y + a : Q + y + b])
        left = np.dot(grid[lo - g0 : a - g0], Js[Q + y + lo : Q + y + a])
        right = np.dot(grid[b - g0 : hi - g0 + 1], Js[Q + y + b : Q + y + hi + 1])
        want = tables.coeff * float(near + left + right)
        assert gi == want and tables.gpart(y, lo, hi) == want, (y, lo, hi)


def test_shift0_block_is_as_accurate_as_the_fold():
    # q_analytic's shift-0 block once summed its two sides folded,
    # (G(r - N) + G(-r - N)) (-1)^r J(r), in one pairwise sum; that contraction
    # is kept here as the reference.  At t in [7, 10] the engine, with its
    # near products summed by math.fsum, must be at least as accurate, as a
    # mean over the cases
    # of |G-part - fsum(products)| / sum |products|; one plain dot over
    # the window is about twice as far off as the fold
    rng = random.Random(2024)
    err_engine, err_fold = [], []
    for _ in range(200):
        k, N = rng.choice([1, 2, 3]), rng.randint(1, 100)
        t = math.exp(rng.uniform(math.log(7.0), math.log(10.0)))
        # the window M = r - N, |r| <= L; J's peak M = -N is g[L]
        L = indicators._default_r_len(N, 0, t)
        tables = BlockTables(k, t, -L - N, L - N, L)
        g, J, coeff = tables.g, tables.Js[tables.Q :], tables.coeff
        products = g * tables.Js
        want = coeff * math.fsum(products)
        scale = coeff * math.fsum(np.abs(products))
        folded = (g[L + 1 :] + g[:L][::-1]) * J[1 : L + 1]
        fold = coeff * float(g[L] * J[0]) + coeff * float(np.sum(folded))
        err_engine.append(abs(tables.gpart(N, -L - N, L - N) - want) / scale)
        err_fold.append(abs(fold - want) / scale)
    assert np.mean(err_engine) <= np.mean(err_fold), (np.mean(err_engine), np.mean(err_fold))


@pytest.mark.parametrize("k,N,t", [(1, 1, 1.0), (2, 8, 0.3), (3, 27, 8.5), (1, 97, 9.9)])
def test_q_analytic_is_the_engines_shift0_block(k, N, t):
    ev = q_analytic(k, N, t)
    r_len = ev.terms_used["r_terms"]
    lo, hi = -r_len - N, r_len - N  # |r| <= r_len, M = r - N
    assert ev.value == block_value(BlockTables(k, t, lo, hi, r_len), N, lo, hi)


@pytest.mark.parametrize("k,N,t", [(1, 9, 1.0), (2, 40, 0.3), (3, 27, 4.0), (1, 97, 9.9)])
def test_q_tail_pairs_its_edge_about_js_peak(monkeypatch, k, N, t):
    # q's tail model reads the 64 points at distance d - 63..d from J's peak
    # M = -N on either side, d = r_len, paired, G(d' - N) + G(-d' - N),
    # against J(d'); where the cut leaves the positive side off the grid,
    # its bound |G(M)| <= _g_bound(M) stands in.  Recomputed here from the
    # kernels, the estimate is that model plus the engine's bound
    seen = []
    real = BlockTables.evaluate

    def spy(self, w):
        seen.append(w)
        return real(self, w)

    monkeypatch.setattr(BlockTables, "evaluate", spy)
    ev = q_analytic(k, N, t)
    (w,) = seen
    head, exp_part, bound = w.head, w.exp_part, w.bound
    d = ev.terms_used["r_terms"]
    r = np.arange(d - 63, d + 1)
    neg = g_values(-r - N, t, k)
    if d - N <= w.hi[0]:
        edge = np.abs(g_values(r - N, t, k) + neg)
    else:
        edge = indicators._g_bound((r - N).astype(float), t, k) + np.abs(neg)
    coeff = math.sinh(math.pi * t) / (4.0 * math.sqrt(k))
    j = np.array([integral_j(int(q), t).value for q in r])
    face = head[0] + exp_part[0] + coeff * kernel_g(-N, t, k).value * integral_j(0, t).value
    tail = coeff * float(np.max(edge * np.abs(j))) * d / 2.5 + 1e-12 + abs(face) * 1e-15
    assert ev.error_estimate == pytest.approx(tail + bound[0], rel=1e-9, abs=0.0)


def test_closed_heads_do_not_overflow_near_the_top_of_t():
    # pytest turns a RuntimeWarning into an error; at t = 112.96 the
    # denominator 3 k y e^(2 pi t) of the head's first term is past DBL_MAX
    head, exp_part = _closed_heads(np.array([4]), 1, 112.96)
    assert np.isfinite(head).all() and np.isfinite(exp_part).all()


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_sech_parts_match_unwindowed_sum(t):
    # every window against the sum over the whole grid, with windows that
    # start on the grid's first index and end on its last; the second sum
    # is that of the |terms|
    N, k, R = 7, 2, 400
    W = indicators._sech_half_width(t)
    grid = indicators._g_grid(-R - N, R - N, t, k)
    r = np.arange(-R, R + 1)
    g = g_values(r - N, t, k)
    centres = [W - R, W - R + 1, -N, 0, 5, 33, R - W - 1, R - W]
    got, got_abs = indicators._sech_parts(grid, R, centres, t)
    for gi, ai, c in zip(got, got_abs, centres):
        terms = np.where((r - c) % 2, -g, g) * sech_values(math.pi * (r - c) / (2.0 * t))
        abs_sum = math.fsum(np.abs(terms))
        assert abs(gi - math.fsum(terms)) <= 1e-13 * abs_sum, c
        assert abs(ai - abs_sum) <= 1e-13 * abs_sum, c


def test_sech_parts_reject_windows_off_the_grid():
    # numpy would wrap a negative start silently
    t, R = 1.0, 100
    W = indicators._sech_half_width(t)
    g = indicators._g_grid(-R - 3, R - 3, t, 1)
    indicators._sech_parts(g, R, [W - R, R - W], t)
    for c in (W - R - 1, R - W + 1):
        with pytest.raises(ValueError):
            indicators._sech_parts(g, R, [0, c], t)


def _window(N, c, L):
    """(y, lo, hi) of the window |r| <= L of shift c at base N, M = r - N."""
    return N + c, -L - N, L - N


# each driver at small N, as (k, driver call); its blocks are those of its
# one weighted_blocks call
UNIT = dsums.unit_weight()
SHIFT_SETS = {
    "q": [(1, lambda t: q_analytic(1, 4, t)), (2, lambda t: q_analytic(2, 8, t))],
    "vanishing": [(1, lambda t: zero_identity_residual(1, 0, t)), (2, lambda t: zero_identity_residual(2, -3, t))],
    "finite": [(2, lambda t: dsums.weighted_finite_analytic(UNIT, 2, 6, t))],
    "infinite": [(1, lambda t: dsums.weighted_infinite_analytic(UNIT, 1, 5, t, a_horizon=4))],
    "squares": [(2, lambda t: dsums.sum_squares_analytic(UNIT, dsums.DiophantineInstance(10, 1, 2, "sum"), t))],
    "difference": [
        (1, lambda t: dsums.sum_diff_analytic(UNIT, dsums.DiophantineInstance(3, 1, 1, "difference"), t, 4))
    ],
    "divisor-pairs": [(1, lambda t: dsums.divisor_pair_sum_analytic(UNIT, 6, t))],
    "sigma": [(1, lambda t: sigma_analytic(6, t))],
}


def test_block_tables_match_shifted(monkeypatch):
    # one plan holds the default window of every shift, the largest at c = 16
    r_len = indicators._default_r_len(9, 16, 1.0)
    tables = BlockTables(1, 1.0, -r_len - 9, r_len - 9, r_len + 16)
    for c in (-11, -9, -2, 0, 5, 7, 16):
        y = 9 + c
        want = q_bruteforce(1, 1, y) / (y * y) if y >= 1 else 0.0
        assert abs(block_value(tables, *_window(9, c, indicators._default_r_len(9, c, 1.0))) - want) < 1e-9
    # every driver's blocks, each alone with its own window and estimate,
    # against the expanded oracle at its argument (at base 1 where the
    # driver's base is not natural), within the sum of both estimates
    calls = []
    real = indicators.weighted_blocks
    for module in (indicators, dsums, sigma_rh):
        monkeypatch.setattr(module, "weighted_blocks", lambda *a: calls.append(a) or real(*a))
    for t in (0.3, 1.0, 3.0):
        for name, cases in SHIFT_SETS.items():
            for k, driver in cases:
                del calls[:]
                driver(t)
                ((N, _, _, _, shifts, r_lens, tail),) = calls
                r_lens = np.broadcast_to(
                    indicators._default_r_len(N, np.asarray(shifts), t) if r_lens is None else r_lens, len(shifts)
                )
                assert len(shifts) > 0, name
                for c, L in zip(np.asarray(shifts).tolist(), r_lens.tolist()):
                    ev = real(N, k, t, [1.0], [c], L, tail)
                    base = N if N >= 1 else 1
                    oracle = q_shifted_analytic(k, base, N + c - base, t)
                    allowed = ev.error_estimate + oracle.error_estimate
                    assert abs(ev.value - oracle.value) <= allowed, (name, t, N, c)


def test_plan_refuses_windows_it_cannot_hold():
    # a window lo <= M <= hi at argument y must lie inside the grids and
    # hold the near range around J's peak M = -y (|M + y| <= _NEAR); numpy
    # would otherwise clip or wrap its slices.  The windows are those of
    # base 9 and shift c, |r| <= L with M = r - 9
    def cut(c, L):
        y, lo, hi = _window(9, c, L)
        return _cut_windows(1, 1.0, [9, y], [-41, lo], [23, hi])

    tables = BlockTables(1, 1.0, -109, 91, 150)
    tables.gpart(*_window(9, 50, 100))
    tables.evaluate(cut(-50, 100))
    for c, L in [(0, 101), (51, 100), (-51, 100)]:
        with pytest.raises(ValueError, match="leaves the grids"):
            tables.gpart(*_window(9, c, L))
        with pytest.raises(ValueError, match="leaves the grids"):
            tables.evaluate(cut(c, L))
    tables = BlockTables(1, 1.0, -109, 91, 200)
    for c, L in [(-120, 50), (0, 31), (69, 100)]:
        with pytest.raises(ValueError, match="near range"):
            tables.gpart(*_window(9, c, L))
        with pytest.raises(ValueError, match="near range"):
            tables.evaluate(cut(c, L))


def test_q_general_examples():
    assert q_general_analytic(1, 2, 16, 1.0).value == pytest.approx(1.0 / 256.0, abs=1e-7)
    assert q_general_analytic(2, 2, 32, 1.0).value == pytest.approx(1.0 / 1024.0, abs=1e-7)
    assert abs(q_general_analytic(1, 2, 8, 1.0).value) < 1e-7


def test_q_general_s1_agrees_with_direct():
    for N in range(1, 51):
        a = q_general_analytic(1, 1, N, 1.0)
        b = q_analytic(1, N, 1.0)
        assert abs(a.value - b.value) < a.error_estimate + b.error_estimate


def _q_general_loop(k, s, N, t):
    """The former scalar organization of q_general_analytic, kept as a
    reference: (value, its estimate 1e-9 + 20/r_len^2).  The r-series is
    summed with math.fsum, so its own rounding does not count against the
    vectorized path."""

    def h(z):
        # sum_n 1/(k^2 n^(4s) ((k n^(2s) + z)^2 + t^2))
        total = 0.0
        n = 0
        while True:
            n += 1
            kn = k * float(n) ** (2 * s)
            term = 1.0 / (k * k * float(n) ** (4 * s) * ((kn + z) ** 2 + t * t))
            total += term
            if kn > abs(z) + 1.0 and term < 1e-18 * max(total, 1e-300):
                return total

    r_len = N + max(2500, int(1200 / t))
    J = np.where(np.arange(r_len + 1) % 2, -1.0, 1.0) * indicators.j_values(r_len, t)  # J(r) = (-1)^r S(r)
    terms = [(-1.0) ** r * (h(r - N) + h(-r - N)) * J[r] for r in range(1, r_len + 1)]
    sh = math.sinh(math.pi * t)
    value = t * sh / math.pi * math.fsum(terms)
    value += 2.0 * h(-N) * sh * math.atan(math.tanh(math.pi * t / 2.0)) / math.pi**2
    return value, 1e-9 + 20.0 / r_len**2


@pytest.mark.parametrize("t", [0.3, 1.0, 3.0, 8.0])
def test_q_general_matches_loop_reference(t):
    for k in (1, 2, 3):
        for s in (2, 3):
            for N in (1, k * 2 ** (2 * s)):
                ev = q_general_analytic(k, s, N, t)
                want, est = _q_general_loop(k, s, N, t)
                assert abs(ev.value - want) <= 0.2 * est, (k, s, N)
                truth = q_bruteforce(k, s, N) / N**2
                assert abs(ev.value - truth) <= ev.error_estimate, (k, s, N)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_evaluator_matches_closed_form(k):
    # s = 1 is the square-indicator series; its closed form, evaluated at
    # 40 digits, is free of the cancellation the binary64 form has at small |z|
    x = np.concatenate((np.arange(-3000, 3001, 7), -k * np.arange(1, 32) ** 2, [0.5]))
    F = power_series_evaluator(k, 1)
    for t in (0.1, 1.0, 10.0):
        got = F.evaluate(x, t)
        with mpmath.workdps(40):
            pi, rk = mpmath.pi, mpmath.sqrt(k)
            for xi, gi in zip(x, got):
                z = mpmath.mpc(xi, t)
                w = mpmath.sqrt(z)
                closed = (
                    pi**4 / (90 * k * k * z)
                    - pi**2 / (6 * k * z * z)
                    - 0.5 / z**3
                    + pi * mpmath.coth(pi * w / rk) / (2 * rk * z * z * w)
                ).imag
                assert abs(gi - closed) <= 1e-13 * abs(closed), (xi, t)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_evaluator_depends_on_each_point_alone(k, s):
    # each point sums its own terms, so its bits do not depend on the batch
    # around it: its order, its neighbours or a far point beside it.  A
    # term past a point's own cut moves its sum in about one point of 2000
    # at s >= 2, so there the batch holds every integer of [-3000, 3000];
    # at s = 1, where such terms move far more sums, every 7th
    x = np.append(np.arange(-3000.0, 3001.0, 1 if s > 1 else 7), 0.5)
    perm = np.random.default_rng(k * 10 + s).permutation(x.size)
    F = power_series_evaluator(k, s)
    for t in (0.1, 1.0, 10.0):
        got = F.evaluate(x, t)
        assert np.array_equal(F.evaluate(x[perm], t), got[perm]), t
        assert np.array_equal(F.evaluate(np.append(x, 1e6), t)[:-1], got), t
        for i in range(0, x.size, 37):
            assert np.array_equal(F.evaluate(x[i : i + 1], t), got[i : i + 1]), (t, x[i])


def test_power_evaluator_of_no_points():
    got = power_series_evaluator(2, 2).evaluate(np.array([]), 1.0)
    assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_power_evaluator_matches_mpmath_sum(k, s):
    # Im F(x + it) = -t sum_m 1/(k^2 m^(4s) ((k m^(2s) + x)^2 + t^2)) at 30
    # digits, to a term past the resonance below 1e-25 of the partial sum;
    # the terms then fall as m^(-8s), so the rest is far below 1e-25.  The
    # points: every 37th x on [-3000, 3000], the resonances in it and 0.5
    resonances = [-k * m ** (2 * s) for m in range(1, 55) if k * m ** (2 * s) <= 3000]
    x = np.concatenate((np.arange(-3000, 3001, 37), resonances, [0.5])).astype(float)
    F = power_series_evaluator(k, s)
    for t in (0.1, 1.0, 10.0):
        got = F.evaluate(x, t)
        with mpmath.workdps(30):
            for xi, gi in zip(x, got):
                total, m = mpmath.mpf(0), 0
                while True:
                    m += 1
                    km = k * m ** (2 * s)
                    term = 1 / (k * k * m ** (4 * s) * ((km + mpmath.mpf(xi)) ** 2 + mpmath.mpf(t) ** 2))
                    total += term
                    if km >= 2 * abs(xi) and term < 1e-25 * total:
                        break
                want = -t * total
                assert abs(gi - want) <= 1e-15 * abs(want), (xi, t)


def test_q_general_does_not_use_the_block_engine(monkeypatch):
    # q_general_analytic is an oracle for q_analytic: it must evaluate with
    # the block engine unavailable
    def unavailable(*args, **kwargs):
        raise AssertionError("the block engine was called")

    monkeypatch.setattr(indicators, "BlockTables", unavailable)
    with pytest.raises(AssertionError):
        q_analytic(1, 16, 1.0)
    assert q_general_analytic(1, 2, 16, 1.0).value == pytest.approx(1.0 / 256.0, abs=1e-7)
    assert q_general_analytic(1, 1, 9, 1.0).value == pytest.approx(1.0 / 81.0, abs=1e-7)


def test_t_independence_spot():
    for N in (10, 25, 36):
        evs = [q_analytic(1, N, t) for t in (0.8, 1.0, 1.5)]
        spread = max(e.value for e in evs) - min(e.value for e in evs)
        assert spread < max(e.error_estimate for e in evs) * 2.0


def test_domain_errors():
    with pytest.raises(ValueError):
        q_analytic(1, 0, 1.0)
    with pytest.raises(ValueError):
        q_analytic(1, 5, -1.0)
    with pytest.raises(ValueError):
        q_bruteforce(0, 1, 5)
    with pytest.raises(ValueError):
        q_general_analytic(1, 0, 5, 1.0)


@pytest.mark.parametrize("k,N,c", [(0, 5, 3), (-1, 5, 3), (1, 5, 10**20), (1, 5, -(10**20)), (1, 2**60 + 1, 0)])
def test_q_shifted_refuses_bad_input_by_name(k, N, c):
    # k = 0 divided by zero in the closed heads before k was checked, and
    # c = 10^20 reached numpy's "Maximum allowed dimension exceeded"; each is
    # refused by name before any grid is sized
    name = f"k = {k}" if k < 1 else (f"N = {N}" if N > 2**60 else f"c = {c}")
    with pytest.raises(ValueError, match=name):
        q_shifted_analytic(k, N, c, 1.0)

"""The engine's asymmetric windows: each block's positive G-series stops at
the window's upper end hi in M, where a closed bound of what it drops is
below one rounding of the block's head and exp-series.  The bound must hold against the exact
dropped tail, every block may move by its bound alone, and no estimate
shrinks."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsum import dsums, indicators
from arithsum.dsums import (
    DiophantineInstance,
    alternating_weight,
    divisor_pair_sum_analytic,
    reciprocal_weight,
    sum_diff_analytic,
    sum_squares_analytic,
    unit_weight,
    weighted_finite_analytic,
    weighted_infinite_analytic,
)
from arithsum.indicators import BlockTables, _cut_windows, _default_r_len, weighted_blocks
from arithsum.integrals import j_values
from arithsum.kernels import g_values
from arithsum.sigma_rh import _sigma_r_len, sigma_analytic, sigma_bruteforce

U = 2.0**-53


def _sigma_set(N, t):
    return 4 * N, 1, t, np.arange(1, N, dtype=np.int64) ** 2, _sigma_r_len(N, t)


def _dsums_set(N, d, k, t):
    # the shifts of the five block drivers at base N: sum squares, the
    # finite and infinite weighted sums (horizon 400), the difference kind
    # (horizon 80); the divisor-pair sums are sigma's shifts at base 4N
    shifts = [-d * a * a for a in range(1, N) if d * a * a < N] + [-a for a in range(1, N)]
    shifts += list(range(1, 401)) + [d * a * a for a in range(1, 81)]
    return N, k, t, shifts, [_default_r_len(N, c, t) for c in shifts]


def _eval_q_set(N, k, t):
    # the engine's one block at shift 0, q_k(N)/N^2 (eval-q now inverts the series instead)
    return N, k, t, [0], _default_r_len(N, 0, t)


CASES = [pytest.param(_sigma_set(N, 1.0), id=f"sigma({N})") for N in (100, 300, 600)]
CASES += [
    pytest.param(_dsums_set(N, d, k, t), id=f"dsums(N={N},d={d},k={k},t={t})")
    for t in (0.1, 1.0, 3.0, 8.0)
    for k in (1, 2, 3)
    for N, d in ((50, 1), (97, 3))
]
CASES += [
    pytest.param(_eval_q_set(N, k, t), id=f"eval-q(N={N},k={k},t={t})")
    for t in (0.1, 1.0, 3.0, 8.0)
    for k in (1, 2, 3)
    for N in (1, 17, 97)
]


def _windows(N, k, t, shifts, r_lens):
    # a driver's windows |r| <= r_len at base N, in M = r - N, as
    # weighted_blocks sets them: (the cut windows, their caps r_len - N)
    c = np.asarray(shifts, dtype=np.int64)
    L = np.broadcast_to(r_lens, c.shape)
    return _cut_windows(k, t, N + c, -L - N, L - N), L - N


def _full_tables(w, cap, k, t):
    # grids that hold every window uncut
    return BlockTables(k, t, int(w.lo.min()), int(cap.max()), int(np.maximum(-w.lo - w.y, cap + w.y).max()))


def _smallest_cuts(k, t, w, cap, floor):
    # the exact smallest cut m* of each block, by bisection over the tail
    # bound: the least m >= max(1, _NEAR - y) with coeff S_GJ(m) <= floor,
    # or the cap where no m below it has it.  S_GJ falls with m, and each y > 0
    coeff = math.sinh(math.pi * t) / (4.0 * math.sqrt(k))
    y = w.y.astype(float)
    assert (y > 0).all()
    lo = np.maximum(1, indicators._NEAR - w.y)
    a, b = lo - 1, np.maximum(cap, lo)  # m <= a fails or is refused; m = b holds or is the cap
    while (b - a > 1).any():
        mid = np.where(b - a > 1, (a + b) // 2, b)
        held = coeff * indicators._positive_tails(k, t, mid.astype(float), y)[0] <= floor
        a, b = np.where(held | (b - a <= 1), a, mid), np.where(held, mid, b)
    return np.minimum(b, cap)


@pytest.mark.parametrize("case", CASES)
def test_dropped_tail_is_within_its_bound(case):
    N, k, t, shifts, r_lens = case
    w, cap = _windows(*case)
    tables = _full_tables(w, cap, k, t)
    head, exp_part, bound = w.head, w.exp_part, w.bound
    g, Js, g0, Q = np.abs(tables.g), np.abs(tables.Js), tables.lo, tables.Q
    best = _smallest_cuts(k, t, w, cap, U * (np.abs(head) + np.abs(exp_part)))
    for i in range(w.y.size):
        y, top, hi = int(w.y[i]), int(cap[i]), int(w.hi[i])
        # hi is past the smallest cut m*, by at most a fifth of m*
        if best[i] < top:
            assert best[i] <= hi and hi <= 1.2 * best[i], (y, top, hi, best[i])
        if hi == top:
            assert bound[i] == 0.0
            continue
        # the cut keeps the near range and the G peak M = 0
        assert hi >= max(1, indicators._NEAR - y)
        dropped = tables.coeff * float(np.dot(g[hi + 1 - g0 : top + 1 - g0], Js[Q + y + hi + 1 : Q + y + top + 1]))
        assert dropped <= bound[i] <= U * (abs(head[i]) + abs(exp_part[i])), (y, top, hi)
    # and the plan's products exceed those of the smallest cuts by at most 2%
    assert np.sum(w.hi - w.lo + 1) <= 1.02 * np.sum(best - w.lo + 1)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def test_every_cut_holds_its_bound(monkeypatch):
    # over wide draws, every cut below its cap hi = L - N is admissible and
    # bounds its tail.  A closed cut whose full bound (the a4, sech and eps parts too) is over
    # the floor leaves its shift uncut: the second call, whose check always
    # passes, finds those shifts, and some must occur.  They occur mostly
    # at a small m and a large k, where the eps part is large
    real = indicators._positive_tails
    unchecked = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        N=st.integers(-200, 5000),
        k=_log_uniform(1.0, 1e4).map(int),
        t=_log_uniform(0.1, 3.0),
        shifts=st.lists(
            st.tuples(  # (y = N + c, L, floor)
                st.one_of(st.integers(-100, 0), _log_uniform(1.0, 1e6).map(int)),
                _log_uniform(1.0, 2e6).map(int),
                st.one_of(st.just(0.0), _log_uniform(1e-30, 1.0)),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def check(N, k, t, shifts):
        y, L, floor = (np.array(v) for v in zip(*shifts))
        hi = L - N
        m, bound, g_tail = indicators._positive_cuts(k, t, y, hi, floor)
        with monkeypatch.context() as mp:
            mp.setattr(indicators, "_positive_tails", lambda k, t, m, y: (np.zeros_like(m), np.zeros_like(m)))
            closed = indicators._positive_cuts(k, t, y, hi, floor)[0]
        assert (m <= hi).all()
        cut = m < hi
        assert (m[cut] == closed[cut]).all()
        assert (m[cut] >= np.maximum(1, indicators._NEAR - y[cut])).all()
        coeff = math.sinh(math.pi * t) / (4.0 * math.sqrt(k))
        tails, g_tails = real(k, t, m[cut].astype(float), y[cut].astype(float))
        assert (coeff * tails <= floor[cut]).all()
        # each cut carries the bound it was decided by, and an uncut block none
        assert np.array_equal(bound[cut], coeff * tails) and np.array_equal(g_tail[cut], g_tails)
        assert not bound[~cut].any() and not g_tail[~cut].any()
        unchecked.append(int(np.sum((closed < hi) & ~cut)))

    check()
    assert sum(unchecked) > 0


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_a_cut_keeps_the_near_range_and_no_more(t):
    # with a floor so high that every root lies below 1, the cut is the
    # least upper end the window may have: past G's peak M = 0 and the
    # near range of J's peak M = -y, max(1, _NEAR - y); y <= 0 is uncut
    y = np.array([1, 10, 31, 32, 33, 100, 10**4, 0, -7])
    hi = np.full(y.size, 10**6)
    m = indicators._positive_cuts(1, t, y, hi, np.ones(y.size))[0]
    assert m.tolist() == np.where(y > 0, np.maximum(1, indicators._NEAR - y), hi).tolist()


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0, 8.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_g_bound_holds_past_the_peak(t, k):
    # the pointwise bound behind the tails, against the kernel itself:
    # |G(M)| <= 5t M^(-7/2) + 2 eps(M) M^(-5/2), eps(M) = 2/expm1(2 pi sqrt(M/k))
    M = np.unique(np.geomspace(1.0, 1e6, 400).round())
    bound = 5.0 * t * M**-3.5 + 4.0 * M**-2.5 / np.expm1(np.minimum(2.0 * math.pi * np.sqrt(M / k), 700.0))
    assert (np.abs(g_values(M, t, k)) <= bound).all()


@pytest.mark.parametrize("t", np.geomspace(1e-3, 20.0, 13).tolist() + [0.45, 0.55])
def test_j_bound_holds_on_the_table(t):
    # the bound behind the cuts, |S(q)| <= a2/q^2 + a4/q^4 + e^(-pi q/(2t))/t,
    # holds on every entry of the table the engine reads, whose far
    # entries come from J's moments, not from the weights a2 and a4 do
    q = np.arange(1, 10**4 + 1, dtype=float)
    a2, a4 = indicators._j_far_coeffs(t)
    bound = a2 / q**2 + a4 / q**4 + np.exp(-math.pi * q / (2.0 * t)) / t
    assert (np.abs(j_values(10**4, t)[1:]) <= bound).all()


@pytest.mark.parametrize("t", [20.0, 112.96])
def test_cuts_warn_nothing_at_large_t(t):
    # pytest turns a RuntimeWarning into an error; at large t the heads and
    # floors underflow, some to 0, and no cut may divide by them
    for N, d in ((5, 1), (97, 3)):
        w, cap = _windows(*_dsums_set(N, d, 2, t))
        assert (w.hi == cap).all()
        BlockTables(2, t, *w.extent).evaluate(w)
    assert math.isfinite(sigma_analytic(30, t).value)


def test_the_cuts_are_real():
    # the cases above would pass with no cut at all
    for N, t in ((300, 1.0), (600, 1.0), (50, 0.3)):
        w, cap = _windows(*_sigma_set(N, t))
        assert (w.hi < cap).all(), (N, t)
    w, cap = _windows(*_dsums_set(50, 1, 1, 0.1))
    assert (w.hi < cap).all()
    w, cap = _windows(*_eval_q_set(17, 2, 0.1))
    assert w.hi[0] + 17 < (cap[0] + 17) // 4  # r = M + N: P < L/4
    # at t >= 3 the heads are exponentially small in y, and nothing is cut
    for k in (1, 2, 3):
        w, cap = _windows(*_dsums_set(97, 3, k, 3.0))
        assert (w.hi == cap).all()


@pytest.mark.parametrize("case", CASES)
def test_each_block_moves_by_at_most_its_bound(case):
    # against the same tables contracted over the uncut windows.  Beyond
    # the bound, a block may differ by the roundings of the sums that
    # take the dropped dots (one per dropped tile), of coeff * acc and
    # of head + exp-series + G-part: each at most u |head| + |exp| + |G|
    N, k, t, shifts, r_lens = case
    w, cap = _windows(*case)
    tables = _full_tables(w, cap, k, t)
    value, scale = tables.evaluate(w), tables.rounding_scale(w)
    head, exp_part, bound = w.head, w.exp_part, w.bound
    none = np.zeros(w.y.size)
    full = w._replace(hi=cap, bound=none, g_tail=none)
    full_value, full_scale = tables.evaluate(full), tables.rounding_scale(full)
    uncut = w.hi == cap
    assert not w.bound[uncut].any() and not w.g_tail[uncut].any()
    assert np.array_equal(value[uncut], full_value[uncut])  # the same bits
    assert np.array_equal(scale[uncut], full_scale[uncut])
    assert (scale >= full_scale).all()
    tiles = (cap - w.hi) // indicators._TILE + 2
    g = np.abs(full_value - head - exp_part)
    allowance = bound + (tiles + 3) * U * (np.abs(head) + np.abs(exp_part) + g)
    assert (np.abs(value - full_value) <= allowance).all()


@pytest.fixture
def uncut(monkeypatch):
    """Turns the cut off: every window ends at its cap, r_len - N."""

    def evaluate(*args):
        def no_cuts(k, t, y, hi, floor):
            return hi.copy(), np.zeros(hi.size), np.zeros(hi.size)

        with monkeypatch.context() as m:
            m.setattr(indicators, "_positive_cuts", no_cuts)
            return args[0](*args[1:])

    return evaluate


def _one_block(k, N, t):
    """The engine's one block at shift 0, q_k(N)/N^2, as a dsums driver weighs it."""
    return weighted_blocks(N, k, t, [1.0], [0], None, dsums._block_tail)


def _driver_points():
    # sigma for N <= 200, the one-block call and the Diophantine, divisor-pair and weighted
    # sums, at t in {0.3, 1, 2.5}
    g = [unit_weight(), alternating_weight(), reciprocal_weight()]
    for t in (0.3, 1.0, 2.5):
        for N in (2, 7, 36, 97, 150, 200):
            yield sigma_analytic, N, t
        for N in (1, 9, 50, 100):
            yield _one_block, 2, N, t
        for i, N in enumerate((25, 50, 97)):
            yield sum_squares_analytic, g[i], DiophantineInstance(N, 1 + i, 1, "sum"), t
            yield sum_diff_analytic, g[i], DiophantineInstance(N, 2, 1 + i, "difference"), t
            yield divisor_pair_sum_analytic, g[i], N, t
            yield weighted_finite_analytic, g[i], 1 + i, N, t
            yield weighted_infinite_analytic, g[i], 1 + i, N, t


def _eval_q_points():
    # eval-q's draws for the one-block call: t log-uniform, k in {1, 2, 3}, N in [1, 100]
    for seed, lo, hi in ((7, 7.0, 10.0), (8, 7.0, 10.0), (9, 0.1, 7.0)):
        rng = random.Random(seed)
        for _ in range(30):
            t = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            yield _one_block, rng.choice([1, 2, 3]), rng.randint(1, 100), t


def test_no_error_estimate_shrinks(uncut):
    for f, *args in [*_driver_points(), *_eval_q_points()]:
        indicators._HELD.clear()
        ev = f(*args)
        indicators._HELD.clear()
        ref = uncut(f, *args)
        assert ev.error_estimate >= ref.error_estimate, (f.__name__, args)
        assert abs(ev.value - ref.value) <= ev.error_estimate, (f.__name__, args)


@pytest.mark.parametrize("N", [100, 300, 600])
def test_sigma_moves_by_less_than_one_rounding_of_its_heads(uncut, N):
    ev = sigma_analytic(N, 1.0)
    ref = uncut(sigma_analytic, N, 1.0)
    w, _ = _windows(*_sigma_set(N, 1.0))
    M = w.y.astype(float)
    heads = float(np.sum(M**2.5 * (np.abs(w.head) + np.abs(w.exp_part))))
    assert abs(ev.value - ref.value) <= U * heads
    assert round(ev.value) == sigma_bruteforce(N)


def test_sigma_600_tables_are_a_little_over_half_as_large(monkeypatch):
    # the grids of the uncut plan: g over |r| <= R and Js over |m| <= R + (N - 1)^2
    monkeypatch.setattr(indicators, "_HELD", {})
    N = 600
    w, cap = _windows(*_sigma_set(N, 1.0))
    tables = BlockTables(1, 1.0, *w.extent)
    R = _sigma_r_len(N, 1.0)
    assert tables.g.size <= 0.57 * (2 * R + 1)
    assert tables.Js.size <= 0.55 * (2 * (R + (N - 1) ** 2) + 1)
    terms = float(np.sum(w.hi - w.lo + 1)) / float(np.sum(cap - w.lo + 1))
    assert terms <= 0.57


@pytest.fixture
def builds(monkeypatch):
    monkeypatch.setattr(indicators, "_HELD", {})
    built = []
    for name in ("j_values", "_g_grid"):
        real = getattr(indicators, name)
        monkeypatch.setattr(
            indicators, name, lambda *args, name=name, real=real, **kw: built.append(name) or real(*args, **kw)
        )
    return built


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_a_sigma_sweep_builds_each_table_once(builds, t):
    # the largest sigma first, then the rest in any order
    sigma_analytic(600, t)
    for N in (117, 300, 5, 116, 450, 229, 40, 599, 158):
        sigma_analytic(N, t)
    assert sorted(builds) == ["_g_grid", "j_values"]

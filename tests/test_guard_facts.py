"""Where G's overflow guard can be set.  The block engine keeps no guard
mask: no block's J peak M = -y, y >= 1, is guarded, and on any grid the
guarded entries form a suffix M >= M*(k, t) > 0, so the flag of an oracle,
or of a driver of the engine, is ``kernel_g``'s at its grid's top M."""

import math

import numpy as np
import pytest

from arithsum import dsums, indicators
from arithsum.dsums import DiophantineInstance, sum_squares_analytic, unit_sum_diff, unit_sum_squares, unit_weight
from arithsum.indicators import q_analytic, q_shifted_analytic
from arithsum.kernels import GUARD_THRESHOLD, T_MAX, _g, _roots, kernel_g
from arithsum.sigma_rh import sigma_analytic

_T_GRID = [*np.geomspace(1e-3, T_MAX, 40).tolist(), T_MAX]


def test_no_j_peak_is_guarded():
    # at M = -y, y >= 1: Re sqrt(M + it) = t/(2 sqrt((|M + it| + y)/2))
    # <= t/sqrt(2(sqrt(1 + t^2) + 1)) <= t/sqrt(2(t + 1)), which is 7.49 at
    # T_MAX, so pi Re sqrt/sqrt(k) <= 23.5 < GUARD_THRESHOLD for every k >= 1
    y = np.concatenate([np.arange(1, 20001), np.geomspace(2e4, 1e12, 200).round()])
    assert T_MAX / math.sqrt(2.0 * (T_MAX + 1.0)) < 7.49
    assert math.pi * 7.49 < GUARD_THRESHOLD
    for t in _T_GRID:
        u = _roots(-y, t)[1]
        assert (u <= t / math.sqrt(2.0 * (t + 1.0))).all(), t
        for k in (1, 2, 3):
            assert not _g(-y, t, k)[1].any(), (t, k)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 50])
def test_g_guard_is_a_suffix_past_zero(k):
    # Re sqrt(M + it) grows with M, so the guard is set from some M* on; at
    # M = 0 it is sqrt(t/2) <= 7.5, so M* > 0.  A grid's flag is then the
    # flag at its top M, and one that ends below M* has none
    M = np.arange(-4 * 10**5, 4 * 10**5 + 1, 1, dtype=float)
    for t in _T_GRID[::4]:
        mask = _g(M, t, k)[1]
        first = int(mask.argmax())
        assert mask[first] and mask[first:].all() and not mask[:first].any(), t
        assert M[first] > 0, t
        for lo, hi in ((-(10**3), 10), (-50, int(M[first]) - 1), (-(10**5), int(M[first])), (-(10**4), 4 * 10**5)):
            grid = mask[lo - int(M[0]) : hi - int(M[0]) + 1]
            assert kernel_g(hi, t, k).overflow_guarded == grid.any(), (t, lo, hi)


@pytest.fixture
def grids(monkeypatch):
    """The (lo, hi, t, k) of each ``_g_grid`` an oracle or driver builds,
    from no held plan."""
    monkeypatch.setattr(indicators, "_HELD", {})
    built = []
    real = indicators._g_grid
    for module in (indicators, dsums):
        monkeypatch.setattr(module, "_g_grid", lambda *args: built.append(args) or real(*args))
    return built


# q inverts its closed-form evaluator: it builds no grid and runs no guarded kernel
_Q = [lambda: q_analytic(1, 5, 1.0), lambda: q_analytic(50, 5, 1.0)]


@pytest.mark.parametrize(
    "oracle",
    [
        lambda: q_shifted_analytic(1, 9, 3, 1.0),
        lambda: q_shifted_analytic(50, 5, 0, 1.0),  # its top M = 1200 lies below M*(50, 1)
        lambda: q_shifted_analytic(2, 12, -4, 0.3),
        lambda: unit_sum_squares(DiophantineInstance(25, 1, 1, "sum"), 1.0),
        lambda: unit_sum_diff(DiophantineInstance(7, 2, 3, "difference"), 2.0),
        *_Q,
        # the block engine's drivers, from the grid sized to their windows
        lambda: sum_squares_analytic(unit_weight(), DiophantineInstance(25, 1, 1, "sum"), 1.0),
        lambda: sigma_analytic(30, 1.0),
    ],
)
def test_an_oracles_flag_is_its_grids_any(grids, oracle):
    ev = oracle()
    assert len(grids) == (0 if oracle in _Q else 1)
    assert ev.guards_engaged == any(bool(_g(np.arange(lo, hi + 1, dtype=float), t, k)[1].any()) for lo, hi, t, k in grids)

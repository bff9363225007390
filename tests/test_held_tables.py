"""BlockTables reads the one held plan, the last G grid and J table built,
wherever it has the request's (k, t) and covers its ranges, whatever the
base; any other request drops the plan and builds exactly its own.  A warm
plan keeps the bits of a cold one, the held arrays are read-only, and the
oracles never read them."""

import ast
from pathlib import Path

import numpy as np
import pytest

from arithsum import indicators
from arithsum.dsums import DiophantineInstance, alternating_weight, sum_diff_analytic
from arithsum.dsums import _block_tail, unit_sum_diff, unit_weight
from arithsum.indicators import BlockTables, q_shifted_analytic, weighted_blocks
from arithsum.sigma_rh import _sigma_r_len, sigma_analytic


@pytest.fixture
def builds(monkeypatch):
    """The names of the table builds that run, with the held tables empty
    at the start and restored after the test."""
    monkeypatch.setattr(indicators, "_HELD", {})
    built = []
    for name in ("j_values", "_g_grid"):
        real = getattr(indicators, name)
        monkeypatch.setattr(
            indicators, name, lambda *args, name=name, real=real, **kw: built.append(name) or real(*args, **kw)
        )
    return built


def _plan():
    """The one held plan, ((k, t), (lo, hi, Q, g, Js))."""
    (plan,) = indicators._HELD.items()
    return plan


def _bits(ev):
    return ev.value.hex(), ev.error_estimate.hex(), ev.terms_used, ev.guards_engaged


def _cold(f, *args):
    indicators._HELD.clear()
    return _bits(f(*args))


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_sigma_from_held_tables_keeps_the_cold_bits(builds, t):
    cold = {N: _cold(sigma_analytic, N, t) for N in (5, 40, 96)}
    indicators._HELD.clear()
    sigma_analytic(97, t)
    del builds[:]
    for N in (96, 5, 40):
        assert _bits(sigma_analytic(N, t)) == cold[N], N
    assert builds == []


@pytest.mark.parametrize("N", [50, 51])
def test_difference_sums_from_a_base_of_either_parity_keep_the_cold_bits(builds, N):
    # sum_diff_analytic's grid at base N spans M = r - N up to 6400 d + 1500
    # whatever N, so the grids of bases N + 1 and N + 2 hold it
    g = alternating_weight()
    inst = DiophantineInstance(N, 2, 3, "difference")
    cold = _cold(sum_diff_analytic, g, inst, 1.0)
    for base in (N + 1, N + 2):
        indicators._HELD.clear()
        sum_diff_analytic(g, DiophantineInstance(base, 2, 3, "difference"), 1.0)
        held = _plan()
        del builds[:]
        assert _bits(sum_diff_analytic(g, inst, 1.0)) == cold, base
        assert builds == [] and _plan()[1] is held[1]


def test_a_base_of_the_other_parity_reads_a_view_of_the_held_grid(builds):
    # the held grid is G(M), whatever the base it was built for: base 31's
    # window |r| <= 600, M = -631..569, is a view of base 30's |r| <= 610,
    # M = -640..580
    cold = BlockTables(2, 0.7, -631, 569, 700).g.tobytes()
    indicators._HELD.clear()
    BlockTables(2, 0.7, -640, 580, 700)
    del builds[:]
    g = BlockTables(2, 0.7, -631, 569, 700).g
    assert builds == []
    assert np.shares_memory(g, _plan()[1][3])
    assert g.tobytes() == cold


def _one_block(k, N, t):
    """The engine's one block at shift 0, q_k(N)/N^2."""
    return weighted_blocks(N, k, t, [1.0], [0], None, _block_tail)


def test_a_range_miss_or_a_new_key_builds_and_keeps_the_cold_bits(builds):
    cold = {
        "sigma(97, 1)": _cold(sigma_analytic, 97, 1.0),
        "sigma(97, 1.5)": _cold(sigma_analytic, 97, 1.5),
        "q_1(50)": _cold(_one_block, 1, 50, 1.5),
        "q_2(50)": _cold(_one_block, 2, 50, 1.5),
    }
    indicators._HELD.clear()
    sigma_analytic(40, 1.0)
    steps = [
        ("sigma(97, 1)", lambda: sigma_analytic(97, 1.0), ["_g_grid", "j_values"]),  # range
        ("sigma(97, 1.5)", lambda: sigma_analytic(97, 1.5), ["_g_grid", "j_values"]),  # t
        ("q_1(50)", lambda: _one_block(1, 50, 1.5), []),  # inside sigma(97, 1.5)'s tables
        ("q_2(50)", lambda: _one_block(2, 50, 1.5), ["_g_grid", "j_values"]),  # k: the plan is keyed by (k, t)
    ]
    for label, f, want in steps:
        del builds[:]
        assert _bits(f()) == cold[label], label
        assert sorted(builds) == want, label


def test_a_grid_that_ends_past_the_held_one_is_built(builds):
    # M runs over -1040..960 in the first plan and -1035..975 in the
    # second: its start lies inside the held grid, its end beyond it, so
    # the second plan is built whole
    BlockTables(1, 1.0, -1040, 960, 1000)
    g = BlockTables(1, 1.0, -1035, 975, 1000).g
    assert builds == ["_g_grid", "j_values", "_g_grid", "j_values"]
    assert g.tobytes() == indicators._g_grid(-1035, 975, 1.0, 1).tobytes()


def test_held_arrays_are_read_only(builds):
    N, t = 30, 1.0
    r_len = _sigma_r_len(N, t)
    # the windows |r| <= r_len + 10 - 5d at bases 4N + d, in M = r - 4N - d
    windows = [(r_len + 10 - 5 * d, 4 * N + d) for d in (0, 1, 2)]
    plans = [BlockTables(1, t, -L - B, L - B, r_len + 900) for L, B in windows]
    assert len(builds) == 2  # the second and third plans read the first's tables
    arrays = list(_plan()[1][3:])
    arrays += [a for p in plans for a in (p.g, p.Js)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_the_oracles_do_not_read_the_held_grid(builds):
    # a wrong offset or value in the held grid moves the block sum, and no
    # oracle of it: they build their grids with _g_grid themselves
    N, c, t = 50, 8, 1.0
    inst = DiophantineInstance(N, 2, 3, "difference")
    g = unit_weight()
    before = [
        _bits(f())
        for f in (
            lambda: sum_diff_analytic(g, inst, t),
            lambda: unit_sum_diff(inst, t),
            lambda: q_shifted_analytic(3, N, c, t),
        )
    ]
    key, (lo, hi, Q, held, Js) = _plan()
    assert key == (3, t) and lo < -N < hi  # r = 0 at base N
    bent = held * (1.0 + 1e-6)
    bent.flags.writeable = False
    indicators._HELD[key] = (lo, hi, Q, bent, Js)
    assert _bits(sum_diff_analytic(g, inst, t)) != before[0]
    assert _bits(unit_sum_diff(inst, t)) == before[1]
    assert _bits(q_shifted_analytic(3, N, c, t)) == before[2]
    assert _plan()[1][3] is bent


def test_ends_that_move_both_ways_are_not_joined(builds):
    # each request reaches past the held plan at one end and lies inside it
    # at the other, in M or in q: a miss builds its own ranges, not their
    # union with the held plan's, and keeps the cold bits
    requests = [(-1040, 960, 1000), (-1035, 975, 990), (-1050, 950, 1010), (-1040, 960, 1000)]
    cold = {}
    for r in requests:
        indicators._HELD.clear()
        p = BlockTables(1, 1.0, *r)
        cold[r] = p.g.tobytes(), p.Js.tobytes()
    indicators._HELD.clear()
    for r in requests:
        del builds[:]
        p = BlockTables(1, 1.0, *r)
        key, (lo, hi, Q, g, Js) = _plan()
        assert builds == ["_g_grid", "j_values"] and key == (1, 1.0) and (lo, hi, Q) == r
        assert g.shape == (hi - lo + 1,) and Js.shape == (2 * Q + 1,)
        assert (p.g.tobytes(), p.Js.tobytes()) == cold[r]


def test_indicators_holds_one_plan(builds):
    # no generic holder: indicators defines no _held, and only
    # BlockTables.__init__ touches _HELD past its definition.  After any
    # mix of keys, drivers and oracles it holds one plan
    tree = ast.parse(Path(indicators.__file__).read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_held"]
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "BlockTables")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")

    def uses(node):
        return sum(isinstance(n, ast.Name) and n.id == "_HELD" for n in ast.walk(node))

    assert uses(tree) == uses(init) + 1
    calls = [
        lambda: sigma_analytic(40, 1.0),
        lambda: _one_block(2, 50, 1.0),
        lambda: _one_block(2, 50, 0.7),
        lambda: sum_diff_analytic(alternating_weight(), DiophantineInstance(50, 2, 3, "difference"), 0.7),
        lambda: q_shifted_analytic(3, 50, 8, 0.7),
        lambda: sigma_analytic(96, 1.0),
        lambda: sigma_analytic(5, 1.0),
    ]
    for i, f in enumerate(calls):
        f()
        assert len(indicators._HELD) == 1, i

"""BlockTables reads the last G grid per (k, t) and the last J table per t
wherever they cover its request.  A warm plan keeps the bits of a cold
one, the held arrays are read-only, and the oracles never read them."""

import pytest

from arithsum import indicators
from arithsum.dsums import DiophantineInstance, alternating_weight, sum_diff_analytic
from arithsum.dsums import unit_sum_diff, unit_weight
from arithsum.indicators import BlockTables, q_analytic, q_shifted_analytic
from arithsum.sigma_rh import _sigma_r_len, sigma_analytic


@pytest.fixture
def builds(monkeypatch):
    """The names of the table builds that run, with the held tables empty
    at the start and restored after the test."""
    monkeypatch.setattr(indicators, "_HELD", {})
    built = []
    for name in ("j_values", "_signed_g"):
        real = getattr(indicators, name)
        monkeypatch.setattr(
            indicators, name, lambda *args, name=name, real=real, **kw: built.append(name) or real(*args, **kw)
        )
    return built


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
    # whatever N, so the grids of bases N + 1 and N + 2 hold it; the first
    # is read negated
    g = alternating_weight()
    inst = DiophantineInstance(N, 2, 3, "difference")
    cold = _cold(sum_diff_analytic, g, inst, 1.0)
    for base in (N + 1, N + 2):
        indicators._HELD.clear()
        sum_diff_analytic(g, DiophantineInstance(base, 2, 3, "difference"), 1.0)
        assert indicators._HELD["g"][1] == base
        del builds[:]
        assert _bits(sum_diff_analytic(g, inst, 1.0)) == cold, base
        assert builds == []


def test_a_range_miss_or_a_new_key_builds_and_keeps_the_cold_bits(builds):
    cold = {
        "sigma(97, 1)": _cold(sigma_analytic, 97, 1.0),
        "sigma(97, 1.5)": _cold(sigma_analytic, 97, 1.5),
        "q_1(50)": _cold(q_analytic, 1, 50, 1.5),
        "q_2(50)": _cold(q_analytic, 2, 50, 1.5),
    }
    indicators._HELD.clear()
    sigma_analytic(40, 1.0)
    steps = [
        ("sigma(97, 1)", lambda: sigma_analytic(97, 1.0), ["_signed_g", "j_values"]),  # range
        ("sigma(97, 1.5)", lambda: sigma_analytic(97, 1.5), ["_signed_g", "j_values"]),  # t
        ("q_1(50)", lambda: q_analytic(1, 50, 1.5), []),  # inside sigma(97, 1.5)'s tables
        ("q_2(50)", lambda: q_analytic(2, 50, 1.5), ["_signed_g"]),  # k; J is keyed by t
    ]
    for label, f, want in steps:
        del builds[:]
        assert _bits(f()) == cold[label], label
        assert sorted(builds) == want, label


def test_a_grid_that_ends_past_the_held_one_is_built(builds):
    # M = r - N runs over -1040..960 in the first plan and -1035..975 in
    # the second: its start lies inside the held grid, its end beyond it
    BlockTables(40, 1, 1.0, 1000, 1000)
    sg = BlockTables(30, 1, 1.0, 1005, 1000).sg
    assert builds == ["_signed_g", "j_values", "_signed_g"]
    assert sg.tobytes() == indicators._signed_g(30, 1.0, 1, 1005)[0].tobytes()


def test_held_arrays_are_read_only(builds):
    N, t = 30, 1.0
    r_len = _sigma_r_len(N, t)
    plans = [BlockTables(4 * N + d, 1, t, r_len + 10 - 5 * d, r_len + 900) for d in (0, 1, 2)]
    assert len(builds) == 2  # the second and third plans read the first's tables
    arrays = [*indicators._HELD["g"][4], *indicators._HELD["j"][4]]
    arrays += [a for p in plans for a in (p.sg, p.Js)]  # plan 1's sg is negated
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_the_oracles_do_not_read_the_held_grid(builds):
    # a wrong offset or sign in the held grid moves the block sum, and no
    # oracle of it: they build their grids with _signed_g themselves
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
    key, base, lo, hi, (sg, guarded) = indicators._HELD["g"]
    assert key == (3, t) and base == N
    bent = sg * (1.0 + 1e-6)
    bent.flags.writeable = False
    indicators._HELD["g"] = (key, base, lo, hi, (bent, guarded))
    assert _bits(sum_diff_analytic(g, inst, t)) != before[0]
    assert _bits(unit_sum_diff(inst, t)) == before[1]
    assert _bits(q_shifted_analytic(3, N, c, t)) == before[2]
    assert indicators._HELD["g"][4][0] is bent

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arithsum import dsums, indicators, integrals, series
from arithsum.dsums import (
    DiophantineInstance,
    WeightSpec,
    _divisor_pair_bruteforce,
    alternating_weight,
    divisor_pair_sum_analytic,
    enumerate_solutions,
    reciprocal_weight,
    sum_diff_analytic,
    sum_diff_bruteforce,
    sum_squares_analytic,
    sum_squares_bruteforce,
    unit_sum_diff,
    unit_sum_squares,
    unit_weight,
    weighted_finite_analytic,
    weighted_infinite_analytic,
)
from arithsum.indicators import q_bruteforce

WEIGHTS = (unit_weight(), alternating_weight(), reciprocal_weight())


def test_enumerate_sum_kind():
    sols = enumerate_solutions(DiophantineInstance(25, 1, 1, "sum"))
    assert sols.pairs == ((3, 4), (4, 3))
    assert sols.tail_bound == 0.0
    sols = enumerate_solutions(DiophantineInstance(8, 1, 1, "sum"))
    assert sols.pairs == ((2, 2),)
    assert enumerate_solutions(DiophantineInstance(7, 1, 1, "sum")).pairs == ()


def test_enumerate_difference_kind_pell():
    sols = enumerate_solutions(DiophantineInstance(1, 2, 1, "difference"), 50)
    assert sols.pairs == ((2, 3), (12, 17))
    sols = enumerate_solutions(DiophantineInstance(1, 2, 1, "difference"), 99)
    assert sols.pairs == ((2, 3), (12, 17), (70, 99))
    assert sols.tail_bound == pytest.approx(1.0 / (3.0 * 99**3))
    with pytest.raises(ValueError):
        enumerate_solutions(DiophantineInstance(1, 2, 1, "difference"))


def test_every_enumerated_pair_satisfies_equation():
    for N in range(1, 40):
        for d in (1, 2, 3):
            for k in (1, 2, 3):
                for a, b in enumerate_solutions(DiophantineInstance(N, d, k, "sum")).pairs:
                    assert d * a * a + k * b * b == N
                for a, b in enumerate_solutions(
                    DiophantineInstance(N, d, k, "difference"), 200
                ).pairs:
                    assert k * b * b - d * a * a == N


def _python_scan(inst, b_horizon):
    # the per-candidate math.isqrt scan that the int64 scan replaced, kept
    # as the reference
    N, d, k = inst.N, inst.d, inst.k
    pairs = []
    if inst.kind == "sum":
        a = 1
        while d * a * a < N:
            rem = N - d * a * a
            if rem % k == 0:
                b = math.isqrt(rem // k)
                if b >= 1 and k * b * b == rem:
                    pairs.append((a, b))
            a += 1
        return tuple(pairs)
    for b in range(1, b_horizon + 1):
        rem = k * b * b - N
        if rem >= d and rem % d == 0:
            a = math.isqrt(rem // d)
            if a >= 1 and d * a * a == rem:
                pairs.append((a, b))
    return tuple(pairs)


@pytest.mark.parametrize("horizon", [1, 7, 100, 3000])
def test_enumeration_matches_the_python_scan(horizon):
    # N spans small values, squares and sums of squares, and values past
    # 10^6 where the float roots of 3 b^2 - N are ~10^3.5
    for N in (*range(1, 60), 100, 625, 1000, 9999, 10**6, 10**6 + 1, 2 * 10**6 + 3):
        for d in (1, 2, 3, 7):
            for k in (1, 2, 3, 5):
                for kind in ("sum", "difference"):
                    inst = DiophantineInstance(N, d, k, kind)
                    got = enumerate_solutions(inst, horizon).pairs
                    assert got == _python_scan(inst, horizon), (N, d, k, kind)
                    assert all(type(x) is int for pair in got for x in pair)


def test_enumeration_chunks_meet_without_gap_or_overlap(monkeypatch):
    # candidates 5 at a time, so chunk edges fall between solutions
    monkeypatch.setattr(dsums, "_SCAN_CHUNK", 5)
    for N, d, k in ((1, 2, 1), (7, 1, 2), (1000, 1, 1), (9999, 3, 1), (2 * 10**6 + 3, 2, 3)):
        for kind in ("sum", "difference"):
            inst = DiophantineInstance(N, d, k, kind)
            assert enumerate_solutions(inst, 3000).pairs == _python_scan(inst, 3000), (N, d, k)


def test_square_roots_are_exact_up_to_2_62():
    # near 2^62 the float root of m^2 + 1 rounds to m and that of m^2 - 1
    # can round to m as well; only the exact int64 product tells them apart
    m = np.array([1, 2, 3, 2**26 + 1, 94906265, 3037000499, 2**31 - 1], dtype=np.int64)
    q = m * m
    i, root = dsums._square_roots(q)
    assert i.tolist() == list(range(len(m))) and (root == m).all()
    assert dsums._square_roots(q - 1)[0].tolist() == [0]  # 1 - 1 = 0^2
    assert dsums._square_roots(q + 1)[0].size == 0
    assert dsums._square_roots(np.array([2, 3, 5, 8, 99]))[0].size == 0


def test_enumeration_refuses_inexact_horizons():
    inst = DiophantineInstance(5, 1, 1, "difference")
    with pytest.raises(ValueError, match="2\\^62"):
        enumerate_solutions(inst, 2**31)
    with pytest.raises(ValueError, match="2\\^62"):
        enumerate_solutions(DiophantineInstance(5, 1, 4, "difference"), 2**30)
    assert enumerate_solutions(inst, 5).pairs == ((2, 3),)


def test_enumeration_scans_in_bounded_memory():
    # the scan holds _SCAN_CHUNK candidates at a time: the peak grows by
    # ~15 MB here, and by ~160 MB with all 4 * 10^6 candidates at once
    code = (
        "import resource\n"
        "from arithsum.dsums import DiophantineInstance, enumerate_solutions\n"
        "inst = DiophantineInstance(5, 1, 1, 'difference')\n"
        "enumerate_solutions(inst, 1000)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "pairs = enumerate_solutions(inst, 4 * 10**6).pairs\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024.0, pairs)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    grown_mb, pairs = out.stdout.split(" ", 1)
    assert pairs.strip() == "((2, 3),)"
    assert float(grown_mb) < 64.0, grown_mb


def test_bruteforce_examples():
    assert sum_squares_bruteforce(
        DiophantineInstance(25, 1, 1, "sum"), unit_weight()
    ) == pytest.approx(1.0 / 4**4 + 1.0 / 3**4)
    assert sum_squares_bruteforce(DiophantineInstance(7, 1, 1, "sum"), unit_weight()) == 0.0
    ident = WeightSpec(lambda a: float(a), 100.0, "identity")
    assert sum_squares_bruteforce(DiophantineInstance(8, 1, 1, "sum"), ident) == pytest.approx(
        0.125
    )


def test_diff_bruteforce_examples():
    val, _ = sum_diff_bruteforce(DiophantineInstance(4, 1, 1, "difference"), unit_weight(), 100)
    assert val == 0.0
    val, _ = sum_diff_bruteforce(DiophantineInstance(3, 1, 1, "difference"), unit_weight(), 100)
    assert val == pytest.approx(1.0 / 16.0)
    val, tail = sum_diff_bruteforce(
        DiophantineInstance(1, 2, 1, "difference"), unit_weight(), 10**4
    )
    assert val == pytest.approx(1.0 / 3**4 + 1.0 / 17**4 + 1.0 / 99**4 + 1.0 / 577**4, rel=1e-12)
    assert tail < 1.0 / (3.0 * 10**12) * 1.001


def test_sum_squares_analytic_examples():
    inst = DiophantineInstance(25, 1, 1, "sum")
    ev = sum_squares_analytic(unit_weight(), inst, 1.0)
    assert ev.value == pytest.approx(0.016251929012345678, abs=1e-8)
    # boundary case N = d m^2 with no interior solutions
    inst = DiophantineInstance(4, 1, 1, "sum")
    ev = sum_squares_analytic(unit_weight(), inst, 1.0)
    assert abs(ev.value) < 1e-8
    inst = DiophantineInstance(8, 1, 1, "sum")
    ev = sum_squares_analytic(alternating_weight(), inst, 1.0)
    assert ev.value == pytest.approx(0.0625, abs=1e-8)


def test_sum_diff_analytic_examples():
    inst = DiophantineInstance(3, 1, 1, "difference")
    ev = sum_diff_analytic(unit_weight(), inst, 1.0)
    assert ev.value == pytest.approx(1.0 / 16.0, abs=1e-8)
    inst = DiophantineInstance(1, 2, 1, "difference")
    ev = sum_diff_analytic(unit_weight(), inst, 1.0)
    brute, tail = sum_diff_bruteforce(inst, unit_weight(), 10**4)
    assert abs(ev.value - brute) < 1e-6 + ev.error_estimate + tail
    zero = WeightSpec(lambda a: 0.0, 0.0, "zero")
    assert sum_diff_analytic(zero, inst, 1.0).value == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sum_kind_vs_enumeration_grid(d, k):
    for N in range(1, 41):
        inst = DiophantineInstance(N, d, k, "sum")
        for g in WEIGHTS:
            ev = sum_squares_analytic(g, inst, 1.0)
            brute = sum_squares_bruteforce(inst, g) / (k * k)
            assert abs(ev.value - brute) < 1e-6 + ev.error_estimate, (N, d, k, g.label)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
def test_difference_kind_vs_enumeration_grid(d, k):
    for N in range(1, 21):
        inst = DiophantineInstance(N, d, k, "difference")
        for g in WEIGHTS:
            ev = sum_diff_analytic(g, inst, 1.0)
            brute, tail = sum_diff_bruteforce(inst, g, 10**4)
            assert abs(ev.value - brute / (k * k)) < 1e-6 + ev.error_estimate + tail / (k * k)


def test_scaling_consistency():
    # multiplying the analytic output by k^2 reproduces the raw sum
    inst = DiophantineInstance(45, 1, 2, "sum")
    ev = sum_squares_analytic(unit_weight(), inst, 1.0)
    raw = sum_squares_bruteforce(inst, unit_weight())
    assert ev.value * 4 == pytest.approx(raw, abs=1e-7)


def test_starred_boundary_rule():
    # every N = d m^2 <= 60: the analytic value still matches enumeration
    for d in (1, 2, 3):
        m = 1
        while d * m * m <= 60:
            N = d * m * m
            inst = DiophantineInstance(N, d, 1, "sum")
            ev = sum_squares_analytic(unit_weight(), inst, 1.0)
            brute = sum_squares_bruteforce(inst, unit_weight())
            assert abs(ev.value - brute) < 1e-6 + ev.error_estimate
            m += 1


def _check_unit_forms_match_block_forms(t):
    # two independent series organizations of the same quantity
    for (N, d, k) in [(25, 1, 1), (25, 2, 1), (45, 1, 2), (100, 3, 2), (9, 1, 1)]:
        inst = DiophantineInstance(N, d, k, "sum")
        a = unit_sum_squares(inst, t)
        b = sum_squares_analytic(unit_weight(), inst, t)
        assert abs(a.value - b.value) < a.error_estimate + b.error_estimate
    for (N, d, k) in [(3, 1, 1), (1, 2, 1), (7, 3, 2), (23, 1, 3)]:
        inst = DiophantineInstance(N, d, k, "difference")
        a = unit_sum_diff(inst, t)
        b = sum_diff_analytic(unit_weight(), inst, t)
        assert abs(a.value - b.value) < a.error_estimate + b.error_estimate


def test_unit_forms_match_block_forms():
    _check_unit_forms_match_block_forms(1.0)


@pytest.mark.parametrize("t", [0.3, 3.0, 8.0])
def test_unit_forms_match_block_forms_across_t(t):
    _check_unit_forms_match_block_forms(t)


def test_unit_forms_do_not_use_the_block_engine(monkeypatch):
    # the unit forms and q_shifted_analytic are oracles for the block path:
    # they must evaluate with BlockTables and the J table unavailable
    def unavailable(*args, **kwargs):
        raise AssertionError("the block engine was called")

    monkeypatch.setattr(indicators, "BlockTables", unavailable)
    for module in (integrals, indicators, series):
        monkeypatch.setattr(module, "j_values", unavailable)
    with pytest.raises(AssertionError):
        sum_squares_analytic(unit_weight(), DiophantineInstance(25, 1, 1, "sum"))
    for t in (0.5, 2.0):
        assert unit_sum_squares(DiophantineInstance(25, 1, 1, "sum"), t).value == pytest.approx(
            1.0 / 4**4 + 1.0 / 3**4, abs=1e-6
        )
        assert unit_sum_diff(DiophantineInstance(3, 1, 1, "difference"), t).value == pytest.approx(
            1.0 / 16.0, abs=1e-6
        )
        assert indicators.q_shifted_analytic(1, 10, 6, t).value == pytest.approx(
            1.0 / 256.0, abs=1e-8
        )


def test_unit_sum_examples():
    inst = DiophantineInstance(25, 1, 1, "sum")
    assert unit_sum_squares(inst, 1.0).value == pytest.approx(0.016251929012, abs=1e-6)
    inst = DiophantineInstance(25, 2, 1, "sum")
    want = sum_squares_bruteforce(inst, unit_weight())
    assert unit_sum_squares(inst, 1.0).value == pytest.approx(want, abs=1e-6)
    inst = DiophantineInstance(9, 1, 1, "sum")
    want = sum_squares_bruteforce(inst, unit_weight())
    assert abs(unit_sum_squares(inst, 1.0).value - want) < 1e-6 + 1e-5


def test_unit_diff_examples():
    inst = DiophantineInstance(3, 1, 1, "difference")
    assert unit_sum_diff(inst, 1.0).value == pytest.approx(1.0 / 16.0, abs=1e-5)
    inst = DiophantineInstance(4, 1, 1, "difference")
    assert abs(unit_sum_diff(inst, 1.0).value) < 1e-5
    inst = DiophantineInstance(1, 2, 1, "difference")
    brute, tail = sum_diff_bruteforce(inst, unit_weight(), 10**4)
    ev = unit_sum_diff(inst, 1.0)
    assert abs(ev.value - brute) < 1e-6 + ev.error_estimate + tail


def test_weight_bound_spot_check():
    with pytest.raises(ValueError):
        WeightSpec(lambda a: float(a), 2.0, "unbounded")
    with pytest.raises(ValueError):
        WeightSpec(lambda a: 1.0, -1.0, "negative-bound")
    WeightSpec(lambda a: math.sin(a), 1.0, "sine")  # fine


def test_kind_mismatch_errors():
    sum_inst = DiophantineInstance(5, 1, 1, "sum")
    diff_inst = DiophantineInstance(5, 1, 1, "difference")
    with pytest.raises(ValueError):
        sum_squares_analytic(unit_weight(), diff_inst)
    with pytest.raises(ValueError):
        sum_diff_analytic(unit_weight(), sum_inst)
    with pytest.raises(ValueError):
        unit_sum_squares(diff_inst)
    with pytest.raises(ValueError):
        unit_sum_diff(sum_inst)
    with pytest.raises(ValueError):
        DiophantineInstance(5, 1, 1, "product")


def test_divisor_pair_examples():
    ev = divisor_pair_sum_analytic(unit_weight(), 6, 1.0)
    assert ev.value == pytest.approx(1.0 / 7**4 + 1.0 / 5**4, abs=1e-9)
    ev = divisor_pair_sum_analytic(unit_weight(), 4, 1.0)
    assert ev.value == pytest.approx(1.0 / 5**4, abs=1e-9)
    zero = WeightSpec(lambda a: 0.0, 0.0, "zero")
    assert divisor_pair_sum_analytic(zero, 17, 1.0).value == 0.0


def test_divisor_pair_grid():
    for N in range(1, 31):
        for g in (unit_weight(), reciprocal_weight()):
            ev = divisor_pair_sum_analytic(g, N, 1.0)
            assert abs(ev.value - _divisor_pair_bruteforce(g, N)) < 1e-6


def finite_oracle(h, k, N):
    return math.fsum(h(a) * q_bruteforce(k, 1, N - a) / (N - a) ** 2 for a in range(1, N))


def test_weighted_finite_examples():
    ev = weighted_finite_analytic(unit_weight(), 1, 5, 1.0)
    assert ev.value == pytest.approx(1.0625, abs=1e-8)
    zero = WeightSpec(lambda a: 0.0, 0.0, "zero")
    assert weighted_finite_analytic(zero, 1, 9, 1.0).value == 0.0
    ev = weighted_finite_analytic(unit_weight(), 2, 3, 1.0)
    assert ev.value == pytest.approx(0.25, abs=1e-8)


def test_weighted_finite_grid():
    h = WeightSpec(lambda a: 0.5**a, 1.0, "geometric")
    for k in (1, 2):
        for N in (2, 7, 12, 20):
            ev = weighted_finite_analytic(h, k, N, 1.0)
            assert abs(ev.value - finite_oracle(h.weight, k, N)) < 1e-8


def test_weighted_infinite_examples():
    h = WeightSpec(lambda a: 0.5**a, 1.0, "geometric")
    ev = weighted_infinite_analytic(h, 1, 1, 1.0)
    oracle = math.fsum(0.5**a * q_bruteforce(1, 1, 1 + a) / (1 + a) ** 2 for a in range(1, 800))
    assert abs(ev.value - oracle) < 1e-6
    hq = WeightSpec(lambda a: float(q_bruteforce(1, 1, a)), 1.0, "squares")
    ev = weighted_infinite_analytic(hq, 1, 3, 1.0, a_horizon=600)
    oracle = math.fsum(
        q_bruteforce(1, 1, a) * q_bruteforce(1, 1, 3 + a) / (3 + a) ** 2
        for a in range(1, 10**5)
    )
    assert abs(ev.value - oracle) < 1e-5 + ev.error_estimate
    zero = WeightSpec(lambda a: 0.0, 0.0, "zero")
    assert weighted_infinite_analytic(zero, 1, 2, 1.0).value == 0.0

"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured extremes (run with ``pytest -s tests/test_acceptance.py``
to see them)."""

import math
import time

from arithsum.dsums import (
    DiophantineInstance,
    _divisor_pair_bruteforce,
    alternating_weight,
    divisor_pair_sum_analytic,
    reciprocal_weight,
    sum_diff_analytic,
    sum_diff_bruteforce,
    sum_squares_analytic,
    sum_squares_bruteforce,
    unit_sum_diff,
    unit_sum_squares,
    unit_weight,
)
from arithsum.indicators import (
    q_analytic,
    q_bruteforce,
    q_shifted_analytic,
    zero_identity_residual,
)
from arithsum.series import (
    geometric_series_evaluator,
    indicator_series_evaluator,
    invert_series,
    lemma4_residual,
    self_consistency_residual,
)
from arithsum.sigma_rh import (
    harmonic,
    lagarias_rhs,
    sigma_analytic,
    sigma_bruteforce,
    sigma_decomposition_residuals,
)
from arithsum.suites import run_suite


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_1_indicator_correctness():
    started = time.time()
    misclassified = 0
    worst = 0.0
    for k in (1, 2, 3, 5):
        for N in range(1, 201):
            ev = q_analytic(k, N, 1.0)
            value = N * N * ev.value
            want = q_bruteforce(k, 1, N)
            bit = 1 if value >= 0.5 else 0
            misclassified += bit != want
            worst = max(worst, abs(value - want))
    elapsed = time.time() - started
    assert misclassified == 0
    assert worst < 1e-4
    assert elapsed < 60.0
    _report(1, f"0 misclassifications, worst |N^2 q - bit| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_zero_identities():
    started = time.time()
    worst_plain = max(
        zero_identity_residual(k, N, 1.0) for k in (1, 2) for N in range(-20, 1)
    )
    assert worst_plain < 1e-6
    worst_shifted = 0.0
    for y in range(-10, 1):
        for base in (5, 6):
            ev = q_shifted_analytic(1, base, y - base, 1.0)
            worst_shifted = max(worst_shifted, abs(ev.value))
    assert worst_shifted < 1e-6
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(
        2,
        f"plain residual {worst_plain:.2e}, shifted residual {worst_shifted:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_diophantine_sums():
    started = time.time()
    weights = (unit_weight(), alternating_weight(), reciprocal_weight())
    worst_sum = worst_diff = worst_cross = 0.0
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            for N in range(1, 101):
                inst = DiophantineInstance(N, d, k, "sum")
                unit_ev = unit_sum_squares(inst, 1.0)
                for g in weights:
                    ev = sum_squares_analytic(g, inst, 1.0)
                    oracle = sum_squares_bruteforce(inst, g) / (k * k)
                    diff = abs(ev.value - oracle)
                    assert diff < 1e-6 + ev.error_estimate, ("sum", N, d, k, g.label, diff)
                    worst_sum = max(worst_sum, diff)
                    if g.label == "unit":
                        cross = abs(unit_ev.value - ev.value)
                        assert cross < unit_ev.error_estimate + ev.error_estimate
                        worst_cross = max(worst_cross, cross)
                        diff_u = abs(unit_ev.value - oracle)
                        assert diff_u < 1e-6 + unit_ev.error_estimate
                inst = DiophantineInstance(N, d, k, "difference")
                unit_ev = unit_sum_diff(inst, 1.0)
                for g in weights:
                    ev = sum_diff_analytic(g, inst, 1.0)
                    raw, tail = sum_diff_bruteforce(inst, g, 10**4)
                    oracle = raw / (k * k)
                    allowance = 1e-6 + ev.error_estimate + tail / (k * k)
                    diff = abs(ev.value - oracle)
                    assert diff < allowance, ("diff", N, d, k, g.label, diff)
                    worst_diff = max(worst_diff, diff)
                    if g.label == "unit":
                        cross = abs(unit_ev.value - ev.value)
                        assert cross < unit_ev.error_estimate + ev.error_estimate
                        worst_cross = max(worst_cross, cross)
                        diff_u = abs(unit_ev.value - oracle)
                        assert diff_u < 1e-6 + unit_ev.error_estimate + tail / (k * k)
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(
        3,
        f"worst sum-kind {worst_sum:.2e}, worst difference {worst_diff:.2e}, "
        f"worst cross-organization {worst_cross:.2e}, {elapsed:.0f}s",
    )


def test_criterion_4_divisor_pair_sums():
    started = time.time()
    worst = 0.0
    for N in range(1, 101):
        for g in (unit_weight(), reciprocal_weight()):
            ev = divisor_pair_sum_analytic(g, N, 1.0)
            diff = abs(ev.value - _divisor_pair_bruteforce(g, N))
            assert diff < 1e-6, (N, g.label, diff)
            worst = max(worst, diff)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(4, f"worst |analytic - enumeration| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_sigma_recovery():
    started = time.time()
    residuals = sigma_decomposition_residuals(10**4)
    assert residuals.shape == (10**4,) and (residuals == 0).all()
    decomposition_s = time.time() - started
    assert decomposition_s < 5.0
    worst = 0.0
    for N in range(2, 101):
        ev = sigma_analytic(N, 1.0)
        exact = sigma_bruteforce(N)
        diff = abs(ev.value - exact)
        assert diff < 0.25 and round(ev.value) == exact, (N, diff)
        worst = max(worst, diff)
    assert worst < 1e-2
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(
        5,
        f"decomposition exact to 1e4 in {decomposition_s:.1f}s, "
        f"worst |sigma series - sigma| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_rh_inequality():
    started = time.time()
    worst_margin_analytic = math.inf
    for N in range(2, 201):
        ev = sigma_analytic(N, 1.0)
        margin = lagarias_rhs(N) - ev.value
        assert margin > 0.0, (N, margin)
        worst_margin_analytic = min(worst_margin_analytic, margin)
    h = 1.0
    worst_margin_exact = math.inf
    for N in range(2, 5041):
        h += 1.0 / N
        margin = h + math.exp(h) * math.log(h) - sigma_bruteforce(N)
        assert margin > 0.0, (N, margin)
        worst_margin_exact = min(worst_margin_exact, margin)
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(
        6,
        f"min analytic margin {worst_margin_analytic:.3f} (N<=200), "
        f"min exact margin {worst_margin_exact:.3f} (N<=5040), {elapsed:.1f}s",
    )


def test_criterion_7_inversion_machinery():
    started = time.time()
    worst = 0.0
    for F in (geometric_series_evaluator(), indicator_series_evaluator(1)):
        for N in range(-5, 31):
            want = F.coefficient(N) if N >= 1 else 0.0
            worst = max(worst, abs(invert_series(F, N, 1.0).value - want))
    assert worst < 1e-6
    res_geo = lemma4_residual(lambda n: 0.5**n, 0.0, 1.0, 200)
    ind = indicator_series_evaluator(1)
    res_ind = lemma4_residual(ind.coefficient, 0.0, 1.0, 400)
    assert res_geo < 1e-6 and res_ind < 1e-6
    cons = max(
        self_consistency_residual(geometric_series_evaluator(), 1.0),
        self_consistency_residual(indicator_series_evaluator(1), 1.0),
    )
    assert cons < 1e-6
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(
        7,
        f"worst recovery {worst:.2e}, coefficient-identity residuals "
        f"{max(res_geo, res_ind):.2e}, consistency {cons:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_kernels_and_integrals():
    started = time.time()
    for name in ("kernels", "integrals"):
        for label, residual, allowance in run_suite(name):
            assert residual <= allowance + 1e-12, (name, label, residual)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(8, f"kernel and integral suites clean, {elapsed:.1f}s")


def test_criterion_9_t_independence():
    started = time.time()
    worst = 0.0
    for N in (10, 25, 36):
        evs = [q_analytic(1, N, t) for t in (0.8, 1.0, 1.5)]
        spread = max(e.value for e in evs) - min(e.value for e in evs)
        allowance = sum(e.error_estimate for e in evs)
        assert spread < allowance, ("q", N, spread)
        worst = max(worst, spread * N * N)
    for N in (6, 10, 30):
        evs = [sigma_analytic(N, t) for t in (0.8, 1.0, 1.25)]
        spread = max(e.value for e in evs) - min(e.value for e in evs)
        allowance = sum(e.error_estimate for e in evs)
        assert spread < allowance, ("sigma", N, spread)
        worst = max(worst, spread)
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(9, f"worst t-spread {worst:.2e}, {elapsed:.1f}s")

import math

import numpy as np
import pytest

from arithsum import indicators, sigma_rh
from arithsum.dsums import _square_roots
from arithsum.indicators import BlockTables, block_value
from arithsum.series import Evaluation
from arithsum.sigma_rh import (
    _sigma_r_len,
    EULER_GAMMA,
    harmonic,
    lagarias_rhs,
    rh_check,
    robin_rhs,
    sigma_analytic,
    sigma_bruteforce,
    sigma_decomposition_residuals,
)


def test_sigma_bruteforce_examples():
    assert sigma_bruteforce(1) == 1
    assert sigma_bruteforce(6) == 12
    assert sigma_bruteforce(28) == 56
    assert sigma_bruteforce(12) == 28
    assert sigma_bruteforce(5040) == 19344


def test_decomposition_examples():
    res = sigma_decomposition_residuals(6)
    assert res.dtype == np.int64
    assert res[[1 - 1, 4 - 1, 6 - 1]].tolist() == [0, 0, 0]


def test_decomposition_range():
    res = sigma_decomposition_residuals(3000)
    assert res.shape == (3000,) and res.dtype == np.int64
    assert (res == 0).all()


def _scanned_a_sums(N: int) -> int:
    # the search the listing replaced: every candidate 4N + a^2, a < N,
    # tested for squareness
    a = np.arange(1, N, dtype=np.int64)
    return int(_square_roots(4 * N + a * a)[1].sum())


def test_listed_a_sums_equal_the_scan():
    listed = sigma_rh._square_pair_sums(3000)
    assert listed.tolist() == [_scanned_a_sums(N) for N in range(1, 3001)]


@pytest.mark.parametrize("n_max", [1, 2, 10**4])
def test_sieve_equals_trial_division(n_max):
    sieved = sigma_rh._sigma_sieve(n_max)
    assert sieved.dtype == np.int64
    assert sieved.tolist() == [sigma_bruteforce(N) for N in range(1, n_max + 1)]


def test_no_square_past_a_equal_n():
    # the premise of divisor_pair_sum_analytic's zero omitted mass: the
    # shifts a >= N add nothing (4N + a^2 = b^2 needs N = j(a + j) > a)
    for N in range(1, 1001):
        a = np.arange(N, 3 * N + 1, dtype=np.int64)
        assert _square_roots(4 * N + a * a)[0].size == 0, N


@pytest.mark.parametrize("n_max", [0, -1])
def test_decomposition_refuses_n_max_below_one(n_max):
    with pytest.raises(ValueError, match="n_max"):
        sigma_decomposition_residuals(n_max)


def test_sigma_analytic_examples():
    assert abs(sigma_analytic(6, 1.0).value - 12) < 1e-3
    assert abs(sigma_analytic(10, 1.0).value - 18) < 1e-3
    ev = sigma_analytic(49, 1.0)
    assert abs(ev.value - 57) < 1e-2


def test_sigma_analytic_rounds_exactly():
    for N in range(2, 41):
        ev = sigma_analytic(N, 1.0)
        exact = sigma_bruteforce(N)
        assert abs(ev.value - exact) < 0.25
        assert round(ev.value) == exact


@pytest.mark.parametrize("N", [450, 600])
def test_sigma_analytic_top_of_benchmark_range(N):
    # windows of 2 r_len + 1 ~ 4.4e5 and 7.7e5 terms, 7 and 13 tiles of
    # the G-part contraction
    ev = sigma_analytic(N, 1.0)
    exact = sigma_bruteforce(N)
    assert round(ev.value) == exact
    assert abs(ev.value - exact) <= ev.error_estimate


@pytest.mark.parametrize("t", [0.7, 1.5])
@pytest.mark.parametrize("N", [6, 30, 97])
def test_sigma_is_weighted_sum_of_blocks(N, t):
    # sigma(N) = q_1(N) sqrt(N) + sum_a (4N+a^2)^(5/2) block(4N, a^2)
    # each block's window is |r| <= r_len at base 4N, M = r - 4N
    r_len = _sigma_r_len(N, t)
    lo, hi = -r_len - 4 * N, r_len - 4 * N
    tables = BlockTables(1, t, lo, hi, r_len + (N - 1) ** 2)
    want = math.sqrt(N) if math.isqrt(N) ** 2 == N else 0.0
    want += math.fsum(
        (4 * N + a * a) ** 2.5 * block_value(tables, 4 * N + a * a, lo, hi) for a in range(1, N)
    )
    assert sigma_analytic(N, t).value == pytest.approx(want, rel=1e-10)


def test_one_plan_builds_its_grids_once(monkeypatch):
    # the walk of test_sigma_is_weighted_sum_of_blocks at N = 97, one shift
    # a^2 at a time, over one plan sized for the largest shift: the grids
    # are built in BlockTables.__init__ and by no shift.  The held tables
    # start empty, so the plan cannot borrow an earlier test's grids
    monkeypatch.setattr(indicators, "_HELD", {})
    built = []
    for name in ("j_values", "_g_grid"):
        real = getattr(indicators, name)
        monkeypatch.setattr(
            indicators, name, lambda *args, name=name, real=real, **kw: built.append(name) or real(*args, **kw)
        )
    N, t = 97, 1.0
    r_len = _sigma_r_len(N, t)
    lo, hi = -r_len - 4 * N, r_len - 4 * N
    tables = BlockTables(1, t, lo, hi, r_len + (N - 1) ** 2)
    for a in range(1, N):
        block_value(tables, 4 * N + a * a, lo, hi)
    assert sorted(built) == ["_g_grid", "j_values"], built
    # a second plan at the same (k, t) whose grids lie inside the first's
    # builds nothing: it reads the held tables
    N = 50
    r_len = _sigma_r_len(N, t)
    lo, hi = -r_len - 4 * N, r_len - 4 * N
    tables = BlockTables(1, t, lo, hi, r_len + (N - 1) ** 2)
    for a in range(1, N):
        block_value(tables, 4 * N + a * a, lo, hi)
    assert sorted(built) == ["_g_grid", "j_values"], built


@pytest.mark.parametrize("t", [10.0, 16.0, 20.0])
@pytest.mark.parametrize("N", [2, 4, 30])
def test_sigma_error_estimate_covers_sinh_amplification(N, t):
    # at large t the G-part is multiplied by sinh(pi t), and so is its rounding
    ev = sigma_analytic(N, t)
    assert abs(ev.value - sigma_bruteforce(N)) <= ev.error_estimate


def test_sigma_t_independence():
    for N in (6, 10, 30):
        evs = [sigma_analytic(N, t) for t in (0.8, 1.0, 1.25)]
        spread = max(e.value for e in evs) - min(e.value for e in evs)
        assert spread < max(e.error_estimate for e in evs) + 1e-6


def test_harmonic():
    assert harmonic(1) == 1.0
    assert harmonic(2) == 1.5
    assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)


def test_lagarias_rhs():
    assert lagarias_rhs(1) == 1.0  # H_1 = 1, log 1 = 0
    # frozen against 40-digit arithmetic
    assert lagarias_rhs(2) == pytest.approx(3.3171685434118022, rel=1e-14)
    h4 = 25.0 / 12.0
    assert lagarias_rhs(4) == pytest.approx(h4 + math.exp(h4) * math.log(h4), rel=1e-15)
    assert lagarias_rhs(4) == pytest.approx(7.977982899505052, rel=1e-14)


def test_robin_rhs():
    # frozen against 40-digit arithmetic with the declared gamma constant
    assert robin_rhs(5041) == pytest.approx(19241.087346741728, rel=1e-13)
    assert robin_rhs(10000) == pytest.approx(39545.628337460345, rel=1e-13)
    with pytest.raises(ValueError):
        robin_rhs(5040)
    assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=0)


def test_rh_check_examples():
    rec = rh_check(2, mode="exact")
    assert rec.sigma_exact == 3
    assert rec.margin == pytest.approx(3.3171685434118022 - 3.0, rel=1e-12)
    assert rec.margin > 0
    rec = rh_check(12, mode="exact")
    assert rec.sigma_exact == 28 and rec.margin > 0
    rec = rh_check(6, mode="analytic", t=1.0)
    assert abs(rec.sigma_analytic - 12) < 1e-3 and rec.margin > 0
    assert rec.robin_rhs is None
    rec = rh_check(5041, mode="exact")
    assert rec.robin_rhs == pytest.approx(19241.087346741728, rel=1e-12)


def test_rh_check_domain():
    with pytest.raises(ValueError):
        rh_check(1)
    with pytest.raises(ValueError):
        rh_check(10, mode="fancy")


def test_domain_errors():
    with pytest.raises(ValueError):
        sigma_bruteforce(0)
    with pytest.raises(ValueError):
        sigma_analytic(1, 1.0)
    with pytest.raises(ValueError):
        sigma_analytic(10, 0.0)
    with pytest.raises(ValueError):
        harmonic(0)


def test_rh_check_reports_sigma_estimate():
    assert rh_check(6, 1.0, "analytic").error_estimate == sigma_analytic(6, 1.0).error_estimate
    assert rh_check(6, 1.0, "exact").error_estimate == 0.0


def test_rh_check_returns_an_ambiguous_sigma(monkeypatch):
    # a series value of 3.5 rounds to no integer: the record carries it,
    # with its gap to sigma_exact and its estimate, rather than raising
    monkeypatch.setattr(sigma_rh, "sigma_analytic", lambda N, t: Evaluation(3.5, 0.75))
    rec = rh_check(2, 16.0, "analytic")
    assert rec.sigma_exact == 3
    assert rec.sigma_analytic == 3.5 and rec.error_estimate == 0.75
    assert abs(rec.sigma_analytic - round(rec.sigma_analytic)) >= 0.25
    assert not abs(rec.sigma_analytic - rec.sigma_exact) < 0.25
    assert rec.margin == rec.lagarias_rhs - rec.sigma_analytic

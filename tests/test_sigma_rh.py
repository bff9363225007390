import math

import pytest

from arithsum import indicators
from arithsum.indicators import AmbiguousClassification, BlockTables, block_value
from arithsum.sigma_rh import (
    _sigma_r_len,
    EULER_GAMMA,
    harmonic,
    lagarias_rhs,
    rh_check,
    robin_rhs,
    sigma_analytic,
    sigma_bruteforce,
    sigma_decomposition_check,
)


def test_sigma_bruteforce_examples():
    assert sigma_bruteforce(1) == 1
    assert sigma_bruteforce(6) == 12
    assert sigma_bruteforce(28) == 56
    assert sigma_bruteforce(12) == 28
    assert sigma_bruteforce(5040) == 19344


def test_decomposition_examples():
    assert sigma_decomposition_check(1) == 0
    assert sigma_decomposition_check(4) == 0
    assert sigma_decomposition_check(6) == 0


def test_decomposition_range():
    assert all(sigma_decomposition_check(N) == 0 for N in range(1, 3001))


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
    tables = BlockTables(4 * N, 1, t)
    r_len = _sigma_r_len(N, t)
    want = math.sqrt(N) if math.isqrt(N) ** 2 == N else 0.0
    want += math.fsum(
        (4 * N + a * a) ** 2.5 * block_value(tables, a * a, r_len) for a in range(1, N)
    )
    assert sigma_analytic(N, t).value == pytest.approx(want, rel=1e-10)


def test_growing_tables_are_not_rebuilt_per_shift(monkeypatch):
    # the walk of test_sigma_is_weighted_sum_of_blocks at N = 97: a table
    # at its default size asked for shifts a^2 in increasing order must grow
    # geometrically, not rebuild J for every shift
    built = []
    real = indicators.j_values
    monkeypatch.setattr(indicators, "j_values", lambda q, t: built.append(q) or real(q, t))
    N, t = 97, 1.0
    tables = BlockTables(4 * N, 1, t)
    r_len = _sigma_r_len(N, t)
    for a in range(1, N):
        block_value(tables, a * a, r_len)
    assert len(built) <= 4, built


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

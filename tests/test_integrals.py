import math

import numpy as np
import pytest

from arithsum.integrals import (
    WEIGHT_TOL,
    QuadratureError,
    _exp_series_terms,
    _p_weights,
    integral_i,
    integral_j,
    integral_k,
    j_values,
    quadrature_oracle,
)


@pytest.mark.parametrize("kind,f", [("I", integral_i), ("K", integral_k), ("J", integral_j)])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_closed_forms_match_quadrature(kind, f, t):
    for q in range(-10, 11):
        cf = f(q, t)
        oracle = quadrature_oracle(kind, q, t, 1e-12)
        assert abs(cf.value - oracle) < 1e-9 + 1e-12, (kind, q, t)
        assert cf.error_estimate >= 0.0


def test_integral_i_examples():
    assert integral_i(0, 1.0).value == 0.0
    oracle = quadrature_oracle("I", 3, 1.0, 1e-12)
    assert abs(integral_i(3, 1.0).value - oracle) < 1e-9
    assert integral_i(-3, 1.0).value == -integral_i(3, 1.0).value


def test_integral_k_examples():
    assert abs(integral_k(0, 1.0).value - quadrature_oracle("K", 0, 1.0, 1e-12)) < 1e-9
    assert abs(integral_k(4, 0.5).value - quadrature_oracle("K", 4, 0.5, 1e-12)) < 1e-9
    assert integral_k(-4, 0.5).value == integral_k(4, 0.5).value


def test_integral_j_examples():
    want = 2.0 * math.atan(math.tanh(math.pi / 2.0)) / math.pi
    assert integral_j(0, 1.0).value == pytest.approx(want, rel=1e-14)
    assert abs(integral_j(5, 1.0).value - quadrature_oracle("J", 5, 1.0, 1e-12)) < 1e-9
    assert integral_j(-5, 1.0).value == integral_j(5, 1.0).value


def test_quadrature_oracle_examples():
    want = 2.0 * math.atan(math.tanh(math.pi / 2.0)) / math.pi
    assert abs(quadrature_oracle("J", 0, 1.0, 1e-10) - want) < 1e-10
    assert abs(quadrature_oracle("I", 0, 2.0, 1e-10)) < 1e-10
    k0 = quadrature_oracle("K", 0, 1.0, 1e-10)
    assert 0.0 < k0 < 0.25


def test_quadrature_oracle_errors():
    with pytest.raises(ValueError):
        quadrature_oracle("X", 0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        quadrature_oracle("I", 0, 1.0, 1e-13)
    with pytest.raises(ValueError):
        quadrature_oracle("I", 0, -1.0, 1e-10)


def test_domain_errors():
    for f in (integral_i, integral_k, integral_j):
        with pytest.raises(ValueError):
            f(1, 0.0)
        with pytest.raises(ValueError):
            f(1, -0.5)


def test_partial_fraction_identities():
    # the three alternating partial-fraction sums behind the closed forms,
    # each against its closed form within the alternating remainder bound
    for z in (0.5, 1.0, 2.0):
        n = np.arange(1, 4001, dtype=float)
        sgn = np.where(np.arange(1, 4001) % 2 == 0, -1.0, 1.0)
        s1 = float(np.sum(sgn / (n * n + z * z)))
        c1 = 1.0 / (2 * z * z) - math.pi / (2 * z * math.sinh(math.pi * z))
        assert abs(s1 - c1) < 1.0 / (4000**2 + z * z)
        s2 = float(np.sum(sgn / (n * n + z * z) ** 2))
        c2 = (
            1.0 / (2 * z**4)
            - math.pi / (4 * z**3 * math.sinh(math.pi * z))
            - math.pi**2 * math.cosh(math.pi * z) / (4 * z * z * math.sinh(math.pi * z) ** 2)
        )
        assert abs(s2 - c2) < 1.0 / (4000**2 + z * z) ** 2
        m = np.arange(0, 4000, dtype=float)
        odd = 2 * m + 1
        s3 = float(np.sum(np.where(m % 2 == 0, 1.0, -1.0) * odd / (odd * odd + z)))
        c3 = math.pi / (4 * math.cosh(math.pi * math.sqrt(z) / 2))
        assert abs(s3 - c3) < 1.0 / odd[-1]


def test_j_values_table_matches_scalar():
    # integral_j is the table's code on one element, so the two agree bit
    # for bit; I is exactly odd in q, and K and J exactly even
    for t in (0.003, 0.1, 0.5, 1.0, 2.0, 4.6, 8.0):
        table = j_values(80, t)
        for q in range(81):
            assert integral_j(q, t).value == table[q], (q, t)
            assert integral_j(-q, t).value == table[q], (q, t)
            assert integral_i(-q, t).value == -integral_i(q, t).value, (q, t)
            assert integral_k(-q, t).value == integral_k(q, t).value, (q, t)


@pytest.mark.parametrize("t", [0.001, 0.002, 0.003])
def test_j_values_at_small_t_match_quadrature(t):
    # P's grid holds about 8,100 weights at t = 0.001, with no cap
    table = j_values(40, t)
    for q in range(41):
        assert abs(table[q] - quadrature_oracle("J", q, t, 1e-12)) <= 1e-12, q


def _mp_integral(f, q):
    """40-digit quadrature of f over [0, 1], split at the zeros of its
    oscillating factor."""
    import mpmath

    with mpmath.workdps(40):
        return mpmath.quad(f, mpmath.linspace(0, 1, max(1, abs(q)) + 1))


@pytest.mark.parametrize("t", [4.6, 5.0])
def test_j_at_large_t_matches_mpmath(t):
    # the m = 1 weight is ~1e-12 of J here, and below 1e-18 in absolute terms
    import mpmath

    T = mpmath.mpf(t)
    for q in (50, 200):
        want = _mp_integral(lambda b: mpmath.cos(mpmath.pi * q * b) / mpmath.cosh(mpmath.pi * b * T), q)
        assert abs(j_values(q, t)[q] - want) <= 1e-14 * abs(want), q


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0, 8.0])
def test_i_and_k_match_mpmath(t):
    import mpmath

    T = mpmath.mpf(t)
    fermi = lambda b: 1 / (mpmath.exp(2 * mpmath.pi * b * T) + 1)
    for q in (1, 2, 7, 30, 120):
        want_i = _mp_integral(lambda b: mpmath.sin(mpmath.pi * q * b) * fermi(b), q)
        want_k = _mp_integral(lambda b: b * mpmath.cos(mpmath.pi * q * b) * fermi(b), q)
        assert abs(integral_i(q, t).value - want_i) <= 1e-13 * abs(want_i), q
        assert abs(integral_k(q, t).value - want_k) <= 1e-13 * abs(want_k), q


def test_weight_grids_follow_one_rule():
    # every weight a grid omits is below WEIGHT_TOL of its leading weight,
    # and the grids stop within two weights of the shortest such grid; the
    # comparisons are of logarithms, since the weights underflow
    log_tol = math.log(WEIGHT_TOL)
    for t in np.geomspace(1e-3, 50.0, 41):
        r, w = _exp_series_terms(t)
        assert w[0] == pytest.approx(math.exp(-2.0 * math.pi * t), rel=1e-15)
        # log(|w_r| / |w_1|) = -2 pi t (r - 1)
        assert -2.0 * math.pi * t * r[-1] < log_tol, t
        assert r.size == 4 or -2.0 * math.pi * t * (r[-3] - 1.0) >= log_tol, t
        n, c = _p_weights(t)
        assert c[0] == pytest.approx(math.exp(-math.pi * t), rel=1e-15)
        assert np.all(np.diff(n) == 2.0) and np.all(c[1::2] < 0) and np.all(c[::2] > 0)
        # log(|c_n| / |c_1|) = ln n - pi t (n - 1), over every omitted n up
        # to well past the grid; it only falls beyond that
        omitted = np.arange(n[-1] + 2.0, 4.0 * n[-1] + 100.0, 2.0)
        assert np.all(np.log(omitted) - math.pi * t * (omitted - 1.0) < log_tol), t
        assert n.size < 3 or math.log(n[-3]) - math.pi * t * (n[-3] - 1.0) >= log_tol, t


def test_series_lengths_reported():
    ev = integral_j(3, 1.0)
    assert ev.series_terms_used >= 1
    ev = integral_i(0, 1.0)
    assert ev.series_terms_used == 0

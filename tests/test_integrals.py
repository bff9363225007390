import math
import sys

import numpy as np
import pytest

from arithsum import integrals
from arithsum.integrals import (
    _TABLE_TOL,
    WEIGHT_TOL,
    QuadratureError,
    _exp_series_terms,
    _gauss_legendre_rules,
    _j,
    _log_rest,
    _moment_count,
    _moments,
    _p_part,
    _p_weights,
    _s_tail_form,
    _segment_start,
    _table_q0,
    integral_i,
    integral_j,
    integral_k,
    j_values,
    p_values,
    quadrature_oracle,
    sech_values,
)
from arithsum.indicators import _two_sided_j
from arithsum.kernels import T_MAX
from arithsum.series import _TAIL_TOL


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
    for kind in ("I", "K", "J"):  # 5e5 periods of cos(pi q b) need far more than 500 panels
        with pytest.raises(QuadratureError):
            quadrature_oracle(kind, 10**6, 1.0)


@pytest.mark.parametrize("t", np.geomspace(0.01, 20.0, 5).tolist())
def test_quadrature_oracle_matches_mpmath(t):
    import mpmath

    T = mpmath.mpf(t)
    fermi = lambda b: 1 / (mpmath.exp(2 * mpmath.pi * b * T) + 1)
    integrands = {
        "I": lambda q: lambda b: mpmath.sin(mpmath.pi * q * b) * fermi(b),
        "K": lambda q: lambda b: b * mpmath.cos(mpmath.pi * q * b) * fermi(b),
        "J": lambda q: lambda b: mpmath.cos(mpmath.pi * q * b) / mpmath.cosh(mpmath.pi * b * T),
    }
    for kind, integrand in integrands.items():
        for q in range(11):
            want = _mp_integral(integrand(q), q)
            for sq, sign in ((q, 1), (-q, -1 if kind == "I" else 1)):  # I is odd in q
                assert abs(quadrature_oracle(kind, sq, t) - sign * want) <= 1e-14, (kind, sq)


@pytest.mark.parametrize("n", [20, 40])
def test_gauss_legendre_weights_match_mpmath(n):
    # numpy's leggauss weights were off by up to 7e-14 (n = 20) and 7e-13
    # (n = 40) relative; 40-digit Newton-polished nodes are the reference
    import mpmath

    x, w = _gauss_legendre_rules()[n // 40]
    assert x.size == n and (np.diff(x) > 0).all()
    with mpmath.workdps(40):
        for xi, wi in zip(x.tolist(), w.tolist()):
            node = mpmath.mpf(xi)
            for _ in range(8):
                node -= mpmath.legendre(n, node) / mpmath.diff(lambda z: mpmath.legendre(n, z), node)
            want = 2 / ((1 - node**2) * mpmath.diff(lambda z: mpmath.legendre(n, z), node) ** 2)
            assert abs(xi - node) <= 2.0**-53
            assert abs(wi - want) <= 1e-15 * want, (xi, wi)


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
    # integral_j is the signed table's code on one element with its sign
    # (-1)^q restored, so the two agree bit for bit; I is exactly odd in q,
    # and K and J exactly even
    for t in (0.003, 0.1, 0.5, 1.0, 2.0, 4.6, 8.0):
        table = j_values(80, t)
        for q in range(81):
            sign = -1.0 if q % 2 else 1.0
            assert integral_j(q, t).value == sign * table[q], (q, t)
            assert integral_j(-q, t).value == sign * table[q], (q, t)
            assert integral_i(-q, t).value == -integral_i(q, t).value, (q, t)
            assert integral_k(-q, t).value == integral_k(q, t).value, (q, t)


def _full_head_j(Q, t):
    # J with its sech head at every q: sech(pi q/(2t))/(2t) + (-1)^q (-(2t/pi) P(q)),
    # the P-part in the table's own form, the weight sum below q0 and the
    # moment form from q0 on
    q = np.arange(Q + 1)
    head = sech_values(math.pi * q / (2.0 * t)) / (2.0 * t)
    sign_q = np.where(q % 2 == 0, 1.0, -1.0)
    return head + sign_q * _p_part(q, t)


def _weight_sum_j(Q, t):
    # J from the weight sum alone at every q: sech(pi q/(2t))/(2t) + (-1)^(q-1) (2t/pi) P(q)
    q = np.arange(Q + 1)
    head = sech_values(math.pi * q / (2.0 * t)) / (2.0 * t)
    sign_q = np.where(q % 2 == 0, -1.0, 1.0)
    return head + sign_q * (2.0 * t / math.pi) * p_values(q, t)


@pytest.mark.parametrize("t", [0.1, 0.37, 1.0, 6.9, 8.0, T_MAX])
def test_j_table_skips_only_the_head_that_is_zero(t):
    # past q_s = ceil(746 * 2t/pi) the head sech(pi q/(2t)) is +0, so the table
    # leaves it out there; the signed table (-1)^q J keeps the full-head bits
    # on both sides of q_s
    qs = math.ceil(746.0 * 2.0 * t / math.pi)
    for Q in (qs - 1, qs, qs + 1, 4 * qs):
        want = _full_head_j(Q, t)
        sign = np.where(np.arange(Q + 1) % 2, -1.0, 1.0)
        assert np.array_equal((sign * j_values(Q, t)).view(np.int64), want.view(np.int64)), (t, Q)
        m = np.arange(-Q, Q + 1)
        signed = np.where(m % 2, -1.0, 1.0) * want[np.abs(m)]
        assert np.array_equal(_two_sided_j(Q, t).view(np.int64), signed.view(np.int64)), (t, Q)
    for q in (qs - 1, qs, qs + 1):
        assert integral_j(q, t).value == _full_head_j(q, t)[q], (t, q)


@pytest.mark.parametrize("t", [0.001, 0.002, 0.003])
def test_j_values_at_small_t_match_quadrature(t):
    # P's grid holds about 8,100 weights at t = 0.001, with no cap; the
    # table is signed, (-1)^q J(q)
    table = j_values(40, t)
    for q in range(41):
        assert abs((-1) ** q * table[q] - quadrature_oracle("J", q, t, 1e-12)) <= 1e-12, q


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
        assert abs((-1) ** q * j_values(q, t)[q] - want) <= 1e-14 * abs(want), q


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
    # Python floats, not numpy scalars, from all three closed forms
    for f in (integral_i, integral_k, integral_j):
        for q in (0, 3, 8):
            ev = f(q, 1.0)
            assert type(ev.value) is float and type(ev.error_estimate) is float, (f.__name__, q)
            assert type(ev.series_terms_used) is int, (f.__name__, q)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0, 8.0])
def test_estimates_bound_the_error(t):
    # the estimate carries the rounding as well as the first omitted term:
    # with the omitted term alone, integral_k(1, 0.5) is off by 1.0e-17
    # against an estimate of 4.0e-25
    import mpmath

    T = mpmath.mpf(t)
    fermi = lambda b: 1 / (mpmath.exp(2 * mpmath.pi * b * T) + 1)
    integrands = {
        integral_i: lambda q: lambda b: mpmath.sin(mpmath.pi * q * b) * fermi(b),
        integral_k: lambda q: lambda b: b * mpmath.cos(mpmath.pi * q * b) * fermi(b),
        integral_j: lambda q: lambda b: mpmath.cos(mpmath.pi * q * b) / mpmath.cosh(mpmath.pi * b * T),
    }
    for f, integrand in integrands.items():
        for q in (1, 2, 7, 30, 120):
            ev = f(q, t)
            assert abs(ev.value - _mp_integral(integrand(q), q)) <= ev.error_estimate, (f.__name__, q)
            assert ev.error_estimate <= 1e-12, (f.__name__, q)


# t log-spaced on [1e-3, 20], and both sides of the gate near 0.885
_T_GRID = sorted(np.geomspace(1e-3, 20.0, 13).tolist() + [0.45, 0.55, 0.6, 0.8, 0.85, 1.0, 1.5, 2.0])


def _q0(t):
    """Where J's moment form starts: max(32, ceil(2t n_max))."""
    return max(32, math.ceil(2.0 * t * float(_p_weights(t)[0][-1])))


def _mp_p_part(q, t):
    """S(q) without its sech head, -(2t/pi) P(q), at 40 digits, from J's weight series summed by mpmath."""
    import mpmath

    with mpmath.workdps(40):
        Q, T = mpmath.mpf(q), mpmath.mpf(t)
        P = mpmath.nsum(
            lambda m: (-1) ** m * (2 * m + 1) * mpmath.exp(-mpmath.pi * T * (2 * m + 1)) / (T * T * (2 * m + 1) ** 2 + Q * Q),
            [0, mpmath.inf],
        )
        return -2 * T / mpmath.pi * P


def _mp_s(q, t):
    """S(q) = (-1)^q J(q, t) at 40 digits: its sech head plus ``_mp_p_part``."""
    import mpmath

    with mpmath.workdps(40):
        Q, T = mpmath.mpf(q), mpmath.mpf(t)
        return (-1) ** q * mpmath.sech(mpmath.pi * Q / (2 * T)) / (2 * T) + _mp_p_part(q, t)


def _mp_coeffs(t, m):
    """c_j = -(2t/pi) (-t^2)^j mu_j, j < m, at 40 digits, with mu_j = -(d/dx)^(2j+1) [sech(x)/2]
    at x = pi t from mpmath's derivatives of sech."""
    import mpmath

    with mpmath.workdps(40):
        T = mpmath.mpf(t)
        ders = list(mpmath.diffs(mpmath.sech, mpmath.pi * T, 2 * m))
        return [2 * T / mpmath.pi * (-T * T) ** j * ders[2 * j + 1] / 2 for j in range(m)]


@pytest.mark.parametrize("t", _T_GRID)
def test_far_entries_match_mpmath(t):
    # the moment form holds 1e-15 relative and within integral_j's estimate,
    # and serves every t up to 0.85; above the gate, near 0.885, the table is
    # the weight sum, bit for bit, so no entry is worse than the weight sum's
    q0, moments = _q0(t), _table_q0(t) < sys.maxsize
    assert moments or t > 0.85
    table = j_values(10**4, t)
    if not moments:
        sign = np.where(np.arange(10**4 + 1) % 2, -1.0, 1.0)
        assert np.array_equal((sign * table).view(np.int64), _weight_sum_j(10**4, t).view(np.int64))
    for q in (q0, q0 + 1, 100, 10**4):
        want = _mp_s(q, t)
        if moments:
            assert abs(table[q] - want) <= 1e-15 * abs(want), q
        ev = integral_j(q, t)
        assert abs((-1) ** q * ev.value - want) <= ev.error_estimate, q


@pytest.mark.parametrize("t", _T_GRID)
def test_j_below_q0_is_the_weight_sum(t):
    # the moment form starts at q0 = max(32, ceil(2t n_max)); below it J is
    # the weight sum that p_values and the oracles read
    q0 = _q0(t)
    assert _table_q0(t) in (q0, sys.maxsize)
    sign = np.where(np.arange(q0) % 2, -1.0, 1.0)
    got = sign * j_values(q0 + 1, t)[:q0]
    assert np.array_equal(got.view(np.int64), _weight_sum_j(q0 - 1, t).view(np.int64))


@pytest.mark.parametrize("t", [0.001, 0.01, 0.1, 0.45, 1.0])
def test_j_entries_do_not_depend_on_the_build(monkeypatch, t):
    # an entry depends on (q, t) alone, whatever the table's length, its
    # out= window or its chunks; the held tables' join relies on this
    Q = 5000
    want = j_values(Q, t).view(np.int64)
    for q_max in (31, 32, 33, 63, 64, 65, 1000):
        assert np.array_equal(j_values(q_max, t).view(np.int64), want[: q_max + 1]), q_max
    buf = np.full(Q + 11, np.nan)
    j_values(Q, t, out=buf[7 : Q + 8])
    assert np.array_equal(buf[7 : Q + 8].view(np.int64), want)
    for start in (1, 31, 32, 33, 63, 64, 100, 4095):
        got = _j(np.arange(start, Q + 1), t)
        assert np.array_equal(got.view(np.int64), want[start:]), start
    monkeypatch.setattr(integrals, "TABLE_CHUNK", 1001)
    assert np.array_equal(j_values(Q, t).view(np.int64), want)


@pytest.mark.parametrize("t", [0.001, 0.1, 0.3, 0.45, 0.55, 0.85, 1.0])
def test_integral_j_is_its_table_entry_at_the_seams(t):
    # at the edges of the two forms, of the sech head and of the segments
    q0, qs = _q0(t), math.ceil(746.0 * 2.0 * t / math.pi)
    seams = sorted({q0 - 1, q0, q0 + 1, qs - 1, qs, qs + 1, 63, 64, 65, 127, 128} - {-1})
    table = j_values(max(seams), t)
    for q in seams:
        sign = -1.0 if q % 2 else 1.0
        assert integral_j(q, t).value == sign * table[q], q
        assert integral_j(-q, t).value == sign * table[q], q


def _segment_starts(t):
    """(q, m): the first q of each segment of J's table and its count, down
    to the first count of 1, which holds for every later segment."""
    q0 = _table_q0(t)
    out = [(q0, _moment_count(t, q0, _TABLE_TOL))]
    while out[-1][1] > 1:
        q = 1 << out[-1][0].bit_length()
        out.append((q, _moment_count(t, _segment_start(q0, q), _TABLE_TOL)))
    return out


def _check_the_one_bound(t, qm, tol):
    # with exact moments in 40-digit arithmetic, the m moments read at q
    # leave out of S's P-part at most |c_0| K_m/q^(2m+2) plus the sech head
    # (_log_rest), and at most tol of the leading term |c_0|/q^2
    import mpmath

    c = _mp_coeffs(t, max(m for _, m in qm))
    for q, m in qm:
        with mpmath.workdps(40):
            Q = mpmath.mpf(q)
            rem = abs(_mp_p_part(q, t) - sum(c[j] / Q ** (2 * j + 2) for j in range(m)))
            lead = abs(c[0]) / Q**2
        assert rem <= tol * lead, (q, m)
        assert rem <= math.exp(_log_rest(t, m)) / float(q) ** (2 * m + 2) + math.exp(-math.pi * q / (2.0 * t)) / t, (q, m)


@pytest.mark.parametrize("t", [0.001, 0.01, 0.1, 0.3, 0.45, 0.55, 0.7, 0.85])
def test_each_segment_takes_enough_moments(t):
    # at the first q of every segment of J's table, the count's moments hold
    # the one bound with tol = 2^-56, and the last count, 1, holds after it
    qm = _segment_starts(t)
    _check_the_one_bound(t, qm, _TABLE_TOL)
    assert qm[-1][1] == 1


@pytest.mark.parametrize("t", [0.01, 0.3, 1.0, 10.0, 100.0])
def test_tail_form_holds_its_bound(t):
    # the inversion's tail reads S past q_min = L - |N| + 1 as the count's
    # moments at q_min with tol = 2^-40, at every t, the weights' bound taking
    # over from Cauchy's where mu_j carries sech(pi t); they hold the one
    # bound from q_min on.  The moments are checked against
    # mu_j = sum_m (-1)^m n^(2j+1) e^(-pi t n), n = 2m + 1, in mpmath, and
    # the float sum against E/q^2 + e^(-pi q/(2t))/t
    import mpmath

    q_min = max(128, math.ceil(24 * t)) + 1
    coeffs, rest = _s_tail_form(t, q_min, _TAIL_TOL)
    m, qs = coeffs.size, (q_min, 3 * q_min, 50 * q_min)
    assert m == _moment_count(t, q_min, _TAIL_TOL)
    _check_the_one_bound(t, [(q, m) for q in qs], _TAIL_TOL)
    with mpmath.workdps(40):
        T = mpmath.mpf(t)
        for j, (cj, err) in enumerate(zip(coeffs, _moments(t, m)[2])):
            mu = mpmath.nsum(lambda n: (-1) ** n * (2 * n + 1) ** (2 * j + 1) * mpmath.exp(-mpmath.pi * T * (2 * n + 1)), [0, mpmath.inf])
            assert abs(cj - float(-2 * T / mpmath.pi * (-T * T) ** j * mu)) <= err, j
    for q in qs:
        got = math.fsum(cj / float(q) ** (2 * j + 2) for j, cj in enumerate(coeffs))
        want = float(_mp_s(q, t))
        bound = rest / q**2 + math.exp(-math.pi * q / (2.0 * t)) / t + 8 * 2.0**-52 * abs(want)
        assert abs(got - want) <= bound, q


@pytest.mark.parametrize("t", [0.001, 0.1, 0.3, 0.45, 0.55])
def test_moments_round_within_their_bound(t):
    # each mu_j is an fsum of its tanh polynomial's terms, which cancel as
    # tanh(pi t) nears 1: at t = 0.45 the high moments keep about 10 digits.
    # errs bounds every coefficient's rounding, and the part of it past the
    # first two moments lies below 1e-20 of J from q0 on
    q0 = _table_q0(t)
    _, coeffs, errs = _moments(t, _moment_count(t, q0, _TABLE_TOL))
    for j, (got, want) in enumerate(zip(coeffs, _mp_coeffs(t, len(coeffs)))):
        assert abs(got - want) <= errs[j], j
    s = abs(j_values(q0, t)[q0])
    assert sum(e / float(q0) ** (2 * j + 2) for j, e in enumerate(errs) if j >= 1) <= 1e-17 * s
    assert sum(e / float(q0) ** (2 * j + 2) for j, e in enumerate(errs) if j >= 3) <= 1e-20 * s

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsum import indicators
from arithsum.indicators import (
    AmbiguousClassification,
    BlockTables,
    _closed_heads,
    _p_weights,
    block_value,
    classify_unit,
    integer_root,
    q_analytic,
    q_bruteforce,
    q_classify,
    q_general_analytic,
    q_shifted_analytic,
    zero_identity_residual,
)
from arithsum.integrals import integral_i, integral_j, integral_k, sech
from arithsum.kernels import kernel_g


def test_integer_root():
    assert integer_root(0, 3) == 0
    assert integer_root(1, 7) == 1
    assert integer_root(63, 2) == 7
    assert integer_root(64, 2) == 8
    assert integer_root(2**40, 4) == 2**10
    assert integer_root(2**40 - 1, 4) == 2**10 - 1
    with pytest.raises(ValueError):
        integer_root(-1, 2)


def test_q_bruteforce_examples():
    assert q_bruteforce(1, 1, 4) == 1
    assert q_bruteforce(2, 1, 8) == 1
    assert q_bruteforce(3, 2, 5) == 0
    assert q_bruteforce(1, 1, 0) == 0
    assert q_bruteforce(1, 1, -9) == 0
    assert q_bruteforce(1, 2, 16) == 1
    assert q_bruteforce(1, 2, 4) == 0


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=300, deadline=None)
def test_q_bruteforce_roundtrip(k, s, m):
    assert q_bruteforce(k, s, k * m ** (2 * s)) == 1


def test_q_analytic_examples():
    assert q_analytic(1, 1, 1.0).value == pytest.approx(1.0, abs=1e-6)
    assert abs(4 * q_analytic(1, 2, 1.0).value) < 1e-4
    assert q_analytic(2, 8, 1.0).value == pytest.approx(1.0 / 64.0, abs=1e-8)


def test_q_classify_examples():
    assert q_classify(1, 49, 1.0)[0] == 1
    assert q_classify(1, 50, 1.0)[0] == 0
    assert q_classify(5, 45, 1.0)[0] == 1
    assert q_classify(1, 49, 1.0)[1] < 1e-3
    assert q_classify(1, 50, 1.0)[1] < 1e-3


def test_classify_unit_raises_when_ambiguous():
    with pytest.raises(AmbiguousClassification):
        classify_unit(0.5)
    with pytest.raises(AmbiguousClassification):
        classify_unit(0.31)
    assert classify_unit(0.01) == (0, pytest.approx(0.01))
    assert classify_unit(1.2) == (1, pytest.approx(0.2))


def test_indicator_matches_definition_grid():
    for k in (1, 2, 3, 5):
        for N in range(1, 61):
            bit, _ = q_classify(k, N, 1.0)
            ev = q_analytic(k, N, 1.0)
            assert bit == q_bruteforce(k, 1, N)
            assert abs(N * N * ev.value - q_bruteforce(k, 1, N)) < 1e-4


def test_zero_identity_examples():
    assert zero_identity_residual(1, 0, 1.0) < 1e-6
    assert zero_identity_residual(2, -1, 1.0) < 1e-6
    assert zero_identity_residual(1, -10, 2.0) < 1e-6
    with pytest.raises(ValueError):
        zero_identity_residual(1, 3, 1.0)


def _mu(y, k, t):
    """The parity head mu(y) of the organization that keeps the exponential
    content inside the I and K integrals."""
    cth = 1.0 / math.tanh(math.pi * t)
    if y == 0:
        sh = math.sinh(math.pi * t)
        return (
            math.pi**4 / (90.0 * k * k)
            + math.pi**2 / 12.0
            + math.pi**2 / 4.0
            + math.pi**2 / (2.0 * sh * sh)
            - math.pi**2 * cth / 4.0
        )
    gate = 2.0 if y % 2 else 0.0  # 1 + (-1)^(y-1)
    return (
        -math.pi**2 / (6.0 * k * y)
        + gate * (math.pi**2 * cth / (6.0 * k * y) - cth / (2.0 * y * y))
        + 0.5 / (y * y)
    )


def test_integral_organization_matches_closed_heads():
    # the paper's organization of the N-dependent part of a block,
    # mu(N) + (-1)^N pi^3 coth/(3k) I(N) + (-1)^N pi^2 coth K(N), against
    # the closed head and exponential r-series that every driver uses
    ys = np.arange(-20, 101)
    for k in (1, 2, 3):
        for t in (0.1, 1.0, 3.0, 8.0):
            cth = 1.0 / math.tanh(math.pi * t)
            heads, exps = _closed_heads(ys, k, t)
            for y, head, exp_part in zip(ys.tolist(), heads, exps):
                sy = -1.0 if y % 2 else 1.0
                face = (
                    _mu(y, k, t)
                    + sy * math.pi**3 * cth / (3.0 * k) * integral_i(y, t).value
                    + sy * math.pi**2 * cth * integral_k(y, t).value
                )
                assert abs(head + exp_part - face) <= 1e-11 * max(1.0, abs(face)), (k, t, y)


def _scalar_head_and_exp(y, k, t):
    """U(y) and the three exponential r-series, term by term in scalars."""
    cth = 1.0 / math.tanh(math.pi * t)
    if y == 0:
        head = _mu(0, k, t) + math.pi**2 * cth / (48.0 * t * t)
    else:
        x = math.pi * y / (2.0 * t)
        sgn = -1.0 if y % 2 else 1.0
        head = (
            math.pi**2 / (3.0 * k * y * math.expm1(2.0 * math.pi * t))
            + (1.0 - cth) / (2.0 * y * y)
            - sgn * math.pi**3 * cth / (12.0 * k * t) / math.sinh(x)
            + sgn * math.pi**2 * cth / (8.0 * t * t) * math.cosh(x) / math.sinh(x) ** 2
        )
    exp_part = 0.0
    for r in range(1, 40):
        w = (-1) ** (r - 1) * math.exp(-2.0 * math.pi * t * r)
        d = 4.0 * t * t * r * r + y * y
        exp_part += w * (
            -y * math.pi**2 * cth / (3.0 * k * d)
            - 2.0 * math.pi * t * cth * r / d
            - cth * (4.0 * t * t * r * r - y * y) / (d * d)
        )
    return head, exp_part


@pytest.mark.parametrize("k,t", [(1, 0.7), (2, 1.0), (3, 1.6)])
def test_closed_heads_match_scalar_terms(k, t):
    ys = [-9, -2, -1, 0, 1, 2, 5, 12, 40]
    heads, exps = _closed_heads(np.array(ys), k, t)
    for y, head, exp_part in zip(ys, heads, exps):
        want_head, want_exp = _scalar_head_and_exp(y, k, t)
        assert head == pytest.approx(want_head, rel=1e-13, abs=1e-300)
        assert exp_part == pytest.approx(want_exp, rel=1e-13, abs=1e-18)


def test_q_shifted_examples():
    ev = q_shifted_analytic(1, 10, 6, 1.0)
    assert ev.value == pytest.approx(1.0 / 256.0, abs=1e-8)
    ev = q_shifted_analytic(1, 10, -10, 1.0)
    assert abs(ev.value) < 1e-6
    ev = q_shifted_analytic(1, 10, 7, 1.0)
    assert abs(ev.value) < 1e-6


@pytest.mark.parametrize("k,N,c,t", [(1, 10, 6, 1.0), (2, 5, -3, 0.7), (3, 25, 11, 2.0)])
def test_q_shifted_matches_scalar_loop(k, N, c, t):
    # the per-r loop over the scalar kernels that the one-pass form
    # replaced, kept as the reference; only the summation order differs
    ev = q_shifted_analytic(k, N, c, t)
    n, w = _p_weights(t)
    p_series = lambda q: float(np.sum(w / (t * t * n * n + q * q)))
    g0 = kernel_g(-N, t, k).value
    sech_block = g0 * sech(math.pi * c / (2.0 * t))
    p_block = g0 * p_series(c)
    for r in range(1, ev.terms_used["r_terms"] + 1):
        gp, gn = kernel_g(r - N, t, k).value, kernel_g(-r - N, t, k).value
        sech_block += (-1) ** r * (
            gp * sech(math.pi * (r + c) / (2.0 * t)) + gn * sech(math.pi * (r - c) / (2.0 * t))
        )
        p_block += gp * p_series(r + c) + gn * p_series(r - c)
    sh = math.sinh(math.pi * t)
    head, exp_part = _closed_heads(np.array([N + c]), k, t)
    want = float(head[0] + exp_part[0]) + (-1) ** c * sh / (8.0 * math.sqrt(k) * t) * sech_block
    want -= t * sh / (2.0 * math.sqrt(k) * math.pi) * p_block
    assert ev.value == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("c", [-13, -5, -4, 0, 3, 6])
def test_q_shifted_consistency_with_direct(c):
    # shifted evaluation at (N, c) against the direct evaluation at N + c:
    # two independent expansions of the same quantity
    N, k = 10, 2
    ev = q_shifted_analytic(k, N, c, 1.0)
    y = N + c
    if y >= 1:
        direct = q_analytic(k, y, 1.0)
        tol = ev.error_estimate + direct.error_estimate
        assert abs(ev.value - direct.value) < tol
    else:
        assert abs(ev.value) < 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gpart_is_the_two_sided_series(k):
    # the bilateral G-series summed term by term from the scalar kernel and
    # the closed-form J, against gpart on a table that starts at its
    # minimum size and grows between calls
    N, t, r_len = 9, 1.0, 50
    tables = BlockTables(N, k, t)
    sizes = [(tables.R, tables.Q)]
    coeff = math.sinh(math.pi * t) / (4.0 * math.sqrt(k))
    for c in (0, 5, -7, 33, -40):
        want = coeff * (-1) ** c * math.fsum(
            (-1) ** r * kernel_g(r - N, t, k).value * integral_j(abs(r + c), t).value
            for r in range(-r_len, r_len + 1)
        )
        assert tables.gpart(c, r_len) == pytest.approx(want, rel=1e-11)
        sizes.append((tables.R, tables.Q))
    assert len(set(sizes)) >= 3, sizes


@pytest.mark.parametrize("k,t", [(1, 1.0), (2, 0.5)])
def test_tiled_gparts_match_fsum(k, t):
    # windows over 3-5 tiles (ending mid-tile or on a tile's last index)
    # and one shorter than a tile, at unsorted and negative shifts, in one
    # contraction.  At N = T/2 the G peak is r = T/2, a tile's first index;
    # the J peak r = -c lies on it for c = -T/2, on the index before it for
    # c = 1 - T/2, and next to the central tile's first index for
    # c = T/2 - 1.  The largest term carries 40-96% of sum |terms|, so an
    # off-by-one at a tile edge breaks the bound below
    T = indicators._TILE
    shifts = [-T // 2, 400, -T // 2 + 1, -3000, -1, T // 2 - 1]
    r_lens = [110000, 3 * T // 2 - 1, 70000, 100000, T // 4, 140000]
    tables = BlockTables(T // 2, k, t)
    g = tables._gparts(np.array(shifts), np.array(r_lens))
    R, Q, eps = tables.R, tables.Q, np.finfo(float).eps
    for gi, c, L in zip(g, shifts, r_lens):
        terms = tables.sg[R - L : R + L + 1] * tables.Js[Q + c - L : Q + c + L + 1]
        want = tables.coeff * (-1) ** c * math.fsum(terms)
        scale = tables.coeff * math.fsum(np.abs(terms))
        # a BLAS dot accumulates each lane in sequence, so its rounding
        # grows like sqrt(n) eps sum |terms| (0.13 sqrt(n) at most here,
        # 56 eps at n ~ 2e5 where the sum cancels to 1e-11 of sum |terms|)
        assert abs(gi - want) <= eps * math.sqrt(2 * L + 1) * scale, (c, L)
        assert gi == tables.gpart(c, L)  # one window alone, same bits


def test_window_of_one_tile_is_one_dot():
    # a window of at most one tile is one np.dot over the whole window, so
    # the blocks of the Diophantine sums keep the bits of a plain dot
    T = indicators._TILE
    tables = BlockTables(40, 2, 1.3)
    shifts = [7, -3, 0, -40, 1500, -2]
    r_lens = [0, 1, 40, 2000, T // 2 - 1, 9000]
    g = tables._gparts(np.array(shifts), np.array(r_lens))
    R, Q = tables.R, tables.Q
    for gi, c, L in zip(g, shifts, r_lens):
        dot = np.dot(tables.sg[R - L : R + L + 1], tables.Js[Q + c - L : Q + c + L + 1])
        want = tables.coeff * (-1) ** c * float(dot)
        assert gi == want and tables.gpart(c, L) == want, (c, L)


def test_block_tables_match_shifted():
    tables = BlockTables(9, 1, 1.0)
    for c in (-11, -9, -2, 0, 5, 7, 16):
        y = 9 + c
        want = q_bruteforce(1, 1, y) / (y * y) if y >= 1 else 0.0
        assert abs(block_value(tables, c) - want) < 1e-9


def test_q_general_examples():
    assert q_general_analytic(1, 2, 16, 1.0).value == pytest.approx(1.0 / 256.0, abs=1e-7)
    assert q_general_analytic(2, 2, 32, 1.0).value == pytest.approx(1.0 / 1024.0, abs=1e-7)
    assert abs(q_general_analytic(1, 2, 8, 1.0).value) < 1e-7


def test_q_general_s1_agrees_with_direct():
    for N in range(1, 51):
        a = q_general_analytic(1, 1, N, 1.0)
        b = q_analytic(1, N, 1.0)
        assert abs(a.value - b.value) < a.error_estimate + b.error_estimate


def test_t_independence_spot():
    for N in (10, 25, 36):
        evs = [q_analytic(1, N, t) for t in (0.8, 1.0, 1.5)]
        spread = max(e.value for e in evs) - min(e.value for e in evs)
        assert spread < max(e.error_estimate for e in evs) * 2.0


def test_domain_errors():
    with pytest.raises(ValueError):
        q_analytic(1, 0, 1.0)
    with pytest.raises(ValueError):
        q_analytic(1, 5, -1.0)
    with pytest.raises(ValueError):
        q_bruteforce(0, 1, 5)
    with pytest.raises(ValueError):
        q_general_analytic(1, 0, 5, 1.0)

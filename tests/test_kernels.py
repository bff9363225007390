import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithsum.integrals import (
    cosh_over_sinh2,
    cosh_over_sinh2_values,
    coth,
    csch,
    csch_values,
    sech,
    sech_values,
)
from arithsum import kernels
from arithsum.kernels import (
    GUARD_THRESHOLD,
    g_values,
    half_plane_root,
    kernel_g,
    kernel_t,
    kernel_v,
    mittag_leffler_residual,
    t_values,
)


def test_half_plane_root_examples():
    r = half_plane_root(3, 4)
    assert (r.u, r.v) == pytest.approx((2.0, 1.0), rel=1e-14)
    r = half_plane_root(-3, 4)
    assert (r.u, r.v) == pytest.approx((1.0, 2.0), rel=1e-14)
    r = half_plane_root(0, 2)
    assert (r.u, r.v) == pytest.approx((1.0, 1.0), rel=1e-14)


def test_half_plane_root_symmetry_and_domain():
    a = half_plane_root(7.25, 0.125)
    b = half_plane_root(-7.25, 0.125)
    assert a.u == b.v and a.v == b.u
    with pytest.raises(ValueError):
        half_plane_root(1.0, 0.0)
    with pytest.raises(ValueError):
        half_plane_root(1.0, -2.0)


@given(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_half_plane_root_invariants(M, t):
    r = half_plane_root(M, t)
    assert r.u > 0 and r.v > 0
    scale = math.hypot(M, t)  # relative accuracy of (u+iv)^2 = M+it
    assert abs(r.u * r.u - r.v * r.v - M) <= 1e-12 * scale
    assert abs(2 * r.u * r.v - t) <= 1e-12 * scale
    z = complex(r.u, r.v) ** 2
    assert abs(z - complex(M, t)) <= 1e-12 * scale


def direct_quartic(x, z, alternating, n=200000):
    k = np.arange(1, n + 1, dtype=float)
    terms = 1.0 / (z * z + (k * k + x) ** 2)
    if alternating:
        terms = terms * np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    return float(np.sum(terms))


@pytest.mark.parametrize("x", [0.0, 1.0, 2.5, -2.5, -4.0])
@pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
def test_lattice_identity_one_signed(x, z):
    # x = -m^2 included: the n=m term 1/z^2 enters the direct sum and the
    # identity still holds
    direct = direct_quartic(x, z, False)
    closed = math.pi / 4.0 * kernel_t(x, z).value - 0.5 / (x * x + z * z)
    assert abs(direct - closed) < 1.0 / (3.0 * 200000**3) + 1e-10


@pytest.mark.parametrize("x", [0.0, 1.0, 2.5, -2.5, -4.0])
@pytest.mark.parametrize("z", [0.5, 1.0, 3.0])
def test_lattice_identity_alternating(x, z):
    direct = direct_quartic(x, z, True)
    closed = math.pi / 2.0 * kernel_v(x, z).value - 0.5 / (x * x + z * z)
    assert abs(direct - closed) < 1e-10


def test_kernel_t_value_via_partial_sums():
    # pi/4 T(0,1) - 1/2 = sum 1/(1+n^4); independent partial-sum oracle
    s = direct_quartic(0.0, 1.0, False)
    T = kernel_t(0.0, 1.0).value
    assert abs(math.pi / 4.0 * T - 0.5 - s) < 1e-8
    assert T == pytest.approx(1.3731603025424655, rel=1e-12)


def test_kernel_v_value_via_partial_sums():
    s = direct_quartic(0.0, 1.0, True)
    V = kernel_v(0.0, 1.0).value
    assert abs(math.pi / 2.0 * V - 0.5 - s) < 1e-8
    assert V == pytest.approx(0.03146693678659665, rel=1e-10)
    assert math.isfinite(kernel_v(50.0, 2.0).value)


def test_guard_engages_and_stays_finite():
    kv = kernel_t(100.0, 1.0)
    assert kv.overflow_guarded and math.isfinite(kv.value)
    kv = kernel_t(1e4, 1.0)
    assert kv.overflow_guarded and math.isfinite(kv.value)
    for M in (-1e6, -31415.9, 0.0, 1e6):
        for t in (1e-3, 1.0, 1e3):
            assert math.isfinite(kernel_t(M, t).value)
            assert math.isfinite(kernel_v(M, t).value)
            for k in (1, 2, 3):
                assert math.isfinite(kernel_g(M, t, k).value)


def g_oracle(M, t, k):
    z = complex(M, t)
    w = cmath.sqrt(z) / math.sqrt(k)
    return -2.0 * (z**-2.5 / cmath.tanh(math.pi * w)).imag


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_jump_kernel_matches_complex_oracle(k, t):
    worst = max(abs(kernel_g(M, t, k).value - g_oracle(M, t, k)) for M in range(-50, 51))
    assert worst < 1e-10


def test_jump_kernel_notation_and_determinism():
    a = kernel_g(5.0, 1.0, 1).value
    b = kernel_g(5.0, 1.0).value
    assert a == b
    assert abs(a - g_oracle(5, 1, 1)) < 1e-10
    assert abs(kernel_g(-5.0, 1.0, 1).value - g_oracle(-5, 1, 1)) < 1e-10


def test_vectorized_kernels_match_scalar():
    Ms = np.array([-1e6, -50.5, -3.0, 0.0, 2.0, 700.25, 12345.0])
    gv = g_values(Ms, 1.3, 2)
    tv = t_values(Ms, 1.3)
    for m, g, tval in zip(Ms, gv, tv):
        assert g == pytest.approx(kernel_g(float(m), 1.3, 2).value, rel=1e-13, abs=1e-300)
        assert tval == pytest.approx(kernel_t(float(m), 1.3).value, rel=1e-13, abs=1e-300)


ORACLE_MS = [50.0, 100.0, 400.0, 1e3, 5e3, 4e4, 1e6]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t", [0.5, 1.0, 8.0])
def test_guarded_kernels_match_mpmath(k, t):
    # from M = 100 on, pi u/sqrt(k) passes GUARD_THRESHOLD for some k, so
    # the exponential rewrite is checked as well as the direct branch
    with mpmath.workdps(30):
        want_g = []
        for M in ORACLE_MS:
            z = mpmath.mpc(M, t)
            want_g.append(-2 * (mpmath.coth(mpmath.pi * mpmath.sqrt(z) / mpmath.sqrt(k)) * z**-2.5).imag)
        ms_t = ORACLE_MS + [-50.0, -1e4]
        want_t = []
        for M in ms_t:
            w = mpmath.sqrt(mpmath.mpc(M, t))
            u, v = w.real, w.imag
            a, b = mpmath.pi * u, mpmath.pi * v
            num = v * mpmath.sinh(2 * a) + u * mpmath.sin(2 * b)
            den = (mpmath.sinh(a) ** 2 + mpmath.sin(b) ** 2) * t * mpmath.hypot(M, t)
            want_t.append(num / den)
    got_g = g_values(np.array(ORACLE_MS), t, k)
    for M, got, want in zip(ORACLE_MS, got_g, want_g):
        assert abs(got - float(want)) <= 1e-13 * abs(float(want)), (M, t, k)
    got_t = t_values(np.array(ms_t), t)
    for M, got, want in zip(ms_t, got_t, want_t):
        assert abs(got - float(want)) <= 1e-13 * abs(float(want)), (M, t)


def test_hyperbolic_heads_match_mpmath():
    xs = [s * x for x in (0.5, 29.9, 30.1, 80.0, 400.0, 700.0) for s in (1.0, -1.0)]
    cases = [
        (csch, csch_values, lambda x: 1 / mpmath.sinh(x)),
        (sech, sech_values, lambda x: 1 / mpmath.cosh(x)),
        (cosh_over_sinh2, cosh_over_sinh2_values, lambda x: mpmath.cosh(x) / mpmath.sinh(x) ** 2),
    ]
    for scalar, vector, exact in cases:
        with mpmath.workdps(30):
            want = [float(exact(mpmath.mpf(x))) for x in xs]
        for x, got_v, w in zip(xs, vector(np.array(xs)), want):
            assert abs(got_v - w) <= 1e-14 * abs(w), (vector.__name__, x)
            assert abs(scalar(x) - w) <= 1e-14 * abs(w), (scalar.__name__, x)
    with mpmath.workdps(30):
        for x in xs:
            w = float(mpmath.coth(mpmath.mpf(x)))
            assert abs(coth(x) - w) <= 1e-14 * abs(w), x
    # coth has no guard: tanh rounds to +-1 from |x| ~ 19.1 on, so 1/tanh(x)
    # has the bits of the guarded form, +-1 past GUARD_THRESHOLD, everywhere
    big = np.logspace(-300.0, 300.0, 20000)
    grid = np.concatenate((np.linspace(-40.0, 40.0, 200001), big, -big, [math.inf, -math.inf]))
    grid = grid[grid != 0.0].tolist()
    guarded = [1.0 / math.tanh(x) if abs(x) <= GUARD_THRESHOLD else math.copysign(1.0, x) for x in grid]
    assert [coth(x) for x in grid] == guarded
    assert math.isnan(coth(math.nan))


def test_scalar_forms_return_the_elementwise_bits():
    # the scalar kernels are one-element calls of the elementwise ones;
    # numpy's 0-d paths would round some of them differently
    Ms = np.linspace(-5000.0, 5000.0, 201)
    for t in (0.5, 1.3, 8.0):
        for k in (1, 2, 3):
            assert [kernel_g(float(m), t, k).value for m in Ms] == list(g_values(Ms, t, k))
        assert [kernel_t(float(m), t).value for m in Ms] == list(t_values(Ms, t))
    xs = np.array([-400.0, -30.1, -0.5, 0.5, 29.9, 80.0])
    for scalar, vector in ((csch, csch_values), (sech, sech_values), (cosh_over_sinh2, cosh_over_sinh2_values)):
        assert [scalar(float(x)) for x in xs] == list(vector(xs))


def test_kernel_domain_errors():
    for f in (kernel_t, kernel_v):
        with pytest.raises(ValueError):
            f(1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_g(1.0, -1.0)
    with pytest.raises(ValueError):
        kernel_g(1.0, 1.0, 0)


def test_mittag_leffler_residual_decreases():
    assert mittag_leffler_residual(0.0, 1.0, 1000) < 1e-6
    assert mittag_leffler_residual(math.pi, 1.0, 1000) < 1e-3
    # empty partial sum equals the closed-form side exactly
    lhs = 1.0 / 8.0 - math.pi / (4.0 * math.sinh(2 * math.pi))
    assert mittag_leffler_residual(0.0, 2.0, 0) == pytest.approx(abs(lhs), rel=1e-15)
    a = mittag_leffler_residual(0.7, 1.5, 100)
    b = mittag_leffler_residual(0.7, 1.5, 10000)
    assert b < a


def test_mittag_leffler_domain():
    with pytest.raises(ValueError):
        mittag_leffler_residual(3.5, 1.0, 10)
    with pytest.raises(ValueError):
        mittag_leffler_residual(0.0, 0.0, 10)


def _two_branch_ratio(p, q, a, b):
    # the earlier form of kernels._guarded_ratio, kept as the reference: both
    # branches for every element, one picked by np.where
    sb = np.sin(b)
    s2b = np.sin(2.0 * b)
    guarded = a > GUARD_THRESHOLD
    a_safe = np.where(guarded, 1.0, a)
    num_direct = p * np.sinh(2.0 * a_safe) + q * s2b
    den_direct = np.sinh(a_safe) ** 2 + sb * sb
    with np.errstate(under="ignore"):
        x = np.exp(-2.0 * np.where(guarded, a, GUARD_THRESHOLD))
    num_guard = 2.0 * p * (1.0 - x * x) + 4.0 * q * s2b * x
    den_guard = (1.0 - x) ** 2 + 4.0 * sb * sb * x
    return np.where(guarded, num_guard, num_direct), np.where(guarded, den_guard, den_direct), guarded


def _bits(x):
    return np.asarray(x).view(np.int64)


@pytest.mark.parametrize("t", [kernels.T_MIN, 0.001, 0.1, 1.0, 8.0, 112.9, 1e3, 1e6])
def test_one_branch_kernels_keep_the_two_branch_bits(monkeypatch, t):
    # pi u/sqrt(k) passes 30 near M = 91 k and 373 near M = 14100 k, so the
    # ascending grid holds all three branches for every k; the monotone grids
    # take slices, the shuffled and 2-D ones masks, the one-element and empty
    # ones the whole-array path.  The geometric grids lie past a = 373 for
    # each k and reach |q| > 2^31 |p|, where the collapse gives way to the
    # rewrite (near M = 5e9 t for G, 1e9 t for T)
    rng = np.random.default_rng(5)
    up = np.arange(-6.0e4, 6.0e4, 1.7)
    grids = [up, rng.permutation(up), up[::-1].copy(), np.arange(-500.0, 500.0, 0.3)]
    grids += [up[:70000].reshape(70, 1000)]
    grids += [np.geomspace(14200.0 * k, 1e13, 3000) for k in (1, 2, 3)]
    grids += [np.array([m]) for m in (-3.0, 50.0, 2000.0, 1e6)] + [np.array([])]
    for grid in grids:
        got = [kernels._g(grid, t, k) for k in (1, 2, 3)] + [kernels._t(grid, t)]
        with monkeypatch.context() as m:
            m.setattr(kernels, "_guarded_ratio", _two_branch_ratio)
            want = [kernels._g(grid, t, k) for k in (1, 2, 3)] + [kernels._t(grid, t)]
        for (gv, gg), (wv, wg) in zip(got, want):
            assert np.array_equal(_bits(gv), _bits(wv)), (t, grid[:2])
            assert np.array_equal(gg, wg), (t, grid[:2])
    for k in (1, 2, 3):
        assert np.array_equal(_bits(g_values(up, t, k)), _bits(kernels._g(up, t, k)[0]))
    assert np.array_equal(_bits(t_values(up, t)), _bits(kernels._t(up, t)[0]))


def test_the_collapse_keeps_the_rewrite_bits_up_to_its_ratio():
    # (2p, 1) in place of the rewrite is exact for a > 30 and |q| < 2^31 |p|.
    # The bound is nearly tight: with a just past 30, sin 2b near +-1 and
    # |q| just past 2^32 |p|, the dropped term moves the last bit of 2p
    rng = np.random.default_rng(11)
    n = 200_000
    a = np.concatenate((30.0 + rng.random(n // 2) / 4.0, 30.0 + rng.random(n // 2) * 400.0))
    b = np.pi / 4.0 + rng.normal(0.0, 0.1, n) + rng.integers(-3, 4, n) * np.pi / 2.0
    p = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-60, 60, n)
    q = rng.choice([-1.0, 1.0], n) * np.abs(p) * 2.0 ** rng.uniform(28.0, 34.0, n)
    # -0 + (+0) is +0: at p = -0 the collapse would flip the sign of the zero
    p[:4], q[:4], b[:4] = [0.0, -0.0, 1.0, np.nan], [0.0, 0.0, np.inf, 1.0], np.pi / 4.0
    num, den, guarded = kernels._guarded_ratio(p, q, a, b)
    want_num, want_den = kernels._rewrite(p, q, a, b)
    assert guarded.all()
    assert np.array_equal(_bits(num), _bits(want_num))
    assert np.array_equal(_bits(den), _bits(want_den))

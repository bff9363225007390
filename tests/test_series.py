import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from arithsum.indicators import power_series_evaluator, q_general_analytic
from arithsum.series import (
    _closed_tail,
    _digamma,
    geometric_series_evaluator,
    indicator_series_evaluator,
    invert_series,
    invert_series_many,
    lemma4_residual,
    self_consistency_residual,
)


def test_invert_geometric():
    geo = geometric_series_evaluator()
    ev = invert_series(geo, 5, 1.0)
    assert ev.value == pytest.approx(1.0 / 32.0, abs=1e-9)
    for N in range(-5, 1):
        assert abs(invert_series(geo, N, 1.0).value) < 1e-6


def test_invert_indicator_series():
    ind = indicator_series_evaluator(1)
    assert invert_series(ind, 4, 1.0).value == pytest.approx(1.0 / 16.0, abs=1e-9)
    assert abs(invert_series(ind, 3, 1.0).value) < 1e-9


def test_invert_recovery_range():
    for F in (geometric_series_evaluator(), indicator_series_evaluator(1)):
        for N in range(-5, 31):
            want = F.coefficient(N) if N >= 1 else 0.0
            got = invert_series(F, N, 1.0).value
            assert abs(got - want) < 1e-6, (F.label, N)


@pytest.mark.parametrize("t", [0.1, 0.3, 1.0, 3.0, 8.0, 10.0])
def test_invert_series_within_estimate(t):
    # the estimate covers the tail and the sinh(pi t)/pi-amplified rounding
    evaluators = (
        geometric_series_evaluator(),
        indicator_series_evaluator(1),
        indicator_series_evaluator(2),
    )
    for F in evaluators:
        for N in range(-5, 31):
            want = F.coefficient(N) if N >= 1 else 0.0
            ev = invert_series(F, N, t)
            assert abs(ev.value - want) <= ev.error_estimate, (F.label, N)


def test_invert_no_n():
    assert invert_series_many(geometric_series_evaluator(), [], 1.0) == []
    with pytest.raises(ValueError):
        invert_series_many(geometric_series_evaluator(), [], 0.0)


@pytest.mark.parametrize("N", [10**20, -(10**20), 2**60 + 1])
def test_an_n_past_2_60_is_refused_before_any_point_is_sized(N):
    # numpy refused these sample grids, by size alone, with lines that name no bound
    def unavailable(x, t):
        raise AssertionError("the evaluator was sampled")

    F = power_series_evaluator(1, 2)
    with pytest.raises(ValueError, match=rf"^\|N\| must be at most 2\^60 in int64, got N = {N}$"):
        invert_series_many(type(F)(unavailable, F.label, F.coefficient), [5, N], 1.0)
    if N > 0:
        with pytest.raises(ValueError, match=r"2\^60"):
            q_general_analytic(1, 2, N)


@pytest.mark.parametrize(
    "F",
    [
        power_series_evaluator(2, 2),
        power_series_evaluator(1, 3),
        indicator_series_evaluator(2),
        geometric_series_evaluator(),
    ],
    ids=lambda F: F.label,
)
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_invert_one_n_is_its_entry_of_many(F, t):
    # each evaluator's value at a point is a function of the point alone, so
    # an N inverted with others keeps the bits it has alone, wherever it sits
    Ns = [-3, 7, 32, 162, 5]
    for ev_many, N in zip(invert_series_many(F, Ns, t), Ns):
        ev = invert_series(F, N, t)
        assert (ev.value, ev.error_estimate) == (ev_many.value, ev_many.error_estimate), N


def test_invert_determinism():
    ind = indicator_series_evaluator(2)
    a = invert_series(ind, 8, 1.0)
    b = invert_series(ind, 8, 1.0)
    assert a.value == b.value and a.terms_used == b.terms_used


def test_lemma4_examples():
    # the closed tails leave rounding alone at beta = 0 and 1
    assert lemma4_residual(lambda n: 0.5**n, 0.0, 1.0, 200) < 1e-12
    assert lemma4_residual(lambda n: 1.0 / n**2, 1.0, 0.5, 2000) < 1e-12
    with pytest.raises(ValueError, match="beta must be -1, 0 or 1"):
        lemma4_residual(lambda n: 0.0, 0.3, 1.0, 50)


def test_digamma_matches_mpmath():
    re = np.geomspace(10.0, 1e4, 40)
    im = np.geomspace(1e-3, 30.0, 25)
    z = (re[:, None] + 1j * im[None, :]).ravel()
    got = _digamma(z)
    with mpmath.workdps(30):
        want = [mpmath.digamma(mpmath.mpc(w.real, w.imag)) for w in z]
    for part in ("real", "imag"):
        g = getattr(got, part)
        w = np.array([float(getattr(v, part)) for v in want])
        assert (np.abs(g - w) <= 4 * np.spacing(np.abs(w))).all(), part


def _nsum_tail(fn, beta, t, k_max):
    # the tail sum_{k > k_max} (-1)^k e^(i pi k beta) (b(k) + b(-k)) term by term
    t = mpmath.mpf(t)

    def b(s):
        return t * mpmath.fsum(mpmath.mpf(f) / ((n + s) ** 2 + t * t) for n, f in enumerate(fn, 1))

    if beta == 0.0:
        return mpmath.nsum(lambda k: (-1) ** int(k) * (b(k) + b(-k)), [k_max + 1, mpmath.inf])
    return mpmath.nsum(lambda k: b(k) + b(-k), [k_max + 1, mpmath.inf], method="euler-maclaurin")


@pytest.mark.parametrize("k_max", [52, 53])  # n_terms + 32 and an odd first sign
@pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_closed_tails_match_mpmath(beta, t, k_max):
    fn = 1.0 / np.arange(1, 21, dtype=float) ** 2
    with mpmath.workdps(30):
        want = float(_nsum_tail(fn, beta, t, k_max))
    # the alternating form takes the difference of two digammas ~ |t|/a that
    # cancels about 2a-fold, a = k_max + 1 +- n <= 74
    rel = 1e-13 if beta == 0.0 else 1e-15
    assert _closed_tail(fn, beta, t, k_max) == pytest.approx(want, rel=rel, abs=0)


@pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
def test_lemma4_refuses_a_k_max_short_of_the_closed_tail(beta):
    # k_max is always n_terms + 32, the least the closed tail takes: no
    # caller can ask for another
    with pytest.raises(TypeError, match="k_max"):
        lemma4_residual(lambda n: 1.0 / (n * n), beta, 1.0, 20, k_max=51)
    assert lemma4_residual(lambda n: 1.0 / (n * n), beta, 1.0, 20) < 1e-14


def _lemma4_broadcast(f, beta, t, n_terms):
    """lemma4_residual with the (shifts x n_terms) denominators of all
    shifts built at once by broadcasting, in place of windows of one table."""
    k_max = n_terms + 32
    n = np.arange(1, n_terms + 1, dtype=float)
    fn = np.array([f(int(j)) for j in range(1, n_terms + 1)], dtype=float)
    sk = (-1.0 if beta == 0.0 else 1.0) ** np.arange(1, k_max + 1)
    lhs = math.pi * math.cosh(math.pi * beta * t) / math.sinh(math.pi * t) * float(np.sum(sk[:n_terms] * fn))

    def bracket(shift):
        den = (n[None, :] + shift[:, None]) ** 2 + t * t
        return t * (fn[None, :] / den).sum(axis=1)

    ks = np.arange(1, k_max + 1, dtype=float)
    total = float(bracket(np.array([0.0]))[0]) + float(np.sum(sk * (bracket(ks) + bracket(-ks))))
    return abs(lhs - (total + _closed_tail(fn, beta, t, k_max)))


@pytest.mark.parametrize(
    "f,beta,t,n_terms,k_max",
    [
        (lambda n: 0.5**n, 0.0, 1.0, 200, None),  # the verify suite's two cases
        (lambda n: 1.0 / (n * n), 1.0, 0.5, 2000, None),
        # beta whose tail the removed averaging path summed to k_max (None:
        # its default): refused
        (lambda n: 1.0 / (n * n), 0.3, 2.0, 500, None),
        (lambda n: 1.0 / (n * n), 0.7, 1.0, 300, 5000),
        (lambda n: n**-1.5, -0.4, -0.2, 70, 3001),
    ],
)
def test_lemma4_keeps_the_broadcast_bits(f, beta, t, n_terms, k_max):
    # the shifts read windows of one denominator table, in blocks of rows:
    # the same divisions and the same pairwise row sums as the broadcast
    if beta in (-1.0, 0.0, 1.0):
        assert lemma4_residual(f, beta, t, n_terms) == _lemma4_broadcast(f, beta, t, n_terms)
    else:
        with pytest.raises(ValueError, match="beta must be -1, 0 or 1"):
            lemma4_residual(f, beta, t, n_terms)


def test_lemma4_memory_is_bounded():
    # the broadcast held ~100 MB of (2048 x 2000) temporaries at once
    tracemalloc.start()
    try:
        lemma4_residual(lambda n: 1.0 / (n * n), 1.0, 0.5, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


def test_lemma4_domain():
    with pytest.raises(ValueError):
        lemma4_residual(lambda n: 0.0, 1.5, 1.0, 10)
    with pytest.raises(ValueError):
        lemma4_residual(lambda n: 0.0, 0.0, 0.0, 10)
    # no coefficient at all: -3 reached numpy's window_shape error, and 0 gave 0.0
    for n_terms in (-3, 0):
        for beta in (0.0, 0.5):
            with pytest.raises(ValueError, match="n_terms"):
                lemma4_residual(lambda n: 1.0, beta, 1.0, n_terms)


@pytest.mark.parametrize("beta", [0.3, -0.5, 0.999, math.nextafter(-1.0, 0.0), 1.5, math.nan, math.inf])
def test_lemma4_refuses_an_open_beta_by_name_before_f_is_called(beta):
    # away from {-1, 0, 1} the shift series' tail is a Lerch transcendent
    def f(n):
        raise AssertionError("f was called")

    with pytest.raises(ValueError, match=r"^beta must be -1, 0 or 1.*got"):
        lemma4_residual(f, beta, 1.0, 10)


def test_self_consistency_examples():
    assert self_consistency_residual(indicator_series_evaluator(1), 1.0) < 1e-8
    assert self_consistency_residual(indicator_series_evaluator(3), 2.0) < 1e-8
    assert self_consistency_residual(geometric_series_evaluator(), 1.0) < 1e-10


def test_evaluator_odd_in_t():
    # F(conj z) = conj F(z) for real coefficients, so Im F(x - it) = -Im F(x + it)
    x = np.array([3.7, -2.5, 0.5, 41.0])
    evaluators = (
        geometric_series_evaluator(),
        indicator_series_evaluator(2),
        power_series_evaluator(2, 2),
    )
    for F in evaluators:
        for t in (1.3, 0.2):
            got = F.evaluate(x, t)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == x.shape
            assert F.evaluate(x, -t) == pytest.approx(-got, rel=1e-12)

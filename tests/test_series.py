import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from arithsum.indicators import power_series_evaluator, q_general_analytic
from arithsum.integrals import _j_table_error, j_values
from arithsum.kernels import TABLE_CHUNK
from arithsum.series import (
    _EPS,
    _closed_tail,
    _closed_tails,
    _digamma,
    _tail_span,
    _zeta_scaled,
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


def test_inversion_returns_python_floats():
    # value and error_estimate were numpy float64s, through t K_L(0); every
    # other driver returns Python floats
    for ev in (q_general_analytic(1, 2, 5), *invert_series_many(geometric_series_evaluator(), [1, 3], 0.5)):
        assert type(ev.value) is float and type(ev.error_estimate) is float


@pytest.mark.parametrize("N", [10**20, -(10**20), 2**60 + 1])
def test_an_n_past_2_60_is_refused_before_any_point_is_sized(N):
    # numpy refused these sample grids, by size alone, with lines that name no bound
    def unavailable(x, t):
        raise AssertionError("the evaluator was sampled")

    F = power_series_evaluator(1, 2)
    with pytest.raises(ValueError, match=rf"^\|N\| must be at most 2\^60 in int64, got N = {N}$"):
        invert_series_many(dataclasses.replace(F, evaluate=unavailable), [5, N], 1.0)
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


def _sampled_tail(F, N, t, L, R):
    """sum_{r=L+1}^{R} S(r) (Im F(r - N + it) + Im F(-r - N + it)) by sampling F,
    and a bound of its rounding and of the J table's error."""
    r = np.arange(L + 1, R + 1)
    im = F.evaluate(np.concatenate((r - N, -r - N)).astype(float), t)
    folds = im[: r.size] + im[r.size :]
    terms = j_values(R, t)[L + 1 :] * folds
    q_w, delta, kappa = _j_table_error(t)
    weight_sum = max(0, min(q_w, R + 1) - (L + 1))
    err = _EPS * math.log2(r.size) * float(np.sum(np.abs(terms))) + delta * float(np.sum(np.abs(folds[:weight_sum])))
    return math.fsum(terms), err + kappa * _EPS * float(np.sum(np.abs(terms[weight_sum:])))


def _closed_tail_of(F, N, t, L):
    """The whole tail past L, -(tail + f(N) t K_L(0)), and its bound."""
    (tail, tk0, err, err_f), = _closed_tails(F, [N], [L], t)
    f_n = F.coefficient(N) if N >= 1 else 0.0
    return -(tail + f_n * tk0), err + abs(f_n) * err_f


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
@pytest.mark.parametrize(
    "F",
    [power_series_evaluator(k, s) for k in (1, 2, 3) for s in (1, 2, 3)]
    + [geometric_series_evaluator(), indicator_series_evaluator(2)],
    ids=lambda F: F.label,
)
def test_closed_tail_matches_the_sampled_tail(F, t):
    # the tails past L and past 64L differ by the sampled sum over (L, 64L],
    # each within its own bound
    N = 3
    L = N + _tail_span(t)
    near, near_err = _closed_tail_of(F, N, t, L)
    far, far_err = _closed_tail_of(F, N, t, 64 * L)
    sampled, sampled_err = _sampled_tail(F, N, t, L, 64 * L)
    assert abs(near - far - sampled) <= near_err + far_err + sampled_err, (near, far, sampled)
    assert abs(far) < 1e-3 * abs(near)


@pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
def test_the_value_never_reads_f_of_n(t):
    F, N, n0 = power_series_evaluator(1, 2), 16, 1

    def with_residue(n_at, factor):
        def poles(n_max):
            n, f, rest = F.poles(n_max)
            return n, np.where(n == n_at, factor * f, f), rest

        return dataclasses.replace(F, poles=poles)

    base = invert_series(F, N, t)
    # the residue at n = N never enters: the value keeps its bits
    same = invert_series(with_residue(N, 3.0), N, t)
    assert (same.value, same.error_estimate) == (base.value, base.error_estimate)
    # one residue at n0 != N moves the value by scale delta t K_L(c)/(1 - scale t K_L(0)),
    # K_L summed here to 1024 L; the rest of each sum is below 1e-6 of it
    L = base.terms_used["r_terms"]
    r = np.arange(L + 1, 1024 * L + 1, dtype=float)
    S = j_values(1024 * L, t)[L + 1 :]

    def t_k(c):
        return t * float(np.sum(S * (1.0 / ((r + c) ** 2 + t * t) + 1.0 / ((r - c) ** 2 + t * t))))

    scale = math.sinh(math.pi * t) / math.pi
    want = scale * F.coefficient(n0) * t_k(n0 - N) / (1.0 - scale * t_k(0))
    moved = invert_series(with_residue(n0, 2.0), N, t)
    assert abs(moved.value - base.value - want) <= moved.error_estimate + base.error_estimate + 1e-6 * abs(want)
    assert abs(want) > 1e3 * (moved.error_estimate + base.error_estimate)


@pytest.mark.parametrize("t", [1e-4, 0.1, 1.0, 10.0])
def test_r_terms_do_not_grow_as_t_falls(t):
    # a count, not a timing: L = |N| + max(128, ceil(24 t)), not |N| + 1200/t
    F = power_series_evaluator(1, 2)
    for N, ev in zip((1, 16, 100), invert_series_many(F, [1, 16, 100], t)):
        assert ev.terms_used["r_terms"] == N + max(128, math.ceil(24 * t))
        assert abs(ev.value - F.coefficient(N)) <= ev.error_estimate


def test_digamma_recurs_and_reflects():
    # below Re z = 10 by the recurrence, below 1/2 by the reflection; the
    # tail's arguments n - it, n an integer of any sign, among them
    re = np.concatenate((np.arange(-60.0, 10.0), np.linspace(-7.3, 9.9, 23)))
    im = np.array([1e-4, 0.1, 1.0, 7.0, -0.3])
    z = (re[:, None] + 1j * im[None, :]).ravel()
    got = _digamma(z)
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.digamma(mpmath.mpc(w.real, w.imag))) for w in z])
    # psi has a zero near 1.46, so the scale is max(|psi|, 1)
    assert (np.abs(got - want) <= 64 * _EPS * np.maximum(np.abs(want), 1.0)).all()


def _zeta_scaled_reference(s, a):
    """a^(s-1) zeta(s, a) in 50 digits: 2000 terms, then Euler-Maclaurin from
    a + 2000 with six Bernoulli terms (mpmath's own Hurwitz zeta loses tens
    of digits at these arguments)."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(a) + 2000
        head = mpmath.fsum((a / (n + a)) ** (s - 1) / (n + a) for n in range(2000))
        tail = b ** (1 - s) / (s - 1) + b**-s / 2
        tail += mpmath.fsum(
            mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(s, 2 * k - 1) * b ** (-s - 2 * k + 1) for k in range(1, 7)
        )
        return float(head + a ** (s - 1) * tail)


@pytest.mark.parametrize("a", [129.0, 257.0, 4097.0, 2.0**40])
def test_zeta_scaled_matches_mpmath(a):
    # s = 2..81, the most the tail asks for
    got = _zeta_scaled(80, a)
    qs = range(0, 80, 3)
    assert got[list(qs)] == pytest.approx([_zeta_scaled_reference(q + 2, a) for q in qs], rel=4 * _EPS, abs=0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_indicator_evaluator_matches_mpmath(k):
    # its closed form in 40 digits at small |z|, where the z^-3 terms cancel
    # in binary64, and beside the poles -k m^2, where coth's argument would
    # lose pi m eps: the binary64 form was off by up to 1.2e-10 relative
    x = np.concatenate((np.linspace(-5.0 * k, 5.0 * k, 41), -k * np.arange(1, 41) ** 2 + 0.5, -k * np.arange(1, 41) ** 2 - 1.0))
    F = indicator_series_evaluator(k)
    for t in (0.1, 1.0):
        got = F.evaluate(x, t)
        with mpmath.workdps(40):
            pi, rk = mpmath.pi, mpmath.sqrt(k)
            want = []
            for xi in x:
                z = mpmath.mpc(xi, t)
                w = mpmath.sqrt(z)
                closed = pi**4 / (90 * k * k * z) - pi**2 / (6 * k * z * z) - 0.5 / z**3
                want.append(float((closed + pi * mpmath.coth(pi * w / rk) / (2 * rk * z * z * w)).imag))
        assert got == pytest.approx(want, rel=8 * _EPS, abs=0), t


@pytest.mark.parametrize("k", [1, 3])
def test_indicator_evaluator_keeps_its_bits_in_blocks(k):
    # points go in blocks of TABLE_CHUNK: a long batch, near points (|z| <
    # 4.5k) and far ones mixed across the block edges, has the bits of its
    # pieces evaluated apart, of any length and alignment
    rng = np.random.default_rng(k)
    x = np.concatenate((np.linspace(-5.0 * k, 5.0 * k, 9000), rng.uniform(-1e5, 1e5, 9000)))[rng.permutation(18000)]
    F = indicator_series_evaluator(k)
    for t in (1e-3, 1.0, 9.0):
        got = F.evaluate(x, t)
        for piece in (999, TABLE_CHUNK - 1, TABLE_CHUNK + 5):
            parts = [F.evaluate(x[i : i + piece], t) for i in range(0, x.size, piece)]
            assert np.array_equal(np.concatenate(parts), got), (t, piece)
        for i in range(0, x.size, 97):
            assert F.evaluate(x[i : i + 1], t)[0] == got[i], (t, x[i])


def test_indicator_evaluator_is_built_once_per_k_and_bounds_its_memory():
    # an evaluation of 2 10^5 points near the origin held ~260 MB of Taylor
    # powers at once; in blocks it holds one block's
    assert indicator_series_evaluator(2) is indicator_series_evaluator(2)
    x = np.tile(np.linspace(-4.0, 4.0, 100), 2000)
    F = indicator_series_evaluator(1)
    tracemalloc.start()
    try:
        F.evaluate(x, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak

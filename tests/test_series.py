import numpy as np
import pytest

from arithsum.indicators import power_series_evaluator
from arithsum.series import (
    geometric_series_evaluator,
    indicator_series_evaluator,
    invert_series,
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


def test_invert_determinism():
    ind = indicator_series_evaluator(2)
    a = invert_series(ind, 8, 1.0)
    b = invert_series(ind, 8, 1.0)
    assert a.value == b.value and a.terms_used == b.terms_used


def test_lemma4_examples():
    assert lemma4_residual(lambda n: 0.5**n, 0.0, 1.0, 200) < 1e-8
    assert lemma4_residual(lambda n: 1.0 / n**2, 1.0, 0.5, 2000) < 1e-4
    assert lemma4_residual(lambda n: 0.0, 0.3, 1.0, 50) == 0.0


def test_lemma4_domain():
    with pytest.raises(ValueError):
        lemma4_residual(lambda n: 0.0, 1.5, 1.0, 10)
    with pytest.raises(ValueError):
        lemma4_residual(lambda n: 0.0, 0.0, 0.0, 10)


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

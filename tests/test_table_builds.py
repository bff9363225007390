"""The table builds fill their outputs in cache-sized chunks: the values
keep the bits of one unchunked call, and the temporaries stay small."""

import tracemalloc

import numpy as np
import pytest

from arithsum import indicators, integrals
from arithsum.indicators import BlockTables, _closed_heads, _g_grid, _two_sided_j
from arithsum.integrals import _exp_series_terms, _j, exp_series_sums, j_values
from arithsum.kernels import TABLE_CHUNK, _g, kernel_g
from arithsum.sigma_rh import _sigma_r_len, sigma_analytic


def _bits(x):
    return np.asarray(x).view(np.int64)


@pytest.mark.parametrize("chunk", [TABLE_CHUNK, 1001])
@pytest.mark.parametrize("size", ["below", "exact", "several"])
def test_chunked_builds_equal_one_unchunked_call(monkeypatch, chunk, size):
    # an odd chunk moves the parity of M from chunk to chunk, and only an
    # odd chunk can hold the odd grid g exactly.  The J table is signed,
    # (-1)^q J(q), and the two-sided one carries (-1)^m, whatever the parity
    # of Q
    monkeypatch.setattr(indicators, "TABLE_CHUNK", chunk)
    monkeypatch.setattr(integrals, "TABLE_CHUNK", chunk)
    n = {"below": chunk - 2, "exact": chunk, "several": 3 * chunk + chunk // 3}[size]
    R, N, t, k = n // 2, 37, 0.7, 2
    g = _g_grid(-R - N, R - N, t, k)
    want, want_guarded = _g(np.arange(-R, R + 1, dtype=float) - N, t, k)
    assert np.array_equal(_bits(g), _bits(want))
    assert kernel_g(R - N, t, k).overflow_guarded == want_guarded.any()
    js = _j(np.arange(n), t)
    assert np.array_equal(_bits(j_values(n - 1, t)), _bits(js))
    j = np.where(np.arange(n) % 2, -1.0, 1.0) * js  # J(q) = (-1)^q S(q)
    m = np.arange(-R, R + 1)
    assert np.array_equal(_bits(_two_sided_j(R, t)), _bits(np.where(m % 2, -1.0, 1.0) * j[np.abs(m)]))


def _peak_bytes(f):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_table_builds_peak_at_their_outputs_plus_4_mb():
    # numpy reports its buffers to tracemalloc; unchunked, the temporaries
    # took 32 MB (G) and 19 MB (J) beyond the outputs
    g, peak = _peak_bytes(lambda: _g_grid(-200400, 199600, 1.0, 1))
    assert peak <= g.nbytes + 4e6
    js, peak = _peak_bytes(lambda: j_values(400000, 1.0))
    assert peak <= js.nbytes + 4e6


def test_two_sided_j_peaks_at_its_output_plus_1_mb():
    # j_values fills the right half of Js in place; a half built apart
    # and then copied in took 3.7 MB more
    js, peak = _peak_bytes(lambda: _two_sided_j(400000, 1.0))
    assert peak <= js.nbytes + 1e6


def test_a_new_key_drops_the_held_tables_before_it_builds(monkeypatch):
    # the tables sigma(300, t=1) leaves held take about 5 MB, as much as
    # sigma(300, t=1.5)'s; built before they went, these would rise on top
    monkeypatch.setattr(indicators, "_HELD", {})
    R = _sigma_r_len(300, 1.5)
    Q = R + 299**2
    own = (2 * R + 1) * 8 + (2 * Q + 1) * 8  # g and Js
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sigma_analytic(300, 1.0)
        tracemalloc.reset_peak()
        sigma_analytic(300, 1.5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= own + 4e6


def test_a_new_k_drops_the_whole_plan_before_it_builds(monkeypatch):
    # sigma(600, t=1) leaves a plan of about 9.4 MB held, 6 MB of it its J
    # table.  The plan below, at k = 2 and the same t, needs a larger G grid
    # and a small J table; a J table kept for its t would rise on top of
    # the build, and so would the old plan if it went after the build
    monkeypatch.setattr(indicators, "_HELD", {})
    request = (-701200, 698800, 3000)
    own = (request[1] - request[0] + 1) * 8 + (2 * request[2] + 1) * 8  # g and Js
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sigma_analytic(600, 1.0)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        BlockTables(2, 1.0, *request)
        now, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held >= 9e6 and own >= held
    assert peak <= own + 3e6
    assert now <= own + 1e6  # the held plan is the new one alone
    assert list(indicators._HELD) == [(2, 1.0)]


def _unblocked_exp_series_sums(y, t):
    # the earlier form of integrals.exp_series_sums, kept as the reference:
    # one (y x grid) array per term, each y's terms a row
    yf = np.asarray(y, dtype=float)
    r, w = _exp_series_terms(t)
    r2 = 4.0 * t * t * r**2
    dmat = r2 + yf[:, None] ** 2
    s1 = (w / dmat).sum(axis=1)
    s2 = (w * r / dmat).sum(axis=1)
    s3 = (w * (r2 - yf[:, None] ** 2) / dmat**2).sum(axis=1)
    return s1, s2, s3


@pytest.mark.parametrize("t", [0.001, 0.013, 0.3, 1.0, 10.0])
def test_exp_series_blocks_keep_the_unblocked_bits(t):
    # at t = 0.001 the grid has 6,600 terms, so the blocks of 400 y are 2
    # rows deep.  Each y's row is summed pairwise whatever the block, so
    # its sums also keep the bits of a call with that y alone
    rng = np.random.default_rng(3)
    for width in (1, 2, 3, 7, 400) + ((5000,) if t >= 0.3 else ()):
        y = rng.integers(-4000, 4000, width)
        for got, want in zip(exp_series_sums(y, t), _unblocked_exp_series_sums(y, t)):
            assert np.array_equal(_bits(got), _bits(want)), (t, width)
        alone = [exp_series_sums(y[i : i + 1], t) for i in (0, width - 1)]
        for got, one, last in zip(exp_series_sums(y, t), *alone):
            assert _bits(got[0]) == _bits(one[0]) and _bits(got[-1]) == _bits(last[0]), (t, width)


def test_closed_heads_at_small_t_stay_small():
    # unblocked, this call raised the peak by about 250 MB
    _, peak = _peak_bytes(lambda: _closed_heads(np.arange(1, 1601), 1, 0.001))
    assert peak <= 4e6


@pytest.mark.parametrize("t", [0.01, 0.1])
def test_j_chunks_keep_the_bits_and_stay_small(t):
    # 777 and 74 weights, read below q0 only: ten chunks, the last one
    # partial here; J is elementwise, so the bits are one call's
    n = 9 * TABLE_CHUNK + 5
    js, peak = _peak_bytes(lambda: j_values(n - 1, t))
    assert np.array_equal(_bits(js), _bits(_j(np.arange(n), t)))
    # _j's temporaries at TABLE_CHUNK entries
    assert peak <= js.nbytes + 2e6

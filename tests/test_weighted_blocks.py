"""The one weighted-block driver: every analytic sum of blocks, sum_i w_i
block(N, c_i), and its estimate come from ``indicators.weighted_blocks``.
Its value and estimate are math.fsum sums, so they do not depend on the
order of the pairs; each driver is one call of it; the drivers refuse a
bad k or t before they size anything; and no other code cuts windows or
builds a BlockTables."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from arithsum import dsums, indicators, series, sigma_rh
from arithsum.dsums import (
    DiophantineInstance,
    alternating_weight,
    divisor_pair_sum_analytic,
    reciprocal_weight,
    sum_diff_analytic,
    sum_squares_analytic,
    unit_weight,
    weighted_finite_analytic,
    weighted_infinite_analytic,
)
from arithsum.indicators import (
    BlockTables,
    _cut_windows,
    _default_r_len,
    q_analytic,
    weighted_blocks,
    zero_identity_residual,
)
from arithsum.kernels import kernel_g
from arithsum.sigma_rh import _sigma_r_len, _sigma_tail, sigma_analytic

SRC = Path(__file__).resolve().parents[1] / "src" / "arithsum"

DRIVERS = {
    "q": lambda k, t: q_analytic(k, 7, t),
    "zero": lambda k, t: zero_identity_residual(k, -1, t),
    "finite": lambda k, t: weighted_finite_analytic(unit_weight(), k, 5, t),
    "infinite": lambda k, t: weighted_infinite_analytic(unit_weight(), k, 5, t, a_horizon=3),
    "squares": lambda k, t: sum_squares_analytic(unit_weight(), DiophantineInstance(10, 1, k, "sum"), t),
    "diff": lambda k, t: sum_diff_analytic(unit_weight(), DiophantineInstance(3, 1, k, "difference"), t, 3),
    "divisor": lambda k, t: divisor_pair_sum_analytic(unit_weight(), 6, t),
    "sigma": lambda k, t: sigma_analytic(6, t),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_refuse_a_bad_t_by_name(driver, t):
    with pytest.raises(ValueError, match="^t must be"):
        DRIVERS[driver](1, t)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("driver", ["q", "zero", "finite", "infinite"])
def test_drivers_refuse_a_bad_k_by_name(driver, k):
    # the instance-based drivers refuse k < 1 in DiophantineInstance, and
    # the divisor-pair sums and sigma have k = 1
    with pytest.raises(ValueError, match="^k must be"):
        DRIVERS[driver](k, 1.0)


def test_the_check_comes_before_any_window_is_sized(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("a window was sized")

    monkeypatch.setattr(indicators, "_default_r_len", unavailable)
    monkeypatch.setattr(sigma_rh, "_sigma_r_len", unavailable)
    for driver in DRIVERS.values():
        with pytest.raises(ValueError, match="^t must be"):
            driver(1, 0.0)


def _pairs(seed, n, N):
    rng = random.Random(seed)
    shifts = rng.sample(range(-N + 1, 60), n)
    return [rng.uniform(-3.0, 3.0) for _ in shifts], shifts


@pytest.mark.parametrize("N,k,t", [(40, 1, 0.7), (37, 2, 0.2), (25, 3, 4.0)])
def test_permuted_pairs_give_the_same_bits(N, k, t):
    weights, shifts = _pairs(N, 30, N)
    ev = weighted_blocks(N, k, t, weights, shifts, None, dsums._block_tail)
    order = list(range(len(shifts)))
    for seed in range(3):
        random.Random(seed).shuffle(order)
        perm = weighted_blocks(
            N, k, t, [weights[i] for i in order], [shifts[i] for i in order], None, dsums._block_tail
        )
        assert perm.value == ev.value
        assert perm.error_estimate == ev.error_estimate
        assert perm.terms_used == ev.terms_used


def test_permuted_sigma_pairs_give_the_same_bits():
    N, t = 90, 1.0
    a2 = np.arange(1, N, dtype=np.int64) ** 2
    M = (4 * N + a2).astype(float)
    r_len = _sigma_r_len(N, t)
    ev = weighted_blocks(4 * N, 1, t, M**2.5, a2, r_len, _sigma_tail)
    order = np.random.default_rng(5).permutation(N - 1)
    perm = weighted_blocks(4 * N, 1, t, (M**2.5)[order], a2[order], r_len, _sigma_tail)
    assert (perm.value, perm.error_estimate) == (ev.value, ev.error_estimate)


def test_value_and_estimate_are_the_fsums_of_the_blocks():
    N, k, t = 30, 2, 0.5
    weights, shifts = _pairs(3, 20, N)
    r_lens = [_default_r_len(N, c, t) for c in shifts]
    ev = weighted_blocks(N, k, t, weights, shifts, r_lens, dsums._block_tail)
    r_max = max(r_lens)
    # the windows |r| <= r_len at base N, M = r - N, capped at r_len - N
    L = np.array(r_lens)
    tables = BlockTables(k, t, -r_max - N, r_max - N, r_max + max(map(abs, shifts)))
    w = _cut_windows(k, t, N + np.array(shifts), -L - N, L - N)
    values = tables.evaluate(w)
    bounds = w.bound
    assert ev.value == math.fsum(w * v for w, v in zip(weights, values.tolist()))
    assert ev.error_estimate == math.fsum(
        abs(w) * (50.0 * r**-3.5 + b) for w, r, b in zip(weights, r_lens, bounds.tolist())
    )
    assert ev.terms_used == {"blocks": len(shifts), "r_terms": r_max}


CALLS = {
    "sigma": lambda: sigma_analytic(40, 1.0),
    "finite": lambda: weighted_finite_analytic(alternating_weight(), 1, 20, 1.0),
    "infinite": lambda: weighted_infinite_analytic(reciprocal_weight(), 2, 20, 1.0, a_horizon=30),
    "squares": lambda: sum_squares_analytic(unit_weight(), DiophantineInstance(50, 1, 1, "sum"), 1.0),
    "diff": lambda: sum_diff_analytic(unit_weight(), DiophantineInstance(3, 1, 1, "difference"), 1.0, 20),
    "divisor": lambda: divisor_pair_sum_analytic(unit_weight(), 30, 1.0),
}


@pytest.mark.parametrize("driver", sorted(CALLS))
def test_each_driver_is_one_weighted_blocks_call(monkeypatch, driver):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return weighted_blocks(*args, **kwargs)

    for module in (indicators, dsums, sigma_rh):
        monkeypatch.setattr(module, "weighted_blocks", counted)
    CALLS[driver]()
    assert len(calls) == 1


@pytest.mark.parametrize("driver", ["q", "zero"])
def test_q_and_the_vanishing_identities_are_one_inversion(monkeypatch, driver):
    # they reach no engine: each is one invert_series_many call of q's evaluator
    def unavailable(*args, **kwargs):
        raise AssertionError("the block engine was called")

    calls = []
    real = series.invert_series_many
    monkeypatch.setattr(series, "invert_series_many", lambda F, Ns, t: calls.append((F.label, list(Ns))) or real(F, Ns, t))
    for name in ("weighted_blocks", "BlockTables", "_cut_windows"):
        monkeypatch.setattr(indicators, name, unavailable)
    if driver == "q":
        assert q_analytic(1, 49, 2.0).value == pytest.approx(1.0 / 49**2, abs=1e-12)
        assert calls == [("square-indicator k=1", [49])]
    else:
        assert zero_identity_residual(2, -5, 1.0) < 1e-12
        assert calls == [("square-indicator k=2", [-5])]


def test_an_empty_shift_set_is_its_horizon_tail():
    ev = weighted_blocks(5, 1, 1.0, [], [], None, dsums._block_tail)
    assert (ev.value, ev.error_estimate, ev.terms_used, ev.guards_engaged) == (0.0, 0.0, {"blocks": 0}, False)
    ev = weighted_infinite_analytic(unit_weight(), 4, 5, 1.0, a_horizon=0)
    assert ev.value == 0.0
    assert ev.error_estimate == 1.0 / (3.0 * math.sqrt(4) * 5**1.5)
    assert ev.terms_used == {"blocks": 0}
    ev = sum_squares_analytic(unit_weight(), DiophantineInstance(1, 1, 1, "sum"), 1.0)
    assert (ev.value, ev.error_estimate, ev.terms_used) == (0.0, 0.0, {"blocks": 0})


def _functions_that(predicate):
    """(file, qualified function name) of every call in src/arithsum for
    which predicate(call node) holds."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                else:
                    if isinstance(child, ast.Call) and predicate(child):
                        found.append((path.name, ".".join(scope)))
                    visit(child, scope)

        visit(tree, [])
    return found


def _calls(name):
    def predicate(call):
        f = call.func
        return (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name)

    return predicate


def test_only_the_weighted_driver_cuts_windows_and_builds_tables():
    # a second weighted sum of blocks would have to cut its own windows and
    # size its own tables; ``block_value``, one block over given tables, cuts too
    assert sorted(_functions_that(_calls("_cut_windows"))) == [
        ("indicators.py", "block_value"),
        ("indicators.py", "weighted_blocks"),
    ]
    assert _functions_that(_calls("BlockTables")) == [("indicators.py", "weighted_blocks")]


def test_the_engine_takes_no_base():
    # the engine is keyed on (k, t) and each block's (y, lo, hi): no base N,
    # and so no r = M + N, enters it; weighted_blocks alone converts
    tree = ast.parse((SRC / "indicators.py").read_text())
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    classes = {c.name: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
    init = next(f for f in classes["BlockTables"].body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    for f in (init, functions["_cut_windows"], functions["_positive_cuts"]):
        assert "N" not in [a.arg for a in f.args.args], f.name
    assert indicators.Windows._fields == ("y", "lo", "hi", "bound", "g_tail", "head", "exp_part")


def test_each_cut_is_decided_once(monkeypatch):
    # _positive_cuts decides each cut and its bound; the window carries both,
    # so the engine takes no cap and evaluates no tail again
    assert _functions_that(_calls("_positive_tails")) == [("indicators.py", "_positive_cuts")]
    calls = []
    real = indicators._positive_tails
    monkeypatch.setattr(indicators, "_positive_tails", lambda *args: calls.append(args) or real(*args))
    sigma_analytic(300, 1.0)  # every one of its blocks is cut
    assert len(calls) == 1
    tree = ast.parse((SRC / "indicators.py").read_text())
    (tables,) = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "BlockTables"]
    (evaluate,) = [f for f in tables.body if isinstance(f, ast.FunctionDef) and f.name == "evaluate"]
    assert [a.arg for a in evaluate.args.args] == ["self", "w"]
    assert not evaluate.args.vararg and not evaluate.args.kwonlyargs and not evaluate.args.kwarg


def _strided_negations(path):
    """The functions of path with an x[a:b:c] *= -1.0."""
    found = []
    for f in ast.walk(ast.parse(path.read_text())):
        if isinstance(f, ast.FunctionDef):
            for n in ast.walk(f):
                if (
                    isinstance(n, ast.AugAssign)
                    and isinstance(n.op, ast.Mult)
                    and isinstance(n.target, ast.Subscript)
                    and isinstance(n.target.slice, ast.Slice)
                    and n.target.slice.step is not None
                    and isinstance(n.value, ast.UnaryOp)
                    and isinstance(n.value.op, ast.USub)
                    and isinstance(n.value.operand, ast.Constant)
                    and n.value.operand.value == 1.0
                ):
                    found.append(f.name)
    return found


def test_the_j_sign_is_applied_once():
    # j_values builds the signed table (-1)^q J(q); its readers only index
    # or mirror it.  integrals._j's own pass is the one that signs J
    assert not _strided_negations(SRC / "series.py")
    assert not _strided_negations(SRC / "indicators.py")
    assert "_j" in _strided_negations(SRC / "integrals.py")


def _blocks_of(monkeypatch, call):
    """(windows, caps, values) of the one weighted_blocks plan inside call():
    the caps are the upper ends it asks _cut_windows for."""
    caps, seen = [], []
    real_cut, real_evaluate = indicators._cut_windows, BlockTables.evaluate

    def cut(k, t, y, lo, hi):
        caps.append(np.asarray(hi))
        return real_cut(k, t, y, lo, hi)

    def spy(self, w):
        out = real_evaluate(self, w)
        seen.append((w, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(indicators, "_cut_windows", cut)
        m.setattr(BlockTables, "evaluate", spy)
        call()
    (cap,), ((w, value),) = caps, seen
    return w, cap, value


@pytest.mark.parametrize("N,t", [(60, 0.3), (200, 1.0)])
def test_a_blocks_bits_depend_only_on_its_window(monkeypatch, N, t):
    # the same block (k, t, y, lo, hi) in sigma(N)'s batch at base 4N,
    # alone over tables that hold just its window, and alone in a
    # weighted_blocks call at another base N', with the shift y - N' and an
    # r_len that gives the same window.  At N = 200 every window reaches
    # below M = -2^15, and so crosses a tile edge: tiles fixed in r = M + N
    # would split it differently at each base.  At N = 60 the window lies
    # in one tile, and the batch sums the exp-series of 59 arguments
    w, cap, value = _blocks_of(monkeypatch, lambda: sigma_analytic(N, t))
    assert (w.hi < cap).all()  # cut: another base's cap leaves hi where it is
    if N == 200:
        assert (w.lo < -(2**15)).all()
    for i in range(0, w.y.size, 5):
        y, lo, hi, top = int(w.y[i]), int(w.lo[i]), int(w.hi[i]), int(cap[i])
        tables = BlockTables(1, t, lo, hi, max(-lo - y, hi + y))
        assert indicators.block_value(tables, y, lo, top) == value[i], y
        base = min(y - 5, (-lo - hi) // 2 - 3)  # its cap -lo - 2 N' lies past hi
        other = _blocks_of(monkeypatch, lambda: weighted_blocks(base, 1, t, [1.0], [y - base], -lo - base, _sigma_tail))
        assert (int(other[0].lo[0]), int(other[0].hi[0])) == (lo, hi)
        assert other[2][0] == value[i], y


def test_the_cut_is_closed_form():
    # each shift's cut is one closed root and one check of the bound at it:
    # no search, so no loop of any kind
    tree = ast.parse((SRC / "indicators.py").read_text())
    (cuts,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_positive_cuts"]
    loops = [n for n in ast.walk(cuts) if isinstance(n, (ast.For, ast.AsyncFor, ast.While, ast.comprehension))]
    assert not loops, [type(n).__name__ for n in loops]


def _function(path, qualname):
    tree = ast.parse(path.read_text())
    *owners, name = qualname.split(".")
    body = tree.body
    for owner in owners:
        body = next(c for c in body if isinstance(c, ast.ClassDef) and c.name == owner).body
    return next(f for f in body if isinstance(f, ast.FunctionDef) and f.name == name)


def test_evaluate_returns_the_block_values_alone():
    evaluate = _function(SRC / "indicators.py", "BlockTables.evaluate")
    returns = [n for n in ast.walk(evaluate) if isinstance(n, ast.Return)]
    assert returns and not any(isinstance(r.value, ast.Tuple) for r in returns)
    N, k, t = 20, 1, 0.5
    w = _cut_windows(k, t, [N - 3, N + 4], [-1600 - N] * 2, [1600 - N] * 2)
    value = BlockTables(k, t, *w.extent).evaluate(w)
    assert isinstance(value, np.ndarray) and value.shape == (2,)


def test_only_sigmas_tail_takes_a_prefix_sum_of_g(monkeypatch):
    # the rounding scale's prefix sum of |g| runs over the union window; no
    # other tail reads it, and no tail is handed it
    assert _functions_that(_calls("rounding_scale")) == [("sigma_rh.py", "_sigma_tail")]
    assert [f for f in _functions_that(_calls("cumsum")) if f[0] == "indicators.py"] == [
        ("indicators.py", "BlockTables.rounding_scale")
    ]
    tails = [(SRC / "dsums.py", "_block_tail"), (SRC / "sigma_rh.py", "_sigma_tail")]
    for path, name in tails:
        assert [a.arg for a in _function(path, name).args.args] == ["tables", "w", "r_len"], name
    calls = []
    real = BlockTables.rounding_scale
    monkeypatch.setattr(BlockTables, "rounding_scale", lambda self, w: calls.append(w.y.size) or real(self, w))
    for driver in sorted(CALLS):
        del calls[:]
        CALLS[driver]()
        assert calls == ([39] if driver == "sigma" else []), driver


def test_the_held_tables_hold_one_array_each(monkeypatch):
    monkeypatch.setattr(indicators, "_HELD", {})
    sigma_analytic(30, 1.0)
    weighted_blocks(9, 2, 0.7, [1.0], [0], None, dsums._block_tail)  # a new key: sigma's plan goes whole
    ((key, (lo, hi, Q, g, Js)),) = indicators._HELD.items()
    assert key == (2, 0.7)
    for a, n in (g, hi - lo + 1), (Js, 2 * Q + 1):
        assert isinstance(a, np.ndarray) and a.shape == (n,) and not a.flags.writeable
    w = _cut_windows(1, 1.0, [40], [-1600], [1560])
    tables = BlockTables(1, 1.0, *w.extent)
    assert sorted(k for k, v in vars(tables).items() if isinstance(v, np.ndarray)) == ["Js", "g"]
    # the flag is G's at the top of the windows weighted_blocks cuts for q(40)
    r = _default_r_len(40, 0, 1.0)
    w = _cut_windows(1, 1.0, [40], [-r - 40], [r - 40])
    ev = weighted_blocks(40, 1, 1.0, [1.0], [0], None, dsums._block_tail)
    assert ev.guards_engaged == kernel_g(int(w.hi.max()), 1.0, 1).overflow_guarded


@pytest.mark.parametrize("N,shifts,r_lens", [(10**20, [0], None), (2**62, [0], None), (2**60 + 1, [0], None),
                                             (5, [2**61], None), (5, [10**20], None), (5, [1], 2**62 + 1),
                                             (5, [1], 10**20)])
def test_coordinates_that_could_wrap_int64_are_refused(monkeypatch, N, shifts, r_lens):
    # before anything is sized: N, c and r_len past 2^60, 2^60 and 2^62
    def unavailable(*args, **kwargs):
        raise AssertionError("a window was cut")

    monkeypatch.setattr(indicators, "_cut_windows", unavailable)
    with pytest.raises(ValueError, match=r"at most 2\^60 and r_len at most 2\^62"):
        weighted_blocks(N, 1, 1.0, [1.0], shifts, r_lens, dsums._block_tail)


def test_q_refuses_a_huge_n():
    with pytest.raises(ValueError, match=r"2\^60"):
        q_analytic(1, 10**20)

"""One t-domain: ``kernels.check_t`` (T_MIN <= t <= T_BIG) and
``kernels.check_analytic_t`` (T_MIN <= t <= T_MAX) are the only checks of t.
Every public entry that takes t refuses a t outside its domain by name,
before it sizes anything, and the CLI reads the same bound."""

import ast
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from arithsum.cli import ConfigError, parse_t
from arithsum.dsums import (
    DiophantineInstance,
    divisor_pair_sum_analytic,
    sum_diff_analytic,
    sum_squares_analytic,
    unit_sum_diff,
    unit_sum_squares,
    unit_weight,
    weighted_finite_analytic,
    weighted_infinite_analytic,
)
from arithsum.indicators import (
    BlockTables,
    q_analytic,
    q_general_analytic,
    q_shifted_analytic,
    zero_identity_residual,
)
from arithsum.integrals import integral_i, integral_j, integral_k, j_values, quadrature_oracle
from arithsum.kernels import (
    T_BIG,
    T_MAX,
    T_MIN,
    check_analytic_t,
    g_values,
    half_plane_root,
    kernel_g,
    kernel_t,
    kernel_v,
    t_values,
)
from arithsum.series import geometric_series_evaluator, invert_series, lemma4_residual, self_consistency_residual
from arithsum.sigma_rh import sigma_analytic

SRC = Path(__file__).resolve().parents[1] / "src" / "arithsum"

SQUARES = DiophantineInstance(10, 1, 1, "sum")
DIFF = DiophantineInstance(3, 1, 1, "difference")


def _lemma4(t, beta=0.0):
    return lemma4_residual(lambda n: 1.0 / (n * n), beta, t, 20)


# entries whose values hold at every t from T_MIN to T_BIG
ANY_T = {
    "kernel_g": lambda t: kernel_g(5.0, t),
    "kernel_t": lambda t: kernel_t(5.0, t),
    "kernel_v": lambda t: kernel_v(5.0, t),
    "half_plane_root": lambda t: half_plane_root(5.0, t),
    "g_values": lambda t: g_values(np.array([-3.0, 5.0]), t),
    "t_values": lambda t: t_values(np.array([-3.0, 5.0]), t),
    "integral_i": lambda t: integral_i(3, t),
    "integral_k": lambda t: integral_k(3, t),
    "integral_j": lambda t: integral_j(3, t),
    "j_values": lambda t: j_values(10, t),
    "quadrature_oracle": lambda t: quadrature_oracle("J", 3, t),
}

# entries that form the closed heads or sinh(pi t): T_MIN <= t <= T_MAX
ANALYTIC = {
    "lemma4_residual": _lemma4,
    "invert_series": lambda t: invert_series(geometric_series_evaluator(), 2, t),
    "self_consistency_residual": lambda t: self_consistency_residual(geometric_series_evaluator(), t),
    "q_analytic": lambda t: q_analytic(1, 7, t),
    "zero_identity_residual": lambda t: zero_identity_residual(1, -1, t),
    "q_shifted_analytic": lambda t: q_shifted_analytic(1, 4, 1, t),
    "q_general_analytic": lambda t: q_general_analytic(1, 2, 16, t),
    "BlockTables": lambda t: BlockTables(1, t, -107, 93, 200),
    "weighted_finite_analytic": lambda t: weighted_finite_analytic(unit_weight(), 1, 5, t),
    "weighted_infinite_analytic": lambda t: weighted_infinite_analytic(unit_weight(), 1, 5, t, a_horizon=3),
    "sum_squares_analytic": lambda t: sum_squares_analytic(unit_weight(), SQUARES, t),
    "sum_diff_analytic": lambda t: sum_diff_analytic(unit_weight(), DIFF, t, 3),
    "divisor_pair_sum_analytic": lambda t: divisor_pair_sum_analytic(unit_weight(), 6, t),
    "unit_sum_squares": lambda t: unit_sum_squares(SQUARES, t),
    "unit_sum_diff": lambda t: unit_sum_diff(DIFF, t),
    "sigma_analytic": lambda t: sigma_analytic(6, t),
}

BAD_T = [0.0, -1.0, math.nan, math.inf]
PAST_T_MAX = [150.0, 220.0, 300.0]
BELOW_T_MIN = [1e-310, 1e-300, 1e-17]
CASES = [(name, t) for name in ANY_T for t in BAD_T + BELOW_T_MIN]
# lemma4_residual is even in t, and serves t = -1
CASES += [
    (name, t) for name in ANALYTIC for t in BAD_T + PAST_T_MAX + BELOW_T_MIN if (name, t) != ("lemma4_residual", -1.0)
]


@pytest.mark.parametrize("name,t", CASES)
def test_every_entry_refuses_a_bad_t_by_name(name, t):
    entry = {**ANY_T, **ANALYTIC}[name]
    with pytest.raises(ValueError, match="^t must be"):
        entry(t)


def test_lemma4_residual_is_even_in_t():
    # beta = 0 ends with the alternating closed tail, beta = +-1 with the plain one
    for beta in (-1.0, 0.0, 1.0):
        assert _lemma4(-1.0, beta) == _lemma4(1.0, beta), beta
        assert _lemma4(-0.4, beta) == _lemma4(0.4, beta), beta


def test_kernels_and_integrals_serve_t_past_the_analytic_bound():
    for t in (150.0, 1e3):
        assert math.isfinite(kernel_g(5.0, t).value)
        assert math.isfinite(kernel_v(5.0, t).value)
        assert math.isfinite(integral_j(3, t).value)
        assert np.isfinite(j_values(10, t)).all()


def _finite(x):
    if dataclasses.is_dataclass(x):
        return all(_finite(v) for v in dataclasses.astuple(x))
    return bool(np.isfinite(x).all())


@pytest.mark.parametrize("name", sorted(ANY_T))
def test_kernels_and_integrals_end_at_t_big(name):
    # at T_BIG = 2^204 no intermediate overflows, so no RuntimeWarning is
    # raised; one ulp above it check_t refuses t by name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite(ANY_T[name](T_BIG)), name
    with pytest.raises(ValueError, match=r"^t must be at most 2\^204"):
        ANY_T[name](float(np.nextafter(T_BIG, math.inf)))


def test_kernels_at_t_big_stay_finite_for_m_up_to_t():
    # G's |M + it|^5 is the first intermediate to overflow as t grows
    M = np.array([-1.4, -1.0, -1e-3, 0.0, 1e-3, 1.0, 1.4]) * T_BIG
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2, 3):
            assert np.isfinite(g_values(M, T_BIG, k)).all(), k
        assert np.isfinite(t_values(M, T_BIG)).all()
        for q in (0, 1, 10**6):
            for f in (integral_i, integral_k, integral_j):
                assert _finite(f(q, T_BIG)), (f, q)


def test_the_library_and_the_cli_share_the_bound():
    past = float(np.nextafter(T_MAX, math.inf))
    check_analytic_t(T_MAX)
    assert parse_t(repr(T_MAX)) == [T_MAX]
    with pytest.raises(ValueError, match="^t must be at most"):
        check_analytic_t(past)
    with pytest.raises(ConfigError, match="112.965"):
        parse_t(repr(past))


def test_the_library_and_the_cli_share_the_lower_end():
    below = float(np.nextafter(T_MIN, 0.0))
    check_analytic_t(T_MIN)
    assert parse_t(repr(T_MIN)) == [T_MIN]
    with pytest.raises(ValueError, match="^t must be at least"):
        check_analytic_t(below)
    with pytest.raises(ConfigError, match=f"^t = {re.escape(repr(below))} .*t must be at least"):
        parse_t(repr(below))


def test_a_horizon_is_refused_by_name():
    # a_horizon = 0 is an empty infinite sum, but no difference sum
    for a_horizon in (0, -5):
        with pytest.raises(ValueError, match="^a_horizon must be"):
            sum_diff_analytic(unit_weight(), DIFF, 1.0, a_horizon=a_horizon)
    with pytest.raises(ValueError, match="^a_horizon must be"):
        weighted_infinite_analytic(unit_weight(), 1, 5, 1.0, a_horizon=-5)
    assert weighted_infinite_analytic(unit_weight(), 1, 5, 1.0, a_horizon=0).value == 0.0


def _functions():
    """(file, qualified name, node) of every function in src/arithsum."""
    found = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = scope + [child.name]
                    if not isinstance(child, ast.ClassDef):
                        found.append((path.name, ".".join(name), child))
                    visit(child, name)

        visit(ast.parse(path.read_text()), [])
    return found


def _own_nodes(fn):
    """The nodes of fn's body, without those of the functions nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack += [c for c in ast.iter_child_nodes(node) if not isinstance(c, (ast.FunctionDef, ast.ClassDef))]


def _leading_text(arg):
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr) and arg.values and isinstance(arg.values[0], ast.Constant):
        return arg.values[0].value
    return ""


def test_only_the_kernels_checks_raise_about_t():
    raisers = sorted({
        (path, name)
        for path, name, fn in _functions()
        for node in _own_nodes(fn)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id == "ValueError"
        and node.exc.args
        and re.match(r"\|?t\b", _leading_text(node.exc.args[0]))
    })
    assert raisers == [("kernels.py", "check_analytic_t"), ("kernels.py", "check_t")]


def _is_t(node):
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs" and node.args:
        node = node.args[0]
    return isinstance(node, ast.Name) and node.id == "t"


def _is_zero(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


def test_no_other_function_compares_t_with_zero():
    comparers = []
    for path, name, fn in _functions():
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if "t" not in {a.arg for a in params}:
            continue
        for node in _own_nodes(fn):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(_is_t(a) for a in operands) and any(_is_zero(a) for a in operands):
                    comparers.append((path, name))
    assert comparers == [("kernels.py", "check_t")]

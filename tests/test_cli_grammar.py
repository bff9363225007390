"""The CLI's contract over a grammar of its flags, in process: every call
returns 0, 1 or 2, raises nothing, and an exit 2 prints nothing to stdout
and exactly one ``error:`` line to stderr.

Each flag is drawn from valid, boundary and junk values; half the calls
draw valid values only, so that most of those run to a report.  The draws
keep to inputs that finish fast: t in (T_MIN, 1e-3) and large N are left
out, since such plans still allocate before they are refused.  eval-q
with s >= 2 at t = 1e-4, which samples |N| + 128 points a side, is one
example among the draws."""

import contextlib
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithsum.cli import main


def _flag(valid, junk):
    """(the valid values of a flag, all of its values)"""
    return valid, st.one_of(valid, junk)


T = _flag(
    st.floats(math.log(0.1), math.log(10.0)).map(lambda x: repr(math.exp(x))),
    st.sampled_from(["0", "-1", "nan", "inf", "113", "1e-300", "1e-17"]),
)
TOL = _flag(st.sampled_from(["1e-8", "0"]), st.sampled_from(["nan", "inf", "-1"]))
N = _flag(st.integers(2, 100).map(str), st.one_of(st.integers(-3, 1).map(str), st.sampled_from(["", "5..2", "1..", "a"])))
SMALL = _flag(st.integers(1, 3), st.just(0))
JOBS = _flag(st.just(1), st.just(0))
HORIZON = _flag(st.sampled_from([100, 10000]), st.just(0))
SUITE = _flag(st.just(["--suite=kernels", "--fast"]), st.just(["--suite=nope"]))


def _options(**flags) -> list[str]:
    return [f"--{name}={value}" for name, value in flags.items()]


@st.composite
def argvs(draw) -> list[str]:
    valid_only = draw(st.booleans())

    def pick(flag):
        return draw(flag[0] if valid_only else flag[1])

    command = draw(st.sampled_from(["eval-q", "sum", "sigma", "rh", "verify"]))
    if command == "verify":
        return ["verify", *pick(SUITE), *_options(tol=pick(TOL), jobs=pick(JOBS))]
    t, jobs = pick(T), pick(JOBS)
    if command == "eval-q":
        return ["eval-q", *_options(k=pick(SMALL), s=pick(SMALL), N=pick(N), t=t, tol=pick(TOL), jobs=jobs)]
    if command == "sum":
        kind = draw(st.sampled_from(["squares", "difference", "divisor-pairs"]))
        weight = draw(st.sampled_from(["unit", "alternating", "reciprocal"]))
        return ["sum", *_options(kind=kind, N=pick(N), d=pick(SMALL), k=pick(SMALL), weight=weight, t=t,
                                 tol=pick(TOL), horizon=pick(HORIZON), jobs=jobs)]
    if command == "sigma":
        return ["sigma", *_options(N=pick(N), t=t, jobs=jobs)]
    lo = draw(st.integers(2 if valid_only else 0, 100))
    hi = lo if valid_only else lo + draw(st.sampled_from([-1, 0, 1]))
    mode = draw(st.sampled_from(["exact", "analytic"]))
    return ["rh", *_options(**{"from": lo, "to": hi}, mode=mode, t=t, jobs=jobs)]


@given(argvs())
@example(["eval-q", "--k=1", "--s=2", "--N=5", "--t=1e-4"])
@settings(max_examples=300, deadline=None)
def test_every_call_exits_0_1_or_2_and_explains_a_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)

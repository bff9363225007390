"""Command-line surface: single evaluations, range sweeps, verification
suites, and machine-readable reports.

Commands
--------
eval-q   classify N = k m^(2s) through the series representation and
         compare against the integer-exact definition
sum      analytic vs enumeration for the Diophantine / divisor-pair sums
sigma    series value of the divisor sum vs exact trial division
rh       Lagarias (and Robin where applicable) inequality margins
verify   identity suites with per-check residuals

Every command runs one item pipeline.  A ``cmd_*`` function only checks
its arguments and turns them into (worker, items); ``main`` then calls
the worker on each item through ``_timed``, in process or in a pool of
``--jobs``/ARITH_JOBS workers, writes the report with ``_emit`` and
exits 1 if any record failed.  Every worker builds its record with
``_record``; ``_timed`` appends its wall time ``ms``, measured only under
``--timing`` (0.0 otherwise, so that default reports are byte-identical
across runs).  The report config is the flags the command read.

Reports carry one record per item with a fixed schema
{inputs, value, oracle, diff, error_estimate, terms, guards, ms} and a
summary {count, failures, max_abs_diff}.  JSON serializes numbers with
17 significant digits; CSV uses RFC-4180 quoting with the documented
column order.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error, including a t that ``kernels.check_analytic_t``
refuses, a --tol that is not finite and >= 0, a sum whose d, k or horizon
is below 1 (whatever its kind reads), and an item too large to allocate.
Every worker decides ``failed`` through ``series.verdict``, the one
failure rule, with the quarter rule ``_SIGMA_BOUND`` as sigma's integer
bound, so a non-finite value gives a failed record and exit 1; a NaN diff
makes the summary's max_abs_diff NaN."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import dsums, indicators, sigma_rh, suites
from .kernels import check_analytic_t
from .series import verdict

CSV_COLUMNS = ["inputs", "value", "oracle", "diff", "error_estimate", "terms", "guards", "ms"]


class ConfigError(ValueError):
    pass


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    return format(float(x), ".17g")


def _dumps(obj, indent: int = 0) -> str:
    """JSON with floats rendered at 17 significant digits."""
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes, dict, list, tuple)):
        obj = obj.item()  # numpy scalars
    pad = " " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_dumps(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        inner = ",\n".join(f"{pad}  {_dumps(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def parse_range(spec: str) -> list[int]:
    """Integer range grammar: '7', '2..30', or '1,4,9'."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        if "," in spec:
            return [int(p) for p in spec.split(",")]
        return [int(spec)]
    except ValueError:
        raise ConfigError(f"cannot parse integer range {spec!r}") from None


def parse_t(spec: str) -> list[float]:
    try:
        vals = [float(p) for p in spec.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse t list {spec!r}") from None
    for v in vals:
        try:
            check_analytic_t(v)
        except ValueError as exc:
            raise ConfigError(f"t = {v} is refused: {exc}") from None
    return vals


# sigma's quarter rule: for floats, d <= nextafter(0.25, 0) is exactly d < 0.25.
# It stands in for sigma's error estimate, which is not below 0.5 over the
# whole range, until a derived rounding budget makes it so
_SIGMA_BOUND = math.nextafter(0.25, 0.0)

_WEIGHTS = {
    "unit": dsums.unit_weight,
    "alternating": dsums.alternating_weight,
    "reciprocal": dsums.reciprocal_weight,
}


# ---------------------------------------------------------------------------
# per-item workers (top level so that process pools can pickle them)
# ---------------------------------------------------------------------------


def _record(inputs, value, oracle, diff, error_estimate, terms, guards, failed) -> dict:
    """The eight fields of every record; ``_timed`` appends ``ms``."""
    return {
        "inputs": inputs,
        "value": value,
        "oracle": oracle,
        "diff": diff,
        "error_estimate": error_estimate,
        "terms": terms,
        "guards": guards,
        "failed": failed,
    }


def _work_eval_q(k, s, N, t, tol) -> dict:
    oracle = float(indicators.q_bruteforce(k, s, N))
    if s == 1:
        ev = indicators.q_analytic(k, N, t)
    else:
        ev = indicators.q_general_analytic(k, s, N, t)
    value = N * N * ev.value
    est = N * N * ev.error_estimate
    diff, failed = verdict(value, oracle, tol + est, integer=True)
    return _record({"k": k, "s": s, "N": N, "t": t}, value, oracle, diff, est,
                   ev.terms_used, ev.guards_engaged, failed)


def _work_sum(kind, N, d, k, weight, t, tol, horizon) -> dict:
    g = _WEIGHTS[weight]()
    tail = 0.0
    inputs = {"kind": kind, "N": N, "d": d, "k": k, "weight": weight, "t": t, "horizon": horizon}
    if kind == "divisor-pairs":
        ev = dsums.divisor_pair_sum_analytic(g, N, t)
        oracle = dsums._divisor_pair_bruteforce(g, N)
        del inputs["d"], inputs["k"], inputs["horizon"]
    elif kind == "squares":
        inst = dsums.DiophantineInstance(N, d, k, "sum")
        ev = dsums.sum_squares_analytic(g, inst, t)
        oracle = dsums.sum_squares_bruteforce(inst, g) / (k * k)
        del inputs["horizon"]
    else:
        inst = dsums.DiophantineInstance(N, d, k, "difference")
        raw, tail = dsums.sum_diff_bruteforce(inst, g, horizon)
        oracle = raw / (k * k)
        tail /= k * k
        ev = dsums.sum_diff_analytic(g, inst, t)
    diff, failed = verdict(ev.value, oracle, tol + ev.error_estimate + tail)
    return _record(inputs, ev.value, oracle, diff, ev.error_estimate + tail, ev.terms_used,
                   ev.guards_engaged, failed)


def _work_sigma(N, t) -> dict:
    ev = sigma_rh.sigma_analytic(N, t)
    oracle = float(sigma_rh.sigma_bruteforce(N))
    diff, failed = verdict(ev.value, oracle, _SIGMA_BOUND, integer=True)
    return _record({"N": N, "t": t}, ev.value, oracle, diff, ev.error_estimate, ev.terms_used,
                   ev.guards_engaged, failed)


def _work_rh(N, t, mode) -> dict:
    rec = sigma_rh.rh_check(N, t, mode)
    robin = rec.robin_rhs if rec.robin_rhs is not None else 0.0
    _, sigma_fail = verdict(rec.sigma_analytic, rec.sigma_exact, _SIGMA_BOUND, integer=True)
    return _record({"N": N, "t": t, "mode": mode}, rec.sigma_analytic, rec.lagarias_rhs,
                   rec.margin, rec.error_estimate, {"robin_rhs": robin, "harmonic": rec.harmonic},
                   False, rec.margin <= 0.0 or sigma_fail)


def _work_check(suite, label, residual, allowance, tol) -> dict:
    diff, failed = verdict(residual, 0.0, allowance + tol)
    return _record({"suite": suite, "check": label}, residual, 0.0, diff, allowance, {}, False, failed)


def _timed(worker, timing: bool, item: tuple) -> dict:
    started = time.perf_counter()
    record = worker(*item)
    record["ms"] = (time.perf_counter() - started) * 1000.0 if timing else 0.0
    return record


def _run_items(worker, items: list[tuple], jobs: int, timing: bool) -> list[dict]:
    call = functools.partial(_timed, worker, timing)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(call, items, chunksize=max(1, len(items) // (4 * jobs) or 1)))
    return [call(it) for it in items]


def _emit(config: dict, records: list[dict], fmt: str, out) -> None:
    failures = sum(1 for r in records if r["failed"])
    diffs = [abs(r["diff"]) for r in records]
    # max() keeps or drops a NaN depending on where it sits
    max_diff = math.nan if any(math.isnan(d) for d in diffs) else max(diffs, default=0.0)
    summary = {"count": len(records), "failures": failures, "max_abs_diff": max_diff}
    if fmt == "json":
        out.write(_dumps({"config": config, "records": records, "summary": summary}))
        out.write("\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    json.dumps(r["inputs"], sort_keys=True),
                    format(float(r["value"]), ".17g"),
                    format(float(r["oracle"]), ".17g"),
                    format(float(r["diff"]), ".17g"),
                    format(float(r["error_estimate"]), ".17g"),
                    json.dumps(r["terms"], sort_keys=True),
                    str(bool(r["guards"])).lower(),
                    format(float(r["ms"]), ".17g"),
                ]
            )
        return
    for r in records:
        flag = "FAIL" if r["failed"] else "ok"
        ins = " ".join(f"{k}={v}" for k, v in r["inputs"].items())
        out.write(
            f"[{flag}] {ins}: value={r['value']:.12g} oracle={r['oracle']:.12g} "
            f"diff={r['diff']:.3g} est={r['error_estimate']:.3g}\n"
        )
    out.write(
        f"summary: {summary['count']} records, {summary['failures']} failures, "
        f"max |diff| = {summary['max_abs_diff']:.3g}\n"
    )


def _jobs_from(args) -> int:
    source, jobs = "--jobs", args.jobs
    if jobs is None:
        source, env = "ARITH_JOBS", os.environ.get("ARITH_JOBS") or "1"
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(f"ARITH_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ConfigError(f"{source} must be at least 1, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# commands: each turns its arguments into (worker, items)
# ---------------------------------------------------------------------------


def _n_t_items(args, n_min: int) -> list[tuple[int, float]]:
    """(N, t) for every N of --N and t of --t, N-major."""
    ns = parse_range(args.N)
    if any(n < n_min for n in ns):
        raise ConfigError(f"{args.command} requires N >= {n_min}")
    ts = parse_t(args.t)
    return [(n, t) for n in ns for t in ts]


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"--tol must be finite and >= 0, got {tol}")


def cmd_eval_q(args):
    if args.k < 1 or args.s < 1:
        raise ConfigError("k and s must be positive")
    _check_tol(args.tol)
    return _work_eval_q, [(args.k, args.s, n, t, args.tol) for n, t in _n_t_items(args, 1)]


def cmd_sum(args):
    # for every kind, so that no report echoes a value no record read
    if min(args.d, args.k, args.horizon) < 1:
        raise ConfigError(f"sum requires d, k and horizon >= 1, got {args.d}, {args.k} and {args.horizon}")
    _check_tol(args.tol)
    return _work_sum, [
        (args.kind, n, args.d, args.k, args.weight, t, args.tol, args.horizon)
        for n, t in _n_t_items(args, 1)
    ]


def cmd_sigma(args):
    return _work_sigma, _n_t_items(args, 2)


def cmd_rh(args):
    lo = getattr(args, "from")
    if args.to < lo or lo < 2:
        raise ConfigError("rh requires 2 <= from <= to")
    ts = parse_t(args.t)
    return _work_rh, [(n, t, args.mode) for n in range(lo, args.to + 1) for t in ts]


def cmd_verify(args):
    _check_tol(args.tol)
    try:
        checks = suites.run_suite(args.suite, fast=args.fast)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    return _work_check, [(args.suite, *check, args.tol) for check in checks]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it
    unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="arithsum",
        description="Self-verifying series evaluations for arithmetic sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "t": dict(default="1.0", help="t value or comma list (default 1.0)"),
        "tol": dict(type=float, default=1e-8, help="comparison tolerance"),
        "timing": dict(action="store_true", help="record real per-item wall time"),
    }

    def common(p, *names):
        # --format, --jobs and the named flags; no prefix matching, by which
        # verify would read --t as --tol
        p.allow_abbrev = False
        for name in names:
            p.add_argument(f"--{name}", **flags[name])
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--jobs", type=int, default=None, help="parallel workers (or ARITH_JOBS)")

    p = sub.add_parser("eval-q", help="indicator classification vs integer definition")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--N", required=True, help="range: 7, 2..30, or 1,4,9")
    common(p, "t", "tol", "timing")
    p.set_defaults(func=cmd_eval_q)

    p = sub.add_parser("sum", help="Diophantine / divisor-pair sums vs enumeration")
    p.add_argument("--kind", required=True, choices=("squares", "difference", "divisor-pairs"))
    p.add_argument("--N", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--weight", default="unit", choices=tuple(_WEIGHTS))
    common(p, "t", "tol", "timing")
    p.add_argument("--horizon", type=int, default=10000, help="enumeration b horizon (difference kind)")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("sigma", help="divisor-sum series vs exact")
    p.add_argument("--N", required=True)
    common(p, "t", "timing")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("rh", help="Lagarias/Robin margins over a range")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--mode", default="exact", choices=("exact", "analytic"))
    common(p, "t", "timing")
    p.set_defaults(func=cmd_rh)

    p = sub.add_parser("verify", help="identity suites with per-check residuals")
    p.add_argument("--suite", required=True)
    p.add_argument("--fast", action="store_true", help="thinner grids for smoke runs")
    common(p, "tol")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        worker, items = args.func(args)
        records = _run_items(worker, items, _jobs_from(args), vars(args).get("timing", False))
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the config is the flags the subcommand read, led by the command
    config = {k: v for k, v in vars(args).items() if k not in ("func", "format", "jobs", "timing")}
    _emit(config, records, args.format, sys.stdout)
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())

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

Reports carry one record per item with a fixed schema
{inputs, value, oracle, diff, error_estimate, terms, guards, ms} and a
summary {count, failures, max_abs_diff}.  JSON serializes numbers with
17 significant digits; CSV uses RFC-4180 quoting with the documented
column order.  Exit codes: 0 success, 1 verification failure, 2 usage
or configuration error.  ``--jobs``/ARITH_JOBS parallelizes across
items only; per-record wall time is reported only under ``--timing`` so
that default reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import dsums, indicators, sigma_rh, suites

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
    if any(not (v > 0 and math.isfinite(v)) for v in vals):
        raise ConfigError("all t values must be positive and finite")
    return vals


_WEIGHTS = {
    "unit": dsums.unit_weight,
    "alternating": dsums.alternating_weight,
    "reciprocal": dsums.reciprocal_weight,
}


# ---------------------------------------------------------------------------
# per-item workers (top level so that process pools can pickle them)
# ---------------------------------------------------------------------------


def _finish(record: dict, started: float, timing: bool) -> dict:
    record["ms"] = (time.perf_counter() - started) * 1000.0 if timing else 0.0
    return record


def _work_eval_q(item) -> dict:
    k, s, N, t, tol, timing = item
    started = time.perf_counter()
    oracle = float(indicators.q_bruteforce(k, s, N))
    if s == 1:
        ev = indicators.q_analytic(k, N, t)
    else:
        ev = indicators.q_general_analytic(k, s, N, t)
    value = N * N * ev.value
    est = N * N * ev.error_estimate
    diff = abs(value - oracle)
    rec = {
        "inputs": {"k": k, "s": s, "N": N, "t": t},
        "value": value,
        "oracle": oracle,
        "diff": diff,
        "error_estimate": est,
        "terms": ev.terms_used,
        "guards": ev.guards_engaged,
        "failed": diff > tol + est or round(value) != oracle,
    }
    return _finish(rec, started, timing)


def _work_sum(item) -> dict:
    kind, N, d, k, weight, t, tol, horizon, timing = item
    started = time.perf_counter()
    g = _WEIGHTS[weight]()
    tail = 0.0
    if kind == "divisor-pairs":
        ev = dsums.divisor_pair_sum_analytic(g, N, t)
        oracle = dsums._divisor_pair_bruteforce(g, N)
        inputs = {"kind": kind, "N": N, "weight": weight, "t": t}
    elif kind == "squares":
        inst = dsums.DiophantineInstance(N, d, k, "sum")
        ev = dsums.sum_squares_analytic(g, inst, t)
        oracle = dsums.sum_squares_bruteforce(inst, g) / (k * k)
        inputs = {"kind": kind, "N": N, "d": d, "k": k, "weight": weight, "t": t}
    else:
        inst = dsums.DiophantineInstance(N, d, k, "difference")
        raw, tail = dsums.sum_diff_bruteforce(inst, g, horizon)
        oracle = raw / (k * k)
        tail /= k * k
        ev = dsums.sum_diff_analytic(g, inst, t)
        inputs = {
            "kind": kind,
            "N": N,
            "d": d,
            "k": k,
            "weight": weight,
            "t": t,
            "horizon": horizon,
        }
    diff = abs(ev.value - oracle)
    rec = {
        "inputs": inputs,
        "value": ev.value,
        "oracle": oracle,
        "diff": diff,
        "error_estimate": ev.error_estimate + tail,
        "terms": ev.terms_used,
        "guards": ev.guards_engaged,
        "failed": diff > tol + ev.error_estimate + tail,
    }
    return _finish(rec, started, timing)


def _work_sigma(item) -> dict:
    N, t, timing = item
    started = time.perf_counter()
    ev = sigma_rh.sigma_analytic(N, t)
    oracle = float(sigma_rh.sigma_bruteforce(N))
    diff = abs(ev.value - oracle)
    rec = {
        "inputs": {"N": N, "t": t},
        "value": ev.value,
        "oracle": oracle,
        "diff": diff,
        "error_estimate": ev.error_estimate,
        "terms": ev.terms_used,
        "guards": ev.guards_engaged,
        "failed": diff >= 0.25 or round(ev.value) != oracle,
    }
    return _finish(rec, started, timing)


def _work_rh(item) -> dict:
    N, t, mode, timing = item
    started = time.perf_counter()
    try:
        rec_obj = sigma_rh.rh_check(N, t, mode)
    except indicators.AmbiguousClassification as exc:
        # a series value that rounds to no integer is a failed record, not bad input
        exact = sigma_rh.rh_check(N, t, "exact")
        rec_obj = dataclasses.replace(
            exact, sigma_analytic=exc.value, margin=exact.lagarias_rhs - exc.value
        )
    # written so that a non-finite series value fails too
    sigma_fail = mode == "analytic" and not abs(rec_obj.sigma_analytic - rec_obj.sigma_exact) < 0.25
    rec = {
        "inputs": {"N": N, "t": t, "mode": mode},
        "value": rec_obj.sigma_analytic,
        "oracle": rec_obj.lagarias_rhs,
        "diff": rec_obj.margin,
        "error_estimate": 0.0,
        "terms": {"robin_rhs": rec_obj.robin_rhs if rec_obj.robin_rhs is not None else 0.0,
                  "harmonic": rec_obj.harmonic},
        "guards": False,
        "failed": rec_obj.margin <= 0.0 or sigma_fail,
    }
    return _finish(rec, started, timing)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _run_items(worker, items, jobs: int) -> list[dict]:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items, chunksize=max(1, len(items) // (4 * jobs) or 1)))
    return [worker(it) for it in items]


def _summarize(records: list[dict]) -> dict:
    failures = sum(1 for r in records if r.get("failed"))
    max_diff = max((abs(r["diff"]) for r in records), default=0.0)
    return {"count": len(records), "failures": failures, "max_abs_diff": max_diff}


def _emit(config: dict, records: list[dict], fmt: str, out) -> None:
    summary = _summarize(records)
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
        flag = "FAIL" if r.get("failed") else "ok"
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
# commands
# ---------------------------------------------------------------------------


def cmd_eval_q(args) -> int:
    ns = parse_range(args.N)
    if any(n < 1 for n in ns):
        raise ConfigError("eval-q requires N >= 1")
    if args.k < 1 or args.s < 1:
        raise ConfigError("k and s must be positive")
    items = [
        (args.k, args.s, n, t, args.tol, args.timing)
        for n in ns
        for t in parse_t(args.t)
    ]
    records = _run_items(_work_eval_q, items, _jobs_from(args))
    config = {
        "command": "eval-q",
        "k": args.k,
        "s": args.s,
        "N": args.N,
        "t": args.t,
        "tol": args.tol,
    }
    _emit(config, records, args.format, sys.stdout)
    return 1 if any(r["failed"] for r in records) else 0


def cmd_sum(args) -> int:
    ns = parse_range(args.N)
    if any(n < 1 for n in ns):
        raise ConfigError("sum requires N >= 1")
    if args.weight not in _WEIGHTS:
        raise ConfigError(f"unknown weight {args.weight!r}")
    if args.kind not in ("squares", "difference", "divisor-pairs"):
        raise ConfigError(f"unknown kind {args.kind!r}")
    items = [
        (args.kind, n, args.d, args.k, args.weight, t, args.tol, args.horizon, args.timing)
        for n in ns
        for t in parse_t(args.t)
    ]
    records = _run_items(_work_sum, items, _jobs_from(args))
    config = {
        "command": "sum",
        "kind": args.kind,
        "N": args.N,
        "d": args.d,
        "k": args.k,
        "weight": args.weight,
        "t": args.t,
        "tol": args.tol,
        "horizon": args.horizon,
    }
    _emit(config, records, args.format, sys.stdout)
    return 1 if any(r["failed"] for r in records) else 0


def cmd_sigma(args) -> int:
    ns = parse_range(args.N)
    if any(n < 2 for n in ns):
        raise ConfigError("sigma requires N >= 2")
    items = [(n, t, args.timing) for n in ns for t in parse_t(args.t)]
    records = _run_items(_work_sigma, items, _jobs_from(args))
    config = {"command": "sigma", "N": args.N, "t": args.t}
    _emit(config, records, args.format, sys.stdout)
    return 1 if any(r["failed"] for r in records) else 0


def cmd_rh(args) -> int:
    if args.to < args.__dict__["from"] or args.__dict__["from"] < 2:
        raise ConfigError("rh requires 2 <= from <= to")
    if args.mode not in ("exact", "analytic"):
        raise ConfigError(f"unknown mode {args.mode!r}")
    items = [
        (n, t, args.mode, args.timing)
        for n in range(args.__dict__["from"], args.to + 1)
        for t in parse_t(args.t)
    ]
    records = _run_items(_work_rh, items, _jobs_from(args))
    config = {
        "command": "rh",
        "from": args.__dict__["from"],
        "to": args.to,
        "mode": args.mode,
        "t": args.t,
    }
    _emit(config, records, args.format, sys.stdout)
    return 1 if any(r["failed"] for r in records) else 0


def cmd_verify(args) -> int:
    try:
        checks = suites.run_suite(args.suite, fast=args.fast)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None
    records = []
    for label, residual, allowance in checks:
        records.append(
            {
                "inputs": {"suite": args.suite, "check": label},
                "value": residual,
                "oracle": 0.0,
                "diff": residual,
                "error_estimate": allowance,
                "terms": {},
                "guards": False,
                "ms": 0.0,
                "failed": residual > allowance + args.tol,
            }
        )
    config = {"command": "verify", "suite": args.suite, "tol": args.tol}
    _emit(config, records, args.format, sys.stdout)
    return 1 if any(r["failed"] for r in records) else 0


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
    p.add_argument("--horizon", type=int, default=10000, help="enumeration b horizon (difference kind)")
    common(p, "t", "tol", "timing")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

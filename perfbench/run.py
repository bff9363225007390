"""The arithsum benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is used from
``src`` as it is, with nothing to build.  Each run starts fresh
interpreters with BLAS pinned to one thread and ARITH_JOBS unset.

``--trace 0`` times set-up in SETUP_PROBES fresh interpreters, then runs
the workload's timed closed loop (``worker.py``) and prints the
end-to-end metrics.  ``--trace 1`` runs the workload's fixed traced plan
twice, untraced and then with span wrappers, and prints the per-layer
metrics, including the tracing overhead; both passes must produce the
same report digest.  Timed metrics are scaled to the speed of the
reference host with a host-speed kernel timed beside the items (see
README.md).  The last stdout line is the JSON result; full details
(environment, digests, failed items, unscaled times) go to
``perfbench/out``.
Exits 1 without a result if an output check cannot run, and 2 if the
checkout holds no library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
# Seconds each host-speed kernel (worker.Calibrator) takes on the reference
# host, a 2-vCPU Xeon VM.  Reported times are scaled to that host's speed.
REFERENCE_KERNEL_S = {"interpreter": 0.016, "python": 0.02, "memory": 0.018}
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "passed_ratio": "1",
    "digits_p10": "digits",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("repeat_share", "overhead")):
        return "1"
    if name.endswith("_mb_max"):
        return "MB"
    return "count"


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ARITH_JOBS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def host_factor(samples: list[float], kernel: str) -> float:
    """Reference-host seconds per measured second, from the host-speed
    kernel timed during the measurement."""
    return REFERENCE_KERNEL_S[kernel] / statistics.fmean(samples)


def scaled_item_s(res: dict, kernel: str) -> list[float]:
    """Each item's wall time scaled to the reference host by the mean of
    the kernel samples taken just before and just after it."""
    at, samples = res["calibrate_at"], res["calibrate_s"]
    out, j = [], 0
    for i, seconds in enumerate(res["item_s"]):
        while at[j + 1] <= i:
            j += 1
        out.append(seconds * REFERENCE_KERNEL_S[kernel] / ((samples[j] + samples[j + 1]) / 2))
    return out


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    probes = [run_worker(["--probe"], deadline) for _ in range(SETUP_PROBES)]
    res = run_worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
                     deadline)
    kernel = WORKLOADS[workload].kernel
    raw_ms = [1000.0 * s for s in res["item_s"]]
    items_ms = [1000.0 * s for s in scaled_item_s(res, kernel)]
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "items_per_s": len(raw_ms) / res["loop_s"],
        "item_ms_p50": statistics.median(raw_ms),
        "item_ms_p90": statistics.quantiles(raw_ms, n=10)[-1],
    }
    metrics = {
        "setup_s": statistics.median(
            p["setup_s"] * host_factor(p["calibrate_s"], "interpreter") for p in probes
        ),
        "items_per_s": 1000.0 * len(items_ms) / sum(items_ms),
        "item_ms_p50": statistics.median(items_ms),
        "item_ms_p90": statistics.quantiles(items_ms, n=10)[-1],
        "passed_ratio": 1.0 - res["failed"] / res["attempted"],
        "digits_p10": res["digits_p10"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    beyond_p90 = sum(1 for x in items_ms if x > metrics["item_ms_p90"])
    res.update(setup_probes=probes, samples=len(items_ms), beyond_p90=beyond_p90,
               failed_ratio=res["failed"] / res["attempted"],
               host_factor=host_factor(res["calibrate_s"], kernel), raw_wall_metrics=raw)
    return metrics, res


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed), "--plan"]
    plain = run_worker(base, deadline)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    traced = run_worker(base + ["--trace", str(spans)], deadline)
    metrics = traced.pop("per_layer")
    kernel = WORKLOADS[workload].kernel
    metrics["trace.overhead"] = (
        traced["loop_s"] * host_factor(traced["calibrate_s"], kernel)
        / (plain["loop_s"] * host_factor(plain["calibrate_s"], kernel))
        - 1.0
    )
    if plain["report_digest"] != traced["report_digest"]:
        traced["problems"].append("traced and untraced report digests differ")
    traced.update(untraced_loop_s=plain["loop_s"], untraced_digest=plain["report_digest"],
                  spans_file=str(spans.relative_to(ROOT)))
    traced["problems"] += plain["problems"]
    return metrics, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="arithsum end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "arithsum" / "cli.py").is_file():
        print(f"error: no arithsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, details = per_layer(args.workload, args.seed, deadline)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, details = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = E2E_UNITS
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n"
    )
    for p in details["problems"][:20]:
        print(f"problem: {p}")
    print(f"{args.workload} seed={args.seed}: {details['attempted']} items, "
          f"{details['failed']} failed, digest {details['report_digest'][:16]}")
    if not args.trace:
        print(f"  samples={details['samples']} beyond_p90={details['beyond_p90']} "
              f"failed_ratio={details['failed_ratio']:.6g} [1] "
              f"digits_worst={details['digits_worst']:.6g} [digits]")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} [{units[name]}]")
    result = {
        "correct": not details["problems"] and all(math.isfinite(v) for v in metrics.values()),
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

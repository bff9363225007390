"""One workload process: a single client calling ``arithsum.cli.main``
in-process, one item at a time (a closed loop), in a fresh interpreter.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --plan [--trace FILE]

``--probe`` only times set-up.  A timed run runs the items that
``workloads.plan`` sizes to last ``--seconds`` on the reference host;
``--plan`` runs the workload's fixed traced plan instead, with span
wrappers installed when ``--trace`` names the file to write the spans
to.  Before and after the items, and every CALIBRATE_EVERY_S seconds of
item time between them, the workload's host-speed kernel is timed so
that ``run.py`` can scale times to the reference host.  The last stdout line is a JSON result.

The run's environment (BLAS threads, no ARITH_JOBS, ``src`` on the
path) is set by ``run.py``; the thread variables are set here too,
before numpy can be imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ARITH_JOBS", None)

import argparse  # noqa: E402
import cmath  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

CALIBRATE_EVERY_S = 0.5


def setup():
    """Fresh-interpreter set-up as a user pays it: import plus parser."""
    start = perf_counter()
    import arithsum.cli as cli

    cli.build_parser()
    return cli, perf_counter() - start


class Calibrator:
    """Times a fixed kernel that does not touch the library; it tracks how
    fast the shared host runs right now.  Each workload names the kernel
    that slows down as it does:

    * ``interpreter``: Python float arithmetic and numpy calls on small,
      reused arrays, so its speed does not depend on what the allocator
      holds after the items that ran before it;
    * ``python``: scalar float and complex arithmetic in a Python loop;
    * ``memory``: numpy on freshly allocated multi-MB arrays, so it pays
      for page faults and cache misses as the sigma-sweep tables do.
    """

    def __init__(self, kernel: str) -> None:
        import numpy as np

        self.np = np
        self.kernel = {"interpreter": self._interpreter, "python": self._python,
                       "memory": self._memory}[kernel]
        self.a = np.linspace(0.0, 1.0, 4096)
        self.b = np.empty_like(self.a)
        self.samples: list[float] = []
        self.at: list[int] = []  # items done before each sample

    def __call__(self, items_done: int) -> None:
        start = perf_counter()
        self.kernel()
        self.samples.append(perf_counter() - start)
        self.at.append(items_done)

    def _interpreter(self) -> None:
        acc = 0.0
        for i in range(18000):
            acc += math.sin(i) * 0.5
        for _ in range(300):
            self.np.sin(self.a, out=self.b)
            self.np.exp(self.b, out=self.b)
            acc += float(self.b.sum())

    def _python(self) -> None:
        acc = 0j
        for i in range(18000):
            z = complex(i % 97 - 48.5, 1.0)
            acc += cmath.sqrt(z) / (1.0 + abs(z)) + math.sinh(i % 7) * 1e-3

    def _memory(self) -> None:
        np = self.np
        x = np.linspace(0.0, 1.0, 400_000)
        for _ in range(2):
            x = np.sin(x) + np.exp(-x)


def run_item(cli, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # an item that raises is a failed item, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, rc, out.getvalue(), error


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--plan", action="store_true")
    ap.add_argument("--trace", default=None)
    args = ap.parse_args()

    cli, setup_s = setup()
    if args.probe:
        calibrate = Calibrator("interpreter")
        for _ in range(3):
            calibrate(0)
        print(json.dumps({"setup_s": setup_s, "calibrate_s": calibrate.samples}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli = sys.modules["arithsum.cli"]

    outcomes = []  # (argv, seconds, rc, stdout, error)
    digest = hashlib.sha256()
    calibrate = Calibrator(workloads.WORKLOADS[args.workload].kernel)
    calibrate(0)
    elapsed = since_calibration = 0.0
    for argv in workloads.plan(args.workload, args.seed, None if args.plan else args.seconds):
        if tracer is not None:
            tracer.item = len(outcomes)
        dt, rc, out, error = run_item(cli, argv)
        outcomes.append((argv, dt, rc, out, error))
        digest.update(out.encode())
        elapsed += dt
        since_calibration += dt
        if since_calibration >= CALIBRATE_EVERY_S:
            calibrate(len(outcomes))
            since_calibration = 0.0
    calibrate(len(outcomes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_items = []
    problems = []
    digits = []
    for argv, _, rc, out, error in outcomes:
        item_failed, item_problems, item_digits = checks.check_item(argv, rc, out, error)
        if item_failed:
            failed_items.append(" ".join(argv) + (f" ({error})" if error else ""))
        problems += [f"{' '.join(argv)}: {p}" for p in item_problems]
        digits += item_digits
    digits.sort()
    result = {
        "setup_s": setup_s,
        "loop_s": elapsed,
        "calibrate_s": calibrate.samples,
        "calibrate_at": calibrate.at,
        "item_s": [o[1] for o in outcomes],
        "attempted": len(outcomes),
        "failed": len(failed_items),
        "failed_items": failed_items,
        "problems": problems,
        # the lowest decile: at least ten records below it from 100 records on
        "digits_p10": digits[len(digits) // 10] if digits else 0.0,
        "digits_worst": digits[0] if digits else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "report_digest": digest.hexdigest(),
        "environment": environment(),
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        with open(args.trace, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

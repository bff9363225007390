"""Output checks: parse each CLI report and compare it with oracles the
benchmark computes itself, independently of the library.

``check_item`` returns (failed, problems, digits):

* failed   -- the item failed as a user sees it: exit code != 0, an
              exception, or any record with ``failed`` set;
* problems -- reasons the output is *wrong* rather than failed: an
              unparseable or inconsistent report, an oracle that disagrees
              with the benchmark's own, or a record passed as correct whose
              value is not;
* digits   -- correct digits of each passing analytic record,
              -log10(|value - reference| / max(1, |reference|)) capped at 16.
"""

from __future__ import annotations

import json
import math
from math import isqrt

DIGITS_CAP = 16.0
DEFAULT_TOL = 1e-8
DEFAULT_HORIZON = 10000

WEIGHTS = {
    "unit": lambda a: 1.0,
    "alternating": lambda a: -1.0 if a % 2 else 1.0,
    "reciprocal": lambda a: 1.0 / (a + 1.0),
}


def sigma_exact(n: int) -> int:
    """Divisor sum by trial division."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d if d * d == n else d + n // d
    return total


def is_k_power(k: int, s: int, n: int) -> int:
    """1 iff n = k m^(2s) for a natural m."""
    if n < 1 or n % k:
        return 0
    q = n // k
    m = round(q ** (1.0 / (2 * s)))
    return int(any(c >= 1 and c ** (2 * s) == q for c in (m - 1, m, m + 1)))


def squares_sum(n: int, d: int, k: int, weight) -> float:
    """(1/k^2) sum of g(a)/b^4 over d a^2 + k b^2 = n, a, b >= 1."""
    terms = []
    for b in range(1, isqrt(n // k) + 1):
        rem = n - k * b * b
        if rem > 0 and rem % d == 0:
            a = isqrt(rem // d)
            if a >= 1 and d * a * a == rem:
                terms.append(weight(a) / b**4)
    return math.fsum(terms) / (k * k)


def difference_sum(n: int, d: int, k: int, weight, horizon: int) -> tuple[float, float]:
    """(1/k^2) sum of g(a)/b^4 over k b^2 - d a^2 = n with b <= horizon,
    and the bound 1/(3 horizon^3) on the rest (|g| <= 1)."""
    terms = []
    for b in range(isqrt(n // k), horizon + 1):
        rem = k * b * b - n
        if rem > 0 and rem % d == 0:
            a = isqrt(rem // d)
            if a >= 1 and d * a * a == rem:
                terms.append(weight(a) / b**4)
    return math.fsum(terms) / (k * k), 1.0 / (3.0 * horizon**3) / (k * k)


def divisor_pair_sum(n: int, weight) -> float:
    """sum over divisors e | n with n/e > e of g(n/e - e)/(n/e + e)^4."""
    terms = []
    for e in range(1, isqrt(n) + 1):
        if n % e == 0 and n // e > e:
            terms.append(weight(n // e - e) / float(n // e + e) ** 4)
    return math.fsum(terms)


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _digits(value: float, ref: float) -> float:
    err = abs(value - ref) / max(1.0, abs(ref))
    return DIGITS_CAP if err == 0 else min(DIGITS_CAP, -math.log10(err))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def reference(argv: list[str]) -> tuple[float, float]:
    """The benchmark's own value of an analytic item and its allowance
    (the enumeration tail of the difference kind)."""
    cmd = argv[0]
    if cmd == "sigma":
        return float(sigma_exact(int(_opt(argv, "--N")))), 0.0
    if cmd == "rh":
        return float(sigma_exact(int(_opt(argv, "--from")))), 0.0
    if cmd == "eval-q":
        k, s, n = (int(_opt(argv, f)) for f in ("--k", "--s", "--N"))
        return float(is_k_power(k, s, n)), 0.0
    if cmd == "sum":
        kind, n = _opt(argv, "--kind"), int(_opt(argv, "--N"))
        d, k = int(_opt(argv, "--d", 1)), int(_opt(argv, "--k", 1))
        w = WEIGHTS[_opt(argv, "--weight", "unit")]
        if kind == "squares":
            return squares_sum(n, d, k, w), 0.0
        if kind == "divisor-pairs":
            return divisor_pair_sum(n, w), 0.0
        return difference_sum(n, d, k, w, int(_opt(argv, "--horizon", DEFAULT_HORIZON)))
    raise ValueError(f"no reference for {cmd!r}")


def check_item(argv: list[str], rc, out: str, error: str | None):
    """Check one item's CLI outcome; see the module docstring."""
    if error is not None:
        return True, [], []
    if rc not in (0, 1):
        return True, [], []
    try:
        report = json.loads(out)
        records = report["records"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return True, [f"unparseable report: {exc}"], []
    problems = []
    failed_records = sum(1 for r in records if r.get("failed"))
    if summary.get("count") != len(records) or summary.get("failures") != failed_records:
        problems.append("summary disagrees with records")
    if (rc == 1) != (failed_records > 0):
        problems.append(f"exit code {rc} with {failed_records} failed records")
    if not records:
        problems.append("empty report")
    failed = rc != 0 or failed_records > 0
    if argv[0] == "verify":
        tol = float(_opt(argv, "--tol", DEFAULT_TOL))
        for r in records:
            if bool(r["failed"]) != (r["value"] > r["error_estimate"] + tol):
                problems.append(f"verify flag inconsistent: {r['inputs']}")
        return failed, problems, []
    if len(records) != 1:
        return failed, problems + [f"{len(records)} records for one item"], []
    rec = records[0]
    ref, allowance = reference(argv)
    value, oracle = rec["value"], rec["oracle"]
    if not isinstance(value, (int, float)):
        return failed, problems + ([] if rec["failed"] else [f"passing value {value!r}"]), []
    if argv[0] == "rh":
        oracle_ok = _close(rec["terms"]["harmonic"], _harmonic(int(_opt(argv, "--from"))), 1e-12)
    else:
        oracle_ok = _close(oracle, ref, 1e-12) or abs(oracle - ref) <= allowance + 1e-15
    if not oracle_ok:
        problems.append(f"library oracle {oracle!r} disagrees with benchmark {ref!r}")
    digits = []
    if not rec["failed"]:
        if argv[0] in ("sigma", "rh", "eval-q"):
            # a passing classification must round to the exact integer
            if round(value) != ref:
                problems.append(f"passing value {value!r} does not round to {ref!r}")
        elif abs(value - ref) > DEFAULT_TOL + rec["error_estimate"] + allowance:
            problems.append(f"passing value {value!r} outside its estimate of {ref!r}")
        digits.append(_digits(value, ref))
    return failed, problems, digits


def _harmonic(n: int) -> float:
    return math.fsum(1.0 / r for r in range(1, n + 1))

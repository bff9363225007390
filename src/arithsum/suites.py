"""Named verification suites: each runs one family of identities against
its independent oracle and reports per-check residuals.

These back the ``verify`` CLI command and the acceptance tests.  Every
suite returns a list of (check label, residual, allowance) where the
allowance is the analytic tail/tolerance the residual is expected to
stay below; a residual exceeding allowance + tol is a failure.
"""

from __future__ import annotations

import cmath
import math
from math import pi

import numpy as np

from .indicators import q_shifted_analytic
from .integrals import integral_i, integral_j, integral_k, quadrature_oracle
from .kernels import g_values, half_plane_root, kernel_t, kernel_v, mittag_leffler_residual
from .series import (
    geometric_series_evaluator,
    indicator_series_evaluator,
    invert_series_many,
    lemma4_residual,
    self_consistency_residual,
)
from .sigma_rh import sigma_decomposition_residuals

Check = tuple[str, float, float]


def _direct_quartic_sums(x: float, z: float, n2: np.ndarray, signs: np.ndarray) -> tuple[float, float, float]:
    """Partial sums of sum_n 1/(z^2+(n^2+x)^2) and of its alternating form,
    with (-1)^n as ``signs``, over the squares n2 of n = 1..len(n2), and an
    integral tail bound; the oracle side of the lattice-kernel identities."""
    terms = 1.0 / (z * z + (n2 + x) ** 2)
    tail = 1.0 / (3.0 * n2.size**3)  # terms < n^-4 beyond the cutoff
    return float(np.sum(terms)), float(np.sum(terms * signs)), tail


def suite_kernels(fast: bool = False) -> list[Check]:
    checks: list[Check] = []
    for M, t in [(3.0, 4.0), (-3.0, 4.0), (0.0, 2.0), (123.5, 0.25), (-1e6, 3.0)]:
        r = half_plane_root(M, t)
        res = max(abs(r.u * r.u - r.v * r.v - M) / max(1.0, abs(M)), abs(2 * r.u * r.v - t) / t)
        checks.append((f"half_plane_root({M},{t})", res, 1e-12))
    n = np.arange(1, 200001, dtype=float)
    n2, signs = n * n, np.where(np.arange(1, n.size + 1) % 2 == 0, 1.0, -1.0)
    for x in (0.0, 1.0, 2.5, -2.5, -4.0):
        for z in (0.5, 1.0, 3.0):
            direct_t, direct_v, tail = _direct_quartic_sums(x, z, n2, signs)
            closed = pi / 4.0 * kernel_t(x, z).value - 0.5 / (x * x + z * z)
            checks.append((f"lattice_sum_T(x={x},z={z})", abs(direct_t - closed), tail + 1e-10))
            closed = pi / 2.0 * kernel_v(x, z).value - 0.5 / (x * x + z * z)
            checks.append((f"lattice_sum_V(x={x},z={z})", abs(direct_v - closed), 1e-10))
    worst = 0.0
    ms = np.arange(-50.0, 51.0, 5.0 if fast else 1.0)
    for t in (0.5, 1.0, 2.0):
        for k in (1, 2, 3):
            for M, g in zip(ms.tolist(), g_values(ms, t, k).tolist()):
                z = complex(M, t)
                w = cmath.sqrt(z) / math.sqrt(k)
                oracle = -2.0 * (z**-2.5 / cmath.tanh(pi * w)).imag
                worst = max(worst, abs(g - oracle))
    checks.append(("jump_kernel_vs_complex_oracle", worst, 1e-10))
    checks.append(("mittag_leffler(theta=0,x=1,n=1000)", mittag_leffler_residual(0.0, 1.0, 1000), 1e-6))
    checks.append(
        ("mittag_leffler(theta=pi,x=1,n=1000)", mittag_leffler_residual(pi, 1.0, 1000), 1e-3)
    )
    return checks


def suite_integrals(fast: bool = False) -> list[Check]:
    checks: list[Check] = []
    worst = {"I": 0.0, "K": 0.0, "J": 0.0}
    qs = range(-10, 11, 3) if fast else range(-10, 11)
    for q in qs:
        for t in (0.5, 1.0, 2.0):
            for kind, f in (("I", integral_i), ("K", integral_k), ("J", integral_j)):
                cf = f(q, t)
                oracle = quadrature_oracle(kind, q, t, 1e-12)
                worst[kind] = max(worst[kind], abs(cf.value - oracle))
    for kind in ("I", "K", "J"):
        checks.append((f"closed_form_{kind}_vs_quadrature", worst[kind], 1e-9))
    j0 = integral_j(0, 1.0).value
    checks.append(
        ("J(0,1)_arctan_identity", abs(j0 - 2.0 * math.atan(math.tanh(pi / 2.0)) / pi), 1e-14)
    )
    checks.append(("I_odd_parity", abs(integral_i(-7, 1.3).value + integral_i(7, 1.3).value), 1e-15))
    checks.append(("K_even_parity", abs(integral_k(-6, 0.7).value - integral_k(6, 0.7).value), 1e-15))
    checks.append(("J_even_parity", abs(integral_j(-5, 1.0).value - integral_j(5, 1.0).value), 1e-15))
    return checks


def suite_inversion(fast: bool = False) -> list[Check]:
    checks: list[Check] = []
    worst_geo, worst_ind = (
        max(
            abs(ev.value - (F.coefficient(N) if N >= 1 else 0.0))
            for N, ev in zip(range(-5, 31), invert_series_many(F, range(-5, 31), 1.0))
        )
        for F in (geometric_series_evaluator(), indicator_series_evaluator(1))
    )
    checks.append(("inversion_geometric_recovery", worst_geo, 1e-6))
    checks.append(("inversion_indicator_recovery", worst_ind, 1e-6))
    checks.append(
        ("coefficient_identity(f=2^-n,beta=0)", lemma4_residual(lambda n: 0.5**n, 0.0, 1.0, 200), 1e-12)
    )
    if not fast:
        checks.append(
            (
                "coefficient_identity(f=1/n^2,beta=1)",
                lemma4_residual(lambda n: 1.0 / (n * n), 1.0, 0.5, 2000),
                1e-12,
            )
        )
    return checks


def suite_self_consistency(fast: bool = False) -> list[Check]:
    checks = [
        ("consistency_indicator_k1_t1", self_consistency_residual(indicator_series_evaluator(1), 1.0), 1e-8),
        ("consistency_indicator_k3_t2", self_consistency_residual(indicator_series_evaluator(3), 2.0), 1e-8),
        ("consistency_geometric_t1", self_consistency_residual(geometric_series_evaluator(), 1.0), 1e-10),
    ]
    return checks


def suite_zero_identities(fast: bool = False) -> list[Check]:
    checks: list[Check] = []
    # zero_identity_residual's inversion, one batch per k
    worst = max(
        abs(ev.value) for k in (1, 2) for ev in invert_series_many(indicator_series_evaluator(k), range(-20, 1), 1.0)
    )
    checks.append(("vanishing_identity_N<=0", worst, 1e-6))
    worst = 0.0
    base = 5
    for total in range(-10, 1):
        ev = q_shifted_analytic(1, base, total - base, 1.0)
        worst = max(worst, abs(ev.value))
    checks.append(("vanishing_identity_shifted", worst, 1e-6))
    return checks


def suite_decomposition(fast: bool = False) -> list[Check]:
    n_max = 2000 if fast else 10**4
    worst = float(np.abs(sigma_decomposition_residuals(n_max)).max())
    return [(f"divisor_pair_decomposition_N<={n_max}", worst, 0.0)]


SUITES = {
    "kernels": suite_kernels,
    "integrals": suite_integrals,
    "inversion": suite_inversion,
    "self-consistency": suite_self_consistency,
    "zero-identities": suite_zero_identities,
    "decomposition": suite_decomposition,
}


def run_suite(name: str, fast: bool = False) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for key in SUITES:
            out.extend((f"{key}:{label}", res, allow) for label, res, allow in SUITES[key](fast))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return SUITES[name](fast)

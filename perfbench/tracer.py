"""Span wrappers installed around the library's layer functions from
outside the library.

``install`` replaces each wrapped function at every place the package
binds it: the defining module, every ``from .x import y`` site, the
``__init__`` re-exports and the ``suites.SUITES`` table.  It also wraps
the ``BlockTables.__init__``/``gpart`` methods and the ``evaluate``
callable of every evaluator the ``series`` factories build.

A span is (id, parent id, item, name, start, end).  Spans stay in
memory until ``Tracer.spans`` is written out at the end of the run.
Frequent leaf calls (``kernel_g`` and the closed-form integrals) are only
aggregated, and ``evaluate`` is only counted, so that tracing stays
affordable on the scalar paths; their time still counts as child time of
the span that called them.  Self time is a span's duration minus the
duration of its direct children, which nest because the loop is one
thread.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); span names are "<module>.<group>".
SPANNED = [
    ("cli", "main", "cli.main"),
    ("kernels", "g_values", "kernels.g_values"),
    ("integrals", "j_values", "integrals.j_values"),
    ("integrals", "quadrature_oracle", "integrals.quadrature_oracle"),
    ("series", "invert_series", "series.invert_series"),
    ("series", "self_consistency_residual", "series.self_consistency_residual"),
    ("series", "lemma4_residual", "series.lemma4_residual"),
    ("indicators", "block_value", "indicators.block_value"),
    ("indicators", "q_analytic", "indicators.q_analytic"),
    ("indicators", "q_general_analytic", "indicators.q_general_analytic"),
    ("indicators", "q_shifted_analytic", "indicators.q_shifted_analytic"),
    ("indicators", "zero_identity_residual", "indicators.zero_identity_residual"),
    ("dsums", "sum_squares_analytic", "dsums.analytic"),
    ("dsums", "sum_diff_analytic", "dsums.analytic"),
    ("dsums", "divisor_pair_sum_analytic", "dsums.analytic"),
    ("dsums", "sum_squares_bruteforce", "dsums.oracle"),
    ("dsums", "sum_diff_bruteforce", "dsums.oracle"),
    ("dsums", "_divisor_pair_bruteforce", "dsums.oracle"),
    ("sigma_rh", "sigma_analytic", "sigma_rh.sigma_analytic"),
    ("suites", "suite_kernels", "suites.kernels"),
    ("suites", "suite_integrals", "suites.integrals"),
    ("suites", "suite_inversion", "suites.inversion"),
    ("suites", "suite_self_consistency", "suites.self-consistency"),
    ("suites", "suite_zero_identities", "suites.zero-identities"),
    ("suites", "suite_decomposition", "suites.decomposition"),
]
LEAVES = [
    ("kernels", "kernel_g", "kernels.kernel_g"),
    ("integrals", "integral_i", "integrals.closed_form"),
    ("integrals", "integral_k", "integrals.closed_form"),
    ("integrals", "integral_j", "integrals.closed_form"),
]
METHODS = [
    ("__init__", "indicators.BlockTables"),
    ("gpart", "indicators.gpart"),
]
FACTORIES = ["indicator_series_evaluator", "geometric_series_evaluator"]
MODULES = ["cli", "kernels", "integrals", "series", "indicators", "dsums", "sigma_rh", "suites"]


class Tracer:
    """In-memory span store plus the aggregates and computed counts."""

    def __init__(self) -> None:
        self.item = -1
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._j_prefix: dict[float, int] = {}

    # -- wrappers ---------------------------------------------------------

    def span(self, fn, name: str, module: str, on_return=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled on exit
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[2]
                self.spans[sid] = (sid, parent, self.item, name, start, end)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def leaf(self, fn, name: str, module: str):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                dt = perf_counter() - start
                if stack:
                    stack[-1][2] += dt
                self.calls[name] += 1
                self.self_s[name] += dt

        return wrapper

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- computed counts, from the arguments and returned records ---------

    def _on_g_values(self, args, result) -> None:
        self.counts["kernels.g_values.elems"] += result.size

    def _on_j_values(self, args, result) -> None:
        t = float(args[1])
        n = len(result)
        self.counts["integrals.j_values.elems"] += n
        self.counts["integrals.j_values.repeated"] += min(n, self._j_prefix.get(t, 0))
        self._j_prefix[t] = max(n, self._j_prefix.get(t, 0))

    def _on_dsums(self, args, result) -> None:
        self.counts["dsums.shifts"] += result.terms_used.get("blocks", 0)

    def _on_sigma(self, args, result) -> None:
        terms = result.terms_used
        self.counts["sigma_rh.gj_madds"] += terms["a_terms"] * 2 * terms["r_terms"]

    def _on_tables(self, args, result) -> None:
        if any(frame[1] == "sigma_rh.sigma_analytic" for frame in self._stack):
            tables = args[0]
            nbytes = sum(v.nbytes for v in vars(tables).values() if hasattr(v, "nbytes"))
            key = "sigma_rh.table_mb_max"
            self.counts[key] = max(self.counts[key], nbytes / 2**20)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at every binding site."""
        hooks = {
            "kernels.g_values": self._on_g_values,
            "integrals.j_values": self._on_j_values,
            "dsums.analytic": self._on_dsums,
            "sigma_rh.sigma_analytic": self._on_sigma,
        }
        mods = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "arithsum"}
        replace: dict[int, object] = {}
        for mod, attr, name in SPANNED:
            fn = getattr(mods[f"arithsum.{mod}"], attr)
            replace[id(fn)] = self.span(fn, name, mod, hooks.get(name))
        for mod, attr, name in LEAVES:
            fn = getattr(mods[f"arithsum.{mod}"], attr)
            replace[id(fn)] = self.leaf(fn, name, mod)
        for attr in FACTORIES:
            fn = getattr(mods["arithsum.series"], attr)
            replace[id(fn)] = self._counting_factory(fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        table = mods["arithsum.suites"].SUITES
        for key, fn in list(table.items()):
            table[key] = replace.get(id(fn), fn)
        cls = mods["arithsum.indicators"].BlockTables
        for attr, name in METHODS:
            hook = self._on_tables if attr == "__init__" else None
            setattr(cls, attr, self.span(getattr(cls, attr), name, "indicators", hook))

    def _counting_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            ev = factory(*args, **kwargs)
            counted = self.counted(ev.evaluate, "series.evaluate_calls")
            return dataclasses.replace(ev, evaluate=counted)

        return wrapper

    # -- report -----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric, 0 where a layer did not run."""
        c, s, k = self.calls, self.self_s, self.counts
        out = {
            "cli.self_s": s["cli.main"],
            "kernels.g_values.calls": c["kernels.g_values"],
            "kernels.g_values.elems": k["kernels.g_values.elems"],
            "kernels.g_values.self_s": s["kernels.g_values"],
            "kernels.kernel_g.calls": c["kernels.kernel_g"],
            "kernels.kernel_g.self_s": s["kernels.kernel_g"],
            "integrals.j_values.calls": c["integrals.j_values"],
            "integrals.j_values.elems": k["integrals.j_values.elems"],
            "integrals.j_values.self_s": s["integrals.j_values"],
            "integrals.j_values.repeat_share": (
                k["integrals.j_values.repeated"] / k["integrals.j_values.elems"]
                if k["integrals.j_values.elems"]
                else 0.0
            ),
            "integrals.closed_form.self_s": s["integrals.closed_form"],
            "integrals.quadrature_oracle.calls": c["integrals.quadrature_oracle"],
            "integrals.quadrature_oracle.self_s": s["integrals.quadrature_oracle"],
            "series.invert_series.self_s": s["series.invert_series"],
            "series.evaluate_calls": k["series.evaluate_calls"],
            "series.self_consistency_residual.self_s": s["series.self_consistency_residual"],
            "series.lemma4_residual.self_s": s["series.lemma4_residual"],
            "indicators.BlockTables.calls": c["indicators.BlockTables"],
            "indicators.BlockTables.self_s": s["indicators.BlockTables"],
            "indicators.gpart.calls": c["indicators.gpart"],
            "indicators.gpart.self_s": s["indicators.gpart"],
            "indicators.block_value.calls": c["indicators.block_value"],
            "indicators.block_value.self_s": s["indicators.block_value"],
            "indicators.q_analytic.self_s": s["indicators.q_analytic"],
            "indicators.q_general_analytic.self_s": s["indicators.q_general_analytic"],
            "indicators.q_shifted_analytic.self_s": s["indicators.q_shifted_analytic"],
            "indicators.zero_identity_residual.self_s": s["indicators.zero_identity_residual"],
            "dsums.analytic.calls": c["dsums.analytic"],
            "dsums.analytic.self_s": s["dsums.analytic"],
            "dsums.shifts": k["dsums.shifts"],
            "dsums.oracle.self_s": s["dsums.oracle"],
            "sigma_rh.sigma_analytic.self_s": s["sigma_rh.sigma_analytic"],
            "sigma_rh.gj_madds": k["sigma_rh.gj_madds"],
            "sigma_rh.table_mb_max": k["sigma_rh.table_mb_max"],
        }
        for _, _, name in SPANNED:
            if name.startswith("suites."):
                out[f"{name}.self_s"] = s[name]
        for mod in MODULES:
            out[f"{mod}.errors"] = self.errors[mod]
        return out

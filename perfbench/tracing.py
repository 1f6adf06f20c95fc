"""Per-layer spans and counters, recorded from outside the package.

A Tracer wraps public functions at each layer boundary.  Span wrappers
record (name, start, end, parent) in memory; a layer's self time is its
span durations minus the durations of its direct child spans.  The
scalar hot functions are called millions of times per pass, so they are
counted, not spanned.

Modules bind names with ``from .x import y``, so a wrapper is installed
on every module of the package whose attribute is the original function.
A wrapped name that no longer exists raises LookupError: the per-layer
numbers would otherwise silently read as zero.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "casimir_slabs"


def _add_evaluations(tracer, args, kwargs, result) -> None:
    tracer.counts["quadrature.integrand_evals"] += result.evaluations
    if not result.converged:
        tracer.counts["quadrature.unconverged"] += 1
    tracer.peaks["quadrature.max_err"] = max(
        tracer.peaks.get("quadrature.max_err", 0.0), result.error_estimate
    )


def _add_iterations(tracer, args, kwargs, result) -> None:
    tracer.counts["anisotropic.crossover_iterations"] += result.iterations


def _add_table_bytes(tracer, args, kwargs, result) -> None:
    tracer.counts["sweep.bytes_written"] += os.path.getsize(args[0])


def _add_manifest_bytes(tracer, args, kwargs, result) -> None:
    tracer.counts["sweep.bytes_written"] += os.path.getsize(result)


# (module, function, "count" or "span", record name, hook on the result)
LAYERS = (
    ("special", "bessel_i0k0_product", "count", "special.i0k0_calls", None),
    ("anisotropic", "phi", "count", "anisotropic.phi_calls", None),
    ("anisotropic", "psi", "count", "anisotropic.psi_calls", None),
    ("response", "plasma_freq_isotropic", "count", "response.plasma_freq_calls", None),
    ("response", "plasma_freq_nanotube", "count", "response.plasma_freq_calls", None),
    ("quadrature", "integrate_p_axis", "count", "quadrature.p_axis_calls", None),
    ("quadrature", "integrate_xp", "span", "quadrature.xp", _add_evaluations),
    ("anisotropic", "f_parallel_ratio", "span", "anisotropic.force", None),
    ("anisotropic", "f_perp_ratio", "span", "anisotropic.force", None),
    ("anisotropic", "orientation_forces", "count", "anisotropic.crossover_probes", None),
    ("anisotropic", "crossover_thickness", "span", "anisotropic.crossover", _add_iterations),
    ("lifshitz", "nonlocal_isotropic_ratio", "span", "lifshitz.nonlocal", None),
    ("lifshitz", "thin_limit_ratio", "count", "lifshitz.thin_calls", None),
    ("lifshitz", "lifshitz_force_local", "count", "lifshitz.local_calls", None),
    ("validity", "applicability_report", "span", "validity.report", None),
    ("sweep", "evaluate_quantity", "span", "sweep.eval", None),
    ("sweep", "write_table", "span", "sweep.write", _add_table_bytes),
    ("sweep", "write_manifest", "span", "sweep.write", _add_manifest_bytes),
    ("sweep", "run_sweep", "span", "sweep.run", None),
    ("cli", "main", "span", "cli.main", None),
)

# Per-layer metrics that run.py measures itself, not a traced pass.
RUN_METRICS = (
    "setup.import_s",
    "setup.first_use_s",
    "check.max_dev_over_err",
    "trace.overhead_frac",
)
# Counters that the hooks above add to.
HOOK_COUNTS = (
    "quadrature.integrand_evals",
    "quadrature.unconverged",
    "anisotropic.crossover_iterations",
    "sweep.bytes_written",
)
_PER_LAYER = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["per_layer"]
# The per-layer metrics a traced pass reports, in BENCHMARK.json order.
PASS_METRICS = tuple(m["name"] for m in _PER_LAYER if m["name"] not in RUN_METRICS)
# Every metric but a time repeats exactly for a fixed seed.
DETERMINISTIC = frozenset(
    m["name"] for m in _PER_LAYER if m["name"] in PASS_METRICS and m["unit"] != "s"
)
_COUNTED = {name for _, _, kind, name, _ in LAYERS if kind == "count"} | set(HOOK_COUNTS)


class Tracer:
    """Spans and counters of one traced pass; install, run, remove."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack = [-1]
        self._patched: list[tuple] = []

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        try:
            for module_name, attr, kind, name, hook in LAYERS:
                owner = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(owner, attr, None)
                if not callable(original):
                    raise LookupError(
                        f"traced layer {PACKAGE}.{module_name}.{attr} no longer exists"
                    )
                wrapper = (
                    self._span(name, original, hook)
                    if kind == "span"
                    else self._count(name, original)
                )
                for module in modules:
                    if vars(module).get(attr) is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of PASS_METRICS for the recorded pass."""
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        c = self.counts
        force_calls = calls["anisotropic.force"]
        derived = {
            "quadrature.xp_calls": calls["quadrature.xp"],
            "quadrature.xp_self_s": own["quadrature.xp"],
            "quadrature.max_err": self.peaks.get("quadrature.max_err", 0.0),
            "anisotropic.force_calls": force_calls,
            "anisotropic.force_s": total["anisotropic.force"],
            "anisotropic.xp_per_force": (
                calls["quadrature.xp"] / force_calls if force_calls else 0.0
            ),
            "lifshitz.nonlocal_calls": calls["lifshitz.nonlocal"],
            "lifshitz.nonlocal_s": total["lifshitz.nonlocal"],
            "validity.report_calls": calls["validity.report"],
            "validity.report_s": total["validity.report"],
            "sweep.points": calls["sweep.eval"],
            "sweep.eval_s": total["sweep.eval"],
            "sweep.self_s": own["sweep.run"],
            "sweep.write_s": total["sweep.write"],
            "cli.self_s": own["cli.main"],
        }
        unknown = [n for n in PASS_METRICS if n not in derived and n not in _COUNTED]
        if unknown:
            raise LookupError(f"per-layer metrics {unknown} are not recorded by the tracer")
        return {
            name: derived[name] if name in derived else c[name]
            for name in PASS_METRICS
        }


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Deterministic metrics of the first traced pass; the median of each time."""
    return {
        name: passes[0][name] if name in DETERMINISTIC
        else statistics.median(p[name] for p in passes)
        for name in PASS_METRICS
    }

"""Span tracing of qpbench's public functions, applied from outside the package.

``Tracer.install()`` replaces each function in ``LAYERS`` with a wrapper that
records a span (operation id, span id, parent span id, name, start, end) and
the work counters read off the function's result.  A function is replaced in
every ``qpbench`` module that binds it -- ``pipeline`` imports ``free_green``
by name, so both ``qpbench.green_dyson.free_green`` and
``qpbench.pipeline.free_green`` are patched.  ``Tracer.restore()`` puts every
original binding back.

Each layer metric is a *self time*: a span's duration minus the durations of
the spans it directly caused.  Processing is sequential in one thread, so
child spans never overlap and the self times of one operation add up to its
root span (``cli.main``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def _scf_counts(result) -> dict:
    return {
        "hartree_fock.scf_iterations": result.iterations,
        "hartree_fock.scf_unconverged": int(not result.converged),
    }


def _ci_counts(result) -> dict:
    n = len(result[1].determinants)
    return {"many_body.determinants": n, "many_body.ci_elements": n * (n + 1) // 2}


def _free_green_counts(result) -> dict:
    nw, d, _ = result.matrices.shape
    return {"green_dyson.frequencies": nw, "green_dyson.propagator_bytes": nw * d * d * 16}


def _dyson_counts(result) -> dict:
    return {"green_dyson.flagged": len(result.flagged)}


def _written_bytes(result) -> dict:
    if isinstance(result, str):
        return {"reports.bytes": len(result.encode())}
    return {"reports.bytes": Path(result).stat().st_size}


# (module, function) -> (per-layer metric fed by the span's self time,
# counter extractor).  Functions that are not called on every workload share a
# metric with one that is, so no layer time reads as an exact zero.
LAYERS = {
    ("qpbench.cli", "main"): ("cli.self_s", None),
    ("qpbench.config", "validate_config"): ("config.validate_s", None),
    ("qpbench.model_system", "build_soft_coulomb_system"): ("model_system.build_s", None),
    ("qpbench.pipeline", "run_pipeline"): ("pipeline.self_s", None),
    ("qpbench.hartree_fock", "band_structure"): ("hartree_fock.scf_s", None),
    ("qpbench.hartree_fock", "scf_solve"): ("hartree_fock.scf_s", _scf_counts),
    ("qpbench.many_body", "full_ci_ground_state"): ("many_body.full_ci_s", _ci_counts),
    ("qpbench.many_body", "exact_reduced_density_matrix"): ("many_body.rdm_s", None),
    ("qpbench.many_body", "natural_occupations"): ("many_body.natural_occupations_s", None),
    ("qpbench.green_dyson", "free_green"): ("green_dyson.free_green_s", _free_green_counts),
    ("qpbench.green_dyson", "dyson_solve"): ("green_dyson.dyson_solve_s", _dyson_counts),
    ("qpbench.green_dyson", "dyson_residual"): ("green_dyson.dyson_residual_s", None),
    ("qpbench.green_dyson", "peak_alignment_error"): ("green_dyson.peaks_s", None),
    ("qpbench.density_matrix", "band_projector"): ("density_matrix.self_s", None),
    ("qpbench.density_matrix", "trace_energy_identity"): ("density_matrix.self_s", None),
    ("qpbench.density_matrix", "check_matrix_size"): ("density_matrix.self_s", None),
    ("qpbench.quasiparticle", "mass_shift"): ("quasiparticle.mass_shift_s", None),
    ("qpbench.quasiparticle", "assemble_level"): ("quasiparticle.level_s", None),
    ("qpbench.quasiparticle", "reference_point"): ("quasiparticle.level_s", None),
    ("qpbench.quasiparticle", "band_midpoint"): ("quasiparticle.level_s", None),
    ("qpbench.hydrogenic", "boson_energy"): ("hydrogenic.spectrum_s", None),
    ("qpbench.hydrogenic", "mass_operator_limit"): ("hydrogenic.spectrum_s", None),
    ("qpbench.reports", "write_json"): ("reports.write_s", _written_bytes),
    ("qpbench.reports", "write_csv"): ("reports.write_s", _written_bytes),
    ("qpbench.reports", "band_plot_svg"): ("reports.write_s", _written_bytes),
    ("qpbench.reports", "spectral_plot_svg"): ("reports.write_s", _written_bytes),
}

# counters that are not read off a function result; filled by the harness
QUASIPARTICLE_WARNINGS = "quasiparticle.warnings"

TIME_METRICS = tuple(dict.fromkeys(name for name, _ in LAYERS.values()))
COUNT_METRICS = (
    "hartree_fock.scf_iterations",
    "hartree_fock.scf_unconverged",
    "many_body.determinants",
    "many_body.ci_elements",
    "green_dyson.frequencies",
    "green_dyson.flagged",
    "green_dyson.propagator_bytes",
    QUASIPARTICLE_WARNINGS,
    "reports.bytes",
)
UNITS = {name: "s" for name in TIME_METRICS}
UNITS.update({name: "bytes" if name.endswith("bytes") else "count" for name in COUNT_METRICS})


class Tracer:
    """Records spans and counters for calls into the wrapped functions."""

    def __init__(self):
        self.spans = []  # dicts: op, id, parent, name (module.function), metric, start, end
        self.counts = []  # (op, counter, value)
        self.op = None
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.errors = set()  # functions that could not be traced, counters that failed

    def _wrap(self, func, name, metric, counter):
        def wrapper(*args, **kwargs):
            span = {"op": self.op, "id": len(self.spans), "name": name, "metric": metric,
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counts = counter(result)
                except Exception as exc:  # a changed result type must not fail the operation
                    self.errors.add(f"{name} counters: {exc!r}")
                else:
                    for key, value in counts.items():
                        self.count(key, value)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def count(self, key: str, value) -> None:
        """Add ``value`` to counter ``key`` of the current operation."""
        self.counts.append((self.op, key, value))

    def install(self) -> None:
        """Patch every binding of every function in ``LAYERS``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "qpbench" or key.startswith("qpbench."))]
        for (module_name, attr), (metric, counter) in LAYERS.items():
            name = f"{module_name.removeprefix('qpbench.')}.{attr}"
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:  # deleted upstream: its metric reads 0, the run goes on
                self.errors.add(f"{name} not found; not traced")
                continue
            wrapper = self._wrap(original, name, metric, counter)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def restore(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def self_times(self) -> dict:
        """``{(op, metric): self seconds}`` summed over the spans of each op."""
        child_time = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        totals = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            key = (span["op"], span["metric"])
            totals[key] = totals.get(key, 0.0) + own
        return totals

    def per_op_metrics(self, ops: int) -> dict:
        """Every per-layer metric as a mean per operation over ``ops`` operations."""
        metrics = {name: 0.0 for name in TIME_METRICS + COUNT_METRICS}
        for (_, name), seconds in self.self_times().items():
            metrics[name] += seconds
        for _, key, value in self.counts:
            metrics[key] += value
        return {name: value / ops for name, value in metrics.items()}

"""In-memory span tracer for platelab's module boundaries.

`Tracer.install` wraps each function in `TRACED` at every module attribute
that binds it, so a call records the binding its caller looked up:
`integrator.force_load` (the lookup inside `SolverCache.residual_load`) and
`model.force_load` (the lookup inside `solve_stationary`) are separate spans
of one function.  A span is (binding, function, start, end, parent index).
Spans stay in memory until `write` saves them when the round ends, and
`layer_metrics` derives the per-layer metrics from them.

Hot scalar helpers (`damping_gain`, `balance_function`, the norms on
`DiscreteOperators`, `fmt_float`) are not wrapped: they run millions of times
per round and a span each would swamp the layers they serve.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

LAYERS = ("config", "discretization", "model", "integrator", "energy",
          "barrier", "attractor_lab", "reporting")

# function name (module.qualname) of every traced public function
TRACED = (
    "config.parse_config",
    "discretization.make_operators",
    "model.force_load",
    "model.force_jacobian",
    "model.solve_stationary",
    "model.certify_source",
    "energy.potential_energy",
    "energy.split_potential",
    "energy.total_energy",
    "integrator.SolverCache.__init__",
    "integrator.SolverCache.residual_load",
    "integrator.solve_midpoint_speed",
    "integrator.step",
    "integrator.initial_state",
    "integrator.run",
    "barrier.fit_barrier_constants",
    "barrier.balancing_check",
    "barrier.decay_audit",
    "barrier.ultimate_bound",
    "barrier.solve_barrier_scale",
    "attractor_lab.dissipativity_sweep",
    "attractor_lab.correlation_dimension",
    "reporting.write_json",
    "reporting.write_csv",
)

# (name, unit) of every per-layer metric, in the order they are printed
PER_LAYER = (
    ("config.parse_s", "s"),
    ("discretization.make_operators_s", "s"),
    ("discretization.operator_mb", "MB"),
    ("model.solve_stationary_s", "s"),
    ("model.newton_iterations", "count"),
    ("model.force_jacobian_s", "s"),
    ("model.force_jacobian_calls", "count"),
    ("integrator.initial_state_s", "s"),
    ("integrator.solver_cache_s", "s"),
    ("integrator.solver_caches", "count"),
    ("integrator.steps", "count"),
    ("integrator.step_us", "us"),
    ("integrator.fp_iterations_per_step", "count"),
    ("integrator.speed_solves", "count"),
    ("integrator.speed_solve_us", "us"),
    ("model.force_load_calls", "count"),
    ("model.force_load_us", "us"),
    ("integrator.run_self_s", "s"),
    ("energy.potential_energy_calls", "count"),
    ("energy.potential_energy_s", "s"),
    ("energy.split_potential_s", "s"),
    ("energy.total_energy_s", "s"),
    ("barrier.fit_barrier_constants_s", "s"),
    ("barrier.decay_audit_s", "s"),
    ("barrier.ultimate_bound_s", "s"),
    ("barrier.solve_barrier_scale_calls", "count"),
    ("attractor_lab.correlation_dimension_s", "s"),
    ("attractor_lab.correlation_dimension_peak_mb", "MB"),
    ("attractor_lab.dissipativity_sweep_s", "s"),
    ("attractor_lab.sweep_samples", "count"),
    ("reporting.write_s", "s"),
    ("reporting.bytes_written", "bytes"),
)

# per-layer metrics that count work; they must repeat exactly for a seed
COUNTS = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


def array_bytes(obj, depth: int = 2) -> int:
    """Bytes of the numpy arrays held by obj and by its attributes' attributes.

    Two levels reach the operator matrices and the quadrature grid's tables.
    """
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0 or not hasattr(obj, "__dict__"):
        return 0
    return sum(array_bytes(v, depth - 1) for v in vars(obj).values())


class Tracer:
    """Spans and result-derived counts of one round, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.newton_iterations = 0
        self.operator_bytes = 0
        self.cd_peak_bytes = 0
        self.bytes_written = 0

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function at each of its bindings; returns the count."""
        for layer in LAYERS:
            importlib.import_module(f"platelab.{layer}")
        modules = {name[len("platelab."):] or "platelab": mod
                   for name, mod in sys.modules.items()
                   if (name == "platelab" or name.startswith("platelab."))
                   and mod is not None}
        originals = {}
        for fname in TRACED:
            layer, *path = fname.split(".")
            obj = modules[layer]
            for part in path:
                obj = getattr(obj, part)
            originals[fname] = obj
        by_id = {id(fn): fname for fname, fn in originals.items()}
        wrapped = 0
        for modname, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                fname = by_id.get(id(value))
                if fname is not None and fname.count(".") == 1:
                    setattr(mod, attr, self._wrap(f"{modname}.{attr}", fname, value))
                    wrapped += 1
        for fname, fn in originals.items():
            if fname.count(".") == 2:           # a method: wrap it on its class
                layer, cls_name, meth = fname.split(".")
                cls = getattr(modules[layer], cls_name)
                binding = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                setattr(cls, meth, self._wrap(binding, fname, fn))
                wrapped += 1
        return wrapped

    def _wrap(self, binding: str, fname: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        after = {
            "model.solve_stationary": self._after_newton,
            "discretization.make_operators": self._after_operators,
            "reporting.write_json": self._after_write,
            "reporting.write_csv": self._after_write,
        }.get(fname)
        peak_memory = fname == "attractor_lab.correlation_dimension"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            if peak_memory:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (binding, fname, start, end, parent)
                if peak_memory:
                    self.cd_peak_bytes = max(self.cd_peak_bytes,
                                             tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_newton(self, args, result):
        self.newton_iterations += int(result.iterations)

    def _after_operators(self, args, result):
        self.operator_bytes = max(self.operator_bytes, array_bytes(result))

    def _after_write(self, args, result):
        self.bytes_written += Path(args[0]).stat().st_size

    # -- output -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time covered by its child spans."""
        child = [0.0] * len(self.spans)
        for binding, fname, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (binding, fname, start, end, parent), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict[str, float]:
        durations: dict[str, list[float]] = {f: [] for f in TRACED}
        selfs: dict[str, list[float]] = {f: [] for f in TRACED}
        bindings: dict[str, int] = {}
        for (binding, fname, start, end, _), s in zip(self.spans, self.self_times()):
            durations[fname].append(end - start)
            selfs[fname].append(s)
            bindings[binding] = bindings.get(binding, 0) + 1

        def total(f):
            return sum(durations[f])

        def calls(f):
            return len(durations[f])

        def median_us(f):
            return statistics.median(selfs[f]) * 1e6 if selfs[f] else 0.0

        steps = calls("integrator.step")
        return {
            "config.parse_s": total("config.parse_config"),
            "discretization.make_operators_s": total("discretization.make_operators"),
            "discretization.operator_mb": self.operator_bytes / 1e6,
            "model.solve_stationary_s": total("model.solve_stationary"),
            "model.newton_iterations": self.newton_iterations,
            "model.force_jacobian_s": total("model.force_jacobian"),
            "model.force_jacobian_calls": calls("model.force_jacobian"),
            "integrator.initial_state_s": total("integrator.initial_state"),
            "integrator.solver_cache_s": total("integrator.SolverCache.__init__"),
            "integrator.solver_caches": calls("integrator.SolverCache.__init__"),
            "integrator.steps": steps,
            "integrator.step_us": median_us("integrator.step"),
            "integrator.fp_iterations_per_step":
                calls("integrator.SolverCache.residual_load") / steps if steps else 0.0,
            "integrator.speed_solves": calls("integrator.solve_midpoint_speed"),
            "integrator.speed_solve_us": median_us("integrator.solve_midpoint_speed"),
            "model.force_load_calls": calls("model.force_load"),
            "model.force_load_us": median_us("model.force_load"),
            "integrator.run_self_s": sum(selfs["integrator.run"]),
            "energy.potential_energy_calls": calls("energy.potential_energy"),
            "energy.potential_energy_s": total("energy.potential_energy"),
            "energy.split_potential_s": total("energy.split_potential"),
            "energy.total_energy_s": total("energy.total_energy"),
            "barrier.fit_barrier_constants_s": total("barrier.fit_barrier_constants"),
            "barrier.decay_audit_s": total("barrier.decay_audit"),
            "barrier.ultimate_bound_s": total("barrier.ultimate_bound"),
            "barrier.solve_barrier_scale_calls": calls("barrier.solve_barrier_scale"),
            "attractor_lab.correlation_dimension_s":
                total("attractor_lab.correlation_dimension"),
            "attractor_lab.correlation_dimension_peak_mb": self.cd_peak_bytes / 1e6,
            "attractor_lab.dissipativity_sweep_s":
                total("attractor_lab.dissipativity_sweep"),
            "attractor_lab.sweep_samples": bindings.get("attractor_lab.run", 0),
            "reporting.write_s": total("reporting.write_json") + total("reporting.write_csv"),
            "reporting.bytes_written": self.bytes_written,
        }

    def write(self, path: Path) -> None:
        """Save the spans as parallel arrays (.npz): names, start, end, parent."""
        import numpy as np

        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        np.savez(path,
                 names=np.array(names),
                 name=np.array([code[s[0]] for s in self.spans], dtype=np.int16),
                 start=np.array([s[2] for s in self.spans]),
                 end=np.array([s[3] for s in self.spans]),
                 parent=np.array([s[4] for s in self.spans], dtype=np.int64))

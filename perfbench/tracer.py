"""In-memory span tracer that wraps hetsgd's public entry points from outside.

Each traced entry point belongs to a group such as ``oracles.call`` or
``sgd.run``. The tracer finds the function object in its defining module and
replaces every reference to that same object in the ``hetsgd`` package, its
submodules and their classes, so copies made by ``from .core import project``
are wrapped as well. Wrappers nest: a span's self time is its duration minus
the time of the wrapped spans it caused, and the time the wrappers themselves
spend is kept apart as hook time, so that

    sum(self time of every span) + root self time + hook time == wall time.

Spans are aggregated in memory while the traced call runs and read out once
at the end. A name that no longer exists is reported with a warning and
counts zero calls.
"""
from __future__ import annotations

import importlib
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

# group -> entry points, each "module:qualname". Groups carry the module name
# as their first component; it is the layer a span's self time belongs to.
ENTRY_POINTS = {
    "cli.main": ["hetsgd.cli:main"],
    "experiments.run": ["hetsgd.experiments:run_order_experiment",
                        "hetsgd.experiments:run_strategy_comparison",
                        "hetsgd.experiments:run_c2_sweep"],
    "sgd.run": ["hetsgd.sgd:run_sgd", "hetsgd.sgd:run_sgd_interleaved",
                "hetsgd.sgd:run_paired", "hetsgd.sgd:run_paired_interleaved"],
    "oracles.call": ["hetsgd.oracles:GradientOracle.call"],
    "oracles.noise": ["hetsgd.oracles:sample_privacy_noise"],
    "oracles.init": ["hetsgd.oracles:GradientOracle.__init__"],
    "core.gradient_scales": ["hetsgd.core:gradient_scales"],
    "core.project": ["hetsgd.core:project"],
    "core.full_objective": ["hetsgd.core:full_objective"],
    "rates.select_rates": ["hetsgd.rates:select_rates"],
    "rates.minimize_single_rate": ["hetsgd.rates:minimize_single_rate"],
    "rates.minimize_phase2_rate": ["hetsgd.rates:minimize_phase2_rate"],
    "rates.two_phase_bound": ["hetsgd.rates:two_phase_bound"],
    "ordering.compare_orders": ["hetsgd.ordering:compare_orders"],
    "ordering.noise_weights": ["hetsgd.ordering:noise_weights"],
    "datasets.load": ["hetsgd.datasets:generate_synthetic", "hetsgd.datasets:ingest_csv",
                      "hetsgd.datasets:ingest_libsvm", "hetsgd.datasets:random_projection"],
}

MODULES = ("cli", "experiments", "sgd", "oracles", "core", "rates", "ordering", "datasets")


@dataclass
class GroupStats:
    n: int = 0
    incl_s: float = 0.0      # duration of the outermost spans of this group
    self_s: float = 0.0
    depth: int = 0           # open spans of this group, so nested calls count once in incl_s
    counters: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


def _record_oracle_call(st, args, kwargs, out, dur):
    kind = getattr(getattr(args[0], "spec", None), "kind", "unknown")
    st.add(f"{kind}.n", 1)
    st.add(f"{kind}.s", dur)


def _record_noise(st, args, kwargs, out, dur):
    z = np.asarray(out)
    st.add("rows", 1 if z.ndim < 2 else z.shape[0])
    st.add("values", z.size)


def _record_project(st, args, kwargs, out, dur):
    w = np.asarray(args[0], dtype=np.float64)
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    if w.ndim == 1:
        st.add("rows", 1)
        st.add("active", int(float(np.dot(w, w)) > radius * radius))
    else:
        st.add("rows", w.shape[0])
        st.add("active", int(np.count_nonzero(np.einsum("ij,ij->i", w, w) > radius * radius)))


def _steps_of(result) -> int:
    """SGD steps of the trajectories a run returned (one, or a tuple of them)."""
    items = result if isinstance(result, (tuple, list)) else (result,)
    return sum(int(getattr(r, "steps", 0)) for r in items)


def _record_sgd_run(st, args, kwargs, out, dur):
    if st.depth == 0:          # outermost run only: paired runs return their inner runs
        st.add("steps", _steps_of(out))


ON_EXIT = {
    "oracles.call": _record_oracle_call,
    "oracles.noise": _record_noise,
    "core.project": _record_project,
    "sgd.run": _record_sgd_run,
}


def _hetsgd_namespaces():
    """Every hetsgd module and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "hetsgd" or name.startswith("hetsgd."))]
    classes = []
    for m in modules:
        for value in vars(m).values():
            if isinstance(value, type) and getattr(value, "__module__", "").startswith("hetsgd") \
                    and value not in classes:
                classes.append(value)
    return modules + classes


def _resolve(entry: str):
    module_name, qualname = entry.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Wraps the entry points in ENTRY_POINTS while active (a context manager)."""

    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.stats = {group: GroupStats() for group in entry_points}
        self.hook_s = 0.0
        self.root_child_s = 0.0
        self.missing: list = []
        self._stack: list = []       # child-time accumulators of the open spans
        self._patches: list = []     # (namespace, attribute, original)

    def _wrap(self, group: str, fn):
        st = self.stats[group]
        stack = self._stack
        on_exit = ON_EXIT.get(group)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                st.depth -= 1
                dur = t2 - t1
                st.n += 1
                st.self_s += dur - frame[0]
                if st.depth == 0:
                    st.incl_s += dur
            if on_exit is not None:
                on_exit(st, args, kwargs, out, dur)
            t3 = clock()
            stack[-1][0] += t3 - t0
            self.hook_s += (t3 - t0) - dur
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def __enter__(self) -> "Tracer":
        namespaces = _hetsgd_namespaces()
        for group, entries in self.entry_points.items():
            for entry in entries:
                try:
                    original = _resolve(entry)
                except (ImportError, AttributeError):
                    self.missing.append(entry)
                    warnings.warn(f"traced entry point {entry} not found; "
                                  f"it is reported with 0 calls", RuntimeWarning, stacklevel=2)
                    continue
                wrapper = self._wrap(group, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            self._patches.append((ns, key, original))
        self._stack.append([0.0])
        return self

    def __exit__(self, *exc) -> None:
        self.root_child_s = self._stack.pop()[0]
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def metrics(self, wall_s: float, untraced_s: float) -> dict:
        """Per-layer metrics of one traced call that took wall_s (untraced: untraced_s)."""
        s = self.stats

        def per_call_us(total_s, n):
            return total_s / n * 1e6 if n else 0.0

        call, noise, proj, run = s["oracles.call"], s["oracles.noise"], s["core.project"], s["sgd.run"]
        m = {}
        m["oracles.call.n"] = call.n
        m["oracles.call.self_s"] = call.self_s
        m["oracles.call.us"] = per_call_us(call.incl_s, call.n)
        for kind in ("local_dp", "clean"):
            n = call.counters.get(f"{kind}.n", 0)
            m[f"oracles.call.{kind}.n"] = n
            m[f"oracles.call.{kind}.us"] = per_call_us(call.counters.get(f"{kind}.s", 0.0), n)
        m["oracles.noise.n"] = noise.n
        m["oracles.noise.s"] = noise.incl_s
        m["oracles.noise.rows"] = noise.counters.get("rows", 0)
        m["oracles.noise.mb_computed"] = noise.counters.get("values", 0) * 8 / 1e6
        m["oracles.init.n"] = s["oracles.init"].n
        m["oracles.init.s"] = s["oracles.init"].incl_s
        steps = run.counters.get("steps", 0)
        m["sgd.run.n"] = run.n
        m["sgd.run.self_s"] = run.self_s
        m["sgd.steps"] = steps
        m["sgd.step_us"] = per_call_us(run.incl_s, steps)
        for group in ("core.gradient_scales", "core.project", "core.full_objective",
                      "rates.select_rates", "rates.minimize_single_rate",
                      "rates.minimize_phase2_rate", "rates.two_phase_bound",
                      "ordering.compare_orders", "ordering.noise_weights", "datasets.load"):
            m[f"{group}.n"] = s[group].n
            m[f"{group}.s"] = s[group].incl_s
        rows = proj.counters.get("rows", 0)
        m["core.project.active_frac"] = proj.counters.get("active", 0) / rows if rows else 0.0
        for module in MODULES:
            m[f"{module}.self_s"] = sum(st.self_s for g, st in s.items()
                                        if g.split(".", 1)[0] == module)
        m["bench.self_s"] = wall_s - self.root_child_s
        m["trace.hook_s"] = self.hook_s
        m["trace.wall_s"] = wall_s
        m["trace.overhead_frac"] = (wall_s - untraced_s) / untraced_s
        m["trace.missing_entry_points"] = len(self.missing)
        return m

"""Spans around the public functions of every ``dckf`` layer, from outside the package.

``Tracer.active()`` rebinds each traced function on every ``dckf`` module
object that holds it (``cli`` and ``analysis`` import their callees by name,
so patching only the defining module would miss those calls) and restores
the originals on exit.  Nested calls become child spans, for example
``steady_state`` -> ``solve_lyapunov`` -> ``solve_sylvester``.  Spans stay in
memory as (name, start, end, parent, op) and are written out by the caller.

A target that does not exist at the commit under test is recorded in
``absent`` and skipped; that is not an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Modules whose public functions are all traced.  ``graph`` is left out (its
# calls take under 1 ms per op) and so is ``matkit`` apart from ``expm``: its
# other kernels run inside the RK4 inner loops, where a span per call would
# cost more than the call.
TRACED_MODULES = ("scenario", "model", "filtering", "solvers", "analysis", "sim", "cli")

# Targets the per-layer metrics read, traced whether or not discovery finds
# them; ``module.Class.method`` names a method.
NAMED_TARGETS = (
    "cli.main",
    "scenario.load_scenario",
    "model.stack",
    "model.deviations",
    "filtering.build_filter",
    "filtering.gamma_threshold",
    "filtering.FilterRealization.with_gamma",
    "solvers.solve_care",
    "solvers.solve_lyapunov",
    "solvers.solve_sylvester",
    "solvers.steady_state",
    "solvers.propagate",
    "solvers.propagate_augmented",
    "solvers.stable_step",
    "analysis.trace_bounds",
    "analysis.asymptotic_fit",
    "analysis.divergence_test",
    "analysis.relation_analysis",
    "sim.monte_carlo_mse",
    "matkit.expm",
)


def _grid_span(args) -> dict:
    grid = np.asarray(args["grid"], dtype=float)
    return {"sim_s": float(grid[-1] - grid[0])}


def _mc_facts(args, result) -> dict:
    cfg = args["cfg"]
    return {
        "trial_steps": cfg.trials * cfg.step_count,
        "overflow_trials": len(result.overflow_trials),
    }


def _residual_facts(args, result) -> dict:
    worst = 0.0
    for key, residual in result.residuals.items():
        worst = max(worst, residual / (1.0 + float(np.linalg.norm(getattr(result, key)))))
    return {"max_residual": worst}


# Facts recorded on a span from the call's bound arguments and its result.
PROBES = {
    "sim.monte_carlo_mse": _mc_facts,
    "solvers.propagate": lambda args, result: _grid_span(args),
    "analysis.relation_analysis": lambda args, result: _grid_span(args),
    "solvers.steady_state": _residual_facts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    facts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Collects spans for the ``dckf`` package while ``active()`` is entered."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.probe_errors = 0
        self._stack: list[int] = []
        self._op: str | None = None
        self._modules = self._load_modules()
        self._targets = self._resolve_targets()

    def _load_modules(self) -> dict:
        modules = {}
        for info in pkgutil.iter_modules(self.package.__path__):
            if info.name != "__main__":
                modules[info.name] = importlib.import_module(f"{self.package.__name__}.{info.name}")
        return modules

    def _resolve_targets(self) -> dict[str, tuple[object, str, object]]:
        """name -> (owner, attribute, original) for every target that exists."""
        names = list(NAMED_TARGETS)
        for mod_name in TRACED_MODULES:
            mod = self._modules.get(mod_name)
            if mod is None:
                continue
            public = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for attr in public:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names.append(f"{mod_name}.{attr}")
        targets = {}
        for name in dict.fromkeys(names):
            owner = self._modules.get(name.split(".")[0])
            path = name.split(".")[1:]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = inspect.getattr_static(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            targets[name] = (owner, path[-1], original)
        return targets

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else None, tracer._op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if probe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.facts = probe(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    tracer.probe_errors += 1
            return result

        return traced

    @contextmanager
    def active(self, op: str):
        """Trace every call into ``dckf`` made inside the block, tagged with ``op``."""
        wrappers = {
            id(orig): self._wrap(name, orig) for name, (_, _, orig) in self._targets.items()
        }
        # Methods are patched on their class; functions on every module holding them.
        patches = [t for t in self._targets.values() if inspect.isclass(t[0])]
        for holder in (self.package, *self._modules.values()):
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    patches.append((holder, attr, value))
        for owner, attr, orig in patches:
            setattr(owner, attr, wrappers[id(orig)])
        self._op = op
        try:
            yield
        finally:
            self._op = None
            for owner, attr, orig in patches:
                setattr(owner, attr, orig)


def layer_metrics(spans: list[Span], ops: set[str], op_count: int) -> dict[str, float]:
    """Per-op ``<name>.s``, ``.self_s`` and ``.calls`` plus the probed facts.

    Reads the spans tagged with any of ``ops``.  ``.s`` counts a span only
    when no ancestor has the same name, so recursion is not counted twice;
    ``.self_s`` is a span's duration minus its children's.  Totals are
    divided by ``op_count``.
    """
    chosen = [i for i, s in enumerate(spans) if s.op in ops]
    child_time: dict[int, float] = {}
    for i in chosen:
        parent = spans[i].parent
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + spans[i].end - spans[i].start
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    def ancestors(i: int):
        parent = spans[i].parent
        while parent is not None:
            yield spans[parent]
            parent = spans[parent].parent

    worst_residual = None
    for i in chosen:
        span = spans[i]
        duration = span.end - span.start
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", duration - child_time.get(i, 0.0))
        lineage = [a.name for a in ancestors(i)]
        if span.name not in lineage:
            add(f"{span.name}.s", duration)
        if span.name == "solvers.solve_lyapunov" and "solvers.solve_care" in lineage:
            add("solvers.solve_care.newton_steps", 1)
        for key, value in span.facts.items():
            if key == "max_residual":
                worst_residual = max(value, worst_residual or 0.0)
            else:
                add(f"{span.name}.{key}", value)
    count = max(op_count, 1)
    metrics = {key: value / count for key, value in totals.items()}
    if worst_residual is not None:
        metrics["solvers.steady_state.max_residual"] = worst_residual
    care_calls = totals.get("solvers.solve_care.calls", 0.0)
    metrics["solvers.solve_care.newton_steps"] = (
        totals.get("solvers.solve_care.newton_steps", 0.0) / care_calls if care_calls else 0.0
    )
    steps = totals.get("sim.monte_carlo_mse.trial_steps", 0.0)
    metrics["sim.trial_steps"] = steps / count
    metrics["sim.overflow_trials"] = totals.get("sim.monte_carlo_mse.overflow_trials", 0.0) / count
    metrics["sim.ns_per_trial_step"] = (
        1e9 * totals.get("sim.monte_carlo_mse.s", 0.0) / steps if steps else 0.0
    )
    for name in ("solvers.propagate", "analysis.relation_analysis"):
        sim_s = totals.get(f"{name}.sim_s", 0.0)
        metrics[f"{name}.s_per_sim_s"] = totals.get(f"{name}.s", 0.0) / sim_s if sim_s else 0.0
    return metrics


def top_level_time(spans: list[Span], op: str) -> float:
    """Total duration of the spans of ``op`` that have no parent."""
    return sum(s.end - s.start for s in spans if s.op == op and s.parent is None)

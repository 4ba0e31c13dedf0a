"""Distributed continuous-time Kalman filtering under model mismatch.

Build a consensus-coupled sensor-network filter from a true system, a
(possibly wrong) nominal model, and an undirected topology; then compute,
bound, and Monte-Carlo-validate its performance under the modeling errors.

The package is imported lazily (PEP 562): ``import dckf`` loads no submodule
and no numpy, so ``python -m dckf`` can choose a BLAS thread default before
numpy starts.  Each public name below is looked up in its submodule on every
access and never stored here, so a name always shows what the submodule holds
right now.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "AsymptoticFit",
        "BoundsReport",
        "DivergenceCertificate",
        "HypothesisError",
        "RelationReport",
        "asymptotic_fit",
        "deviation_gap",
        "divergence_test",
        "nominal_trace_floor",
        "relation_analysis",
        "trace_bounds",
    ),
    "filtering": ("FilterRealization", "build_filter", "gamma_threshold", "is_hurwitz"),
    "graph": (
        "Topology",
        "algebraic_connectivity",
        "complete",
        "is_connected",
        "laplacian",
        "ring",
    ),
    "model": (
        "AssumptionReport",
        "Deviations",
        "NominalModel",
        "Sensor",
        "StackedMatrices",
        "TrueSystem",
        "deviations",
        "stack",
        "validate_assumptions",
    ),
    "scenario": (
        "Scenario",
        "ScenarioError",
        "load_scenario",
        "parse_scenario",
        "preset_dict",
        "preset_names",
    ),
    "sim": (
        "MseSeries",
        "SimConfig",
        "SimTrial",
        "SimulationOverflowError",
        "monte_carlo_mse",
        "monte_carlo_sweep",
        "simulate_trial",
    ),
    "solvers": (
        "CareSolutionError",
        "CovarianceTrajectory",
        "NotHurwitzError",
        "SchurForm",
        "SingularEquationError",
        "SolverError",
        "SteadyStateResult",
        "TrajectoryInit",
        "default_initial_state",
        "propagate",
        "solve_care",
        "solve_lyapunov",
        "solve_sylvester",
        "steady_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "matkit")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dckf
import dckf.__main__

SRC = str(Path(dckf.__file__).resolve().parents[1])

# The names ``dckf`` exports, by the submodule each one lives in.
PUBLIC_NAMES = {
    "analysis": [
        "AsymptoticFit", "BoundsReport", "DivergenceCertificate",
        "HypothesisError", "RelationReport", "asymptotic_fit", "deviation_gap",
        "divergence_test", "nominal_trace_floor", "relation_analysis", "trace_bounds",
    ],
    "filtering": ["FilterRealization", "build_filter", "gamma_threshold", "is_hurwitz"],
    "graph": [
        "Topology", "algebraic_connectivity", "complete", "is_connected", "laplacian", "ring",
    ],
    "model": [
        "AssumptionReport", "Deviations", "NominalModel", "Sensor", "StackedMatrices",
        "TrueSystem", "deviations", "stack", "validate_assumptions",
    ],
    "scenario": [
        "Scenario", "ScenarioError", "load_scenario", "parse_scenario", "preset_dict",
        "preset_names",
    ],
    "sim": [
        "MseSeries", "SimConfig", "SimulationOverflowError", "monte_carlo_mse", "monte_carlo_sweep",
    ],
    "solvers": [
        "CareSolutionError", "CovarianceTrajectory", "NotHurwitzError", "SchurForm",
        "SingularEquationError", "SolverError", "SteadyStateResult", "TrajectoryInit",
        "default_initial_state", "propagate", "solve_care", "solve_lyapunov",
        "solve_sylvester", "steady_state",
    ],
}
SUBMODULES = [*PUBLIC_NAMES, "cli", "matkit"]


def fresh_python(*args):
    """Run a fresh interpreter on ``args`` with ``dckf`` importable; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_import_loads_no_numpy():
    assert fresh_python("-c", "import sys, dckf; print('numpy' in sys.modules)") == "False"


def test_reading_the_setup_names_loads_no_simulator():
    # Loading a scenario and building a filter (every run's set-up) must not pay for ``sim``.
    code = (
        "import sys, dckf; dckf.load_scenario; dckf.build_filter; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('dckf'))))"
    )
    assert fresh_python("-c", code).split() == [
        "dckf", "dckf.analysis", "dckf.filtering", "dckf.graph", "dckf.matkit", "dckf.model",
        "dckf.scenario", "dckf.solvers",
    ]


def test_submodule_lists_are_the_only_list_of_names():
    assert "__all__" not in vars(dckf)
    seen = {}
    for module in PUBLIC_NAMES:
        for name in importlib.import_module(f"dckf.{module}").__all__:
            assert name not in seen, (name, seen.get(name), module)
            seen[name] = module


def test_cli_main_after_a_bare_import():
    assert fresh_python("-c", "import dckf; print(callable(dckf.cli.main))") == "True"


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_resolve_to_their_submodule(module):
    home = importlib.import_module(f"dckf.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(dckf, name) is getattr(home, name), name
        assert name in dckf.__all__ and name in dir(dckf), name


def test_submodules_resolve_and_are_listed():
    for name in SUBMODULES:
        assert getattr(dckf, name) is importlib.import_module(f"dckf.{name}")
        assert name in dir(dckf)
    with pytest.raises(AttributeError):
        dckf.no_such_name
    assert sorted(dckf.__all__) == sorted(n for names in PUBLIC_NAMES.values() for n in names)


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_all_entry_resolves(module):
    # A stale entry would break ``from dckf.<module> import *``.
    home = importlib.import_module(f"dckf.{module}")
    for name in home.__all__:
        getattr(home, name)


def test_joint_system_layer_is_not_exported():
    # ``propagate`` builds the joint flow itself; no public layer wraps it.
    for name in ("AugmentedJointSystem", "build_augmented", "propagate_augmented"):
        assert name not in dckf.__all__ and name not in dir(dckf), name
        assert name not in dckf.solvers.__all__ and not hasattr(dckf.solvers, name), name


def test_each_paper_result_has_one_formula():
    # No connectivity override, caller-set reference gain or margin variant.
    assert list(inspect.signature(dckf.gamma_threshold).parameters) == ["nm", "topo"]
    assert "gamma_ref" not in inspect.signature(dckf.build_filter).parameters
    for fn in (dckf.trace_bounds, dckf.deviation_gap):
        assert "margin_variant" not in inspect.signature(fn).parameters, fn.__name__
    assert "gains" not in {f.name for f in dataclasses.fields(dckf.FilterRealization)}
    for fn in (dckf.solve_sylvester, dckf.solve_lyapunov):
        assert "method" not in inspect.signature(fn).parameters, fn.__name__
    # The nominal model comes from the filter, so it cannot disagree with it.
    assert list(inspect.signature(dckf.propagate).parameters) == ["fr", "ts", "grid", "init"]
    assert "gap_closed" not in {f.name for f in dataclasses.fields(dckf.RelationReport)}


def test_analysis_results_keep_only_what_callers_read(case1):
    assert [f.name for f in dataclasses.fields(dckf.BoundsReport)] == [
        "tr_nominal", "tr_error", "gap", "upper", "lower", "tr_nominal_floor",
    ]
    fr = dckf.build_filter(case1.nominal, case1.true_system, case1.topology, 600.0)
    dev = dckf.deviations(case1.true_system, case1.nominal)
    assert type(dckf.deviation_gap(fr, dev, 1.0, 1.0)) is float
    assert "DivergenceReport" not in dckf.__all__ and "DivergenceReport" not in dir(dckf)
    assert "DivergenceReport" not in dckf.analysis.__all__
    assert "coupling_log_norm" not in {f.name for f in dataclasses.fields(dckf.RelationReport)}
    assert "observability_matrix" not in dckf.model.__all__
    assert "fit_residual_gain" not in {f.name for f in dataclasses.fields(dckf.AsymptoticFit)}


def test_test_only_simulator_is_gone():
    for name in ("SimTrial", "simulate_trial"):
        assert name not in dckf.__all__ and not hasattr(dckf.sim, name), name


def test_star_import():
    namespace = {}
    exec("from dckf import *", namespace)
    assert namespace["build_filter"] is dckf.filtering.build_filter


def test_names_are_looked_up_on_every_access(monkeypatch):
    # Not cached on the package, so a patched or restored function shows through.
    original = dckf.filtering.build_filter
    assert dckf.build_filter is original
    assert "build_filter" not in vars(dckf)
    monkeypatch.setattr(dckf.filtering, "build_filter", len)
    assert dckf.build_filter is len
    monkeypatch.undo()
    assert dckf.build_filter is original


@pytest.fixture
def blas_var(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")  # recorded, so the teardown restores it
    seen = []

    def fake_cli(argv=None):
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return 0

    monkeypatch.setattr(dckf.cli, "main", fake_cli)
    return seen


def test_main_defaults_to_one_blas_thread(monkeypatch, blas_var):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert dckf.__main__.main([]) == 0
    assert blas_var == ["1"]


def test_main_keeps_the_users_blas_threads(monkeypatch, blas_var):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert dckf.__main__.main([]) == 0
    assert blas_var == ["2"]


def test_python_dash_m_runs_the_cli(tmp_path):
    fresh_python("-m", "dckf", "relations", "--scenario", "case3", "--out", str(tmp_path))
    assert (tmp_path / "case3_relations.csv").is_file()

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dckf
import dckf.__main__

SRC = str(Path(dckf.__file__).resolve().parents[1])

# The names ``dckf`` exported when its ``__init__`` imported every submodule.
PUBLIC_NAMES = {
    "analysis": [
        "AsymptoticFit", "BoundsReport", "DivergenceCertificate", "DivergenceReport",
        "HypothesisError", "RelationReport", "asymptotic_fit", "deviation_gap",
        "divergence_test", "nominal_trace_floor", "relation_analysis", "trace_bounds",
    ],
    "filtering": ["FilterRealization", "build_filter", "gamma_threshold", "is_hurwitz"],
    "graph": [
        "LaplacianSpectrum", "Topology", "complete", "is_connected", "laplacian",
        "laplacian_spectrum", "ring",
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
        "MseSeries", "SimConfig", "SimTrial", "SimulationOverflowError", "monte_carlo_mse",
        "monte_carlo_sweep", "simulate_trial",
    ],
    "solvers": [
        "AugmentedJointSystem", "CareSolutionError", "CovarianceTrajectory", "NotHurwitzError",
        "SchurForm", "SingularEquationError", "SolverError", "SteadyStateResult",
        "TrajectoryInit", "build_augmented", "default_initial_state", "propagate",
        "propagate_augmented", "solve_care", "solve_lyapunov", "solve_sylvester",
        "steady_state",
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

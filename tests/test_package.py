import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dckf

from conftest import ring_chord_document

SRC = str(Path(dckf.__file__).resolve().parents[1])

# The names ``dckf`` exports, by the submodule each one lives in.
PUBLIC_NAMES = {
    "analysis": [
        "AsymptoticFit", "BoundsReport", "DivergenceCertificate", "RelationReport",
        "asymptotic_fit", "deviation_gap", "divergence_test", "nominal_trace_floor",
        "relation_analysis", "trace_bounds",
    ],
    "filtering": ["FilterRealization", "build_filter", "gamma_threshold", "is_hurwitz"],
    "graph": [
        "Topology", "algebraic_connectivity", "is_connected", "laplacian", "ring",
    ],
    "model": [
        "AssumptionReport", "Deviations", "HypothesisError", "NominalModel", "Sensor",
        "SimulationOverflowError", "StackedMatrices", "TrueSystem", "deviations", "stack",
        "validate_assumptions",
    ],
    "scenario": [
        "Scenario", "ScenarioError", "SimConfig", "load_scenario", "parse_scenario",
        "preset_dict", "preset_names",
    ],
    "sim": ["MseSeries", "monte_carlo_mse", "monte_carlo_sweep"],
    "solvers": [
        "CareSolutionError", "CovarianceTrajectory", "NotHurwitzError", "SchurForm",
        "SingularEquationError", "SolverError", "SteadyStateResult", "TrajectoryInit",
        "default_initial_state", "propagate", "solve_care", "solve_lyapunov",
        "solve_sylvester", "steady_state",
    ],
}
SUBMODULES = [*PUBLIC_NAMES, "cli", "matkit"]


# Child code: each mapped OpenBLAS pool's thread count, read with the first
# getter it exports, then OPENBLAS_NUM_THREADS and ``sim._worker_count(4)``.
POOL_REPORT = """
import ctypes, json, os
from dckf import sim
getters = (
    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"
)
with open("/proc/self/maps") as maps:
    paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line})
pools = []
for path in paths:
    lib = ctypes.CDLL(path)
    pools += [getattr(lib, g)() for g in getters if hasattr(lib, g)][:1]
print(json.dumps([pools, os.environ.get("OPENBLAS_NUM_THREADS"), sim._worker_count(4)]))
"""


def fresh_python(*args, **env_vars):
    """Run a fresh interpreter on ``args`` with ``dckf`` importable; its stdout.

    Keyword arguments set the child's environment variables; None unsets one.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.update(env_vars)
    env = {name: value for name, value in env.items() if value is not None}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_import_loads_no_numpy():
    # Nor ctypes: the BLAS thread cap runs only when numpy or scipy loaded first.
    code = "import sys, dckf; print('numpy' in sys.modules, 'ctypes' in sys.modules)"
    assert fresh_python("-c", code) == "False False"


# Child code: every run's set-up (each preset loaded, its gains resolved and its
# filter built; a generated network, passed as argv[1], parsed, stacked and its
# deviations taken), then the ``dckf`` modules it loaded.
SETUP_MODULES = """
import json, sys
import dckf
for name in dckf.preset_names():
    sc = dckf.load_scenario(name)
    dckf.build_filter(sc.nominal, sc.true_system, sc.topology, float(max(sc.resolve_gammas())))
sc = dckf.parse_scenario(json.loads(sys.argv[1]))
ts, nm = sc.true_system, sc.nominal
dckf.build_filter(nm, ts, sc.topology, float(max(sc.resolve_gammas())))
dckf.stack(ts, nm).a_diag
dckf.deviations(ts, nm)
print(' '.join(sorted(m for m in sys.modules if m.startswith('dckf'))))
"""


def test_the_setup_loads_neither_simulator_nor_analysis():
    # Loading a scenario and building a filter (every run's set-up) must not pay for
    # ``sim`` or ``analysis``.
    network = json.dumps(ring_chord_document(25))
    assert fresh_python("-c", SETUP_MODULES, network).split() == [
        "dckf", "dckf.filtering", "dckf.graph", "dckf.matkit", "dckf.model", "dckf.scenario",
        "dckf.solvers",
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
    # The trajectory holds the two indices; the truth's moments stay inside ``propagate``.
    assert [f.name for f in dataclasses.fields(dckf.CovarianceTrajectory)] == [
        "nominal_cov", "error_cov", "error_trace_rate",
    ]


# Result objects that hold arrays or dicts compare by identity; the small
# records of plain numbers keep value equality.
IDENTITY_EQUAL = [
    "model.Sensor", "model._SensorNetwork", "model.TrueSystem", "model.NominalModel",
    "model.Deviations", "model.StackedMatrices", "solvers.SchurForm",
    "solvers.SteadyStateResult", "solvers.TrajectoryInit", "solvers.CovarianceTrajectory",
    "analysis.DivergenceCertificate", "analysis.RelationReport", "sim.MseSeries",
    "sim._Operators", "scenario.Scenario", "filtering.FilterRealization", "graph.Topology",
]
VALUE_EQUAL = [
    "scenario.SimConfig", "scenario.OdeConfig", "analysis.BoundsReport",
    "analysis.AsymptoticFit", "model.AssumptionReport",
]


def resolve(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"dckf.{module}"), name)


def test_array_results_compare_by_identity():
    # Value equality on an array field raised "truth value of an array is
    # ambiguous", and the generated ``__hash__`` raised TypeError.
    first, second = dckf.load_scenario("case1"), dckf.load_scenario("case1")
    pairs = [
        (first, second),
        (first.true_system, second.true_system),
        (first.nominal, second.nominal),
        (first.topology, second.topology),
        (first.nominal.sensors[0], second.nominal.sensors[0]),
    ]
    for one, other in pairs:
        assert one != other and not one == other, type(one).__name__
        assert one == one and hash(one) == hash(one), type(one).__name__
    assert len({first, second, first.true_system}) == 3
    for path in IDENTITY_EQUAL:
        cls = resolve(path)
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, path
    for path in VALUE_EQUAL:
        assert resolve(path).__eq__ is not object.__eq__, path
    assert first.sim_config() == second.sim_config() and first.ode == second.ode


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


def blas_pools(imports, **env_vars):
    """(pool thread counts, OPENBLAS_NUM_THREADS, workers) in a child that imports ``imports``.

    The BLAS thread variables are unset but for ``env_vars``.  Skips without
    ``/proc/self/maps`` or without an OpenBLAS that exports a thread getter.
    """
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS pools in")
    env = {var: None for var in dckf._BLAS_THREAD_VARS}
    env.update(env_vars)
    report = fresh_python("-c", f"import {imports}\n{POOL_REPORT}", **env)
    pools, variable, workers = json.loads(report)
    if not pools:
        pytest.skip("no loaded OpenBLAS exports a thread getter")
    return pools, variable, workers


def usable_cores():
    return len(os.sched_getaffinity(0))


@pytest.mark.parametrize("exported, threads", [(None, "1"), ("2", "2")], ids=["unset", "exported"])
def test_import_defaults_to_one_blas_thread(exported, threads):
    # numpy and scipy each load their own OpenBLAS, and the pools' idle workers
    # spin against each other; the default must be set before either loads.
    code = (
        "import os, sys, dckf; "
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)"
    )
    unset = {var: None for var in dckf._BLAS_THREAD_VARS}
    env = {**unset, "OPENBLAS_NUM_THREADS": exported}
    assert fresh_python("-c", code, **env) == f"{threads} False"


def test_numpy_imported_first_gets_one_blas_thread():
    # The pools that loaded before ``dckf`` are set to one thread too, so the
    # Monte Carlo's chunk workers fill the cores without oversubscribing them.
    pools, variable, workers = blas_pools("numpy, scipy.linalg, dckf")
    assert pools == [1] * len(pools) and variable == "1"
    assert workers == min(usable_cores(), 4)


@pytest.mark.parametrize("var", dckf._BLAS_THREAD_VARS)
@pytest.mark.parametrize(
    "imports", ["dckf", "numpy, scipy.linalg, dckf"], ids=["dckf-first", "numpy-first"]
)
def test_an_exported_blas_thread_count_wins(var, imports):
    pools, variable, workers = blas_pools(imports, **{var: "2"})
    assert pools == [2] * len(pools)
    assert variable == ("2" if var == "OPENBLAS_NUM_THREADS" else None)
    assert workers == max(1, min(usable_cores() // 2, 4))


def test_pool_cap_is_quiet_when_it_cannot_act(monkeypatch):
    import ctypes

    def refuse(*args, **kwargs):
        raise OSError("refused")

    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())  # no thread setter
    dckf._cap_loaded_openblas()
    monkeypatch.setattr(ctypes, "CDLL", refuse)
    dckf._cap_loaded_openblas()
    monkeypatch.setattr(dckf, "open", refuse, raising=False)  # no /proc
    dckf._cap_loaded_openblas()


def test_python_dash_m_runs_with_one_blas_thread():
    # Runs ``dckf/__main__.py`` as ``python -m dckf --version`` does, then reports the variable.
    code = (
        "import atexit, os, runpy, sys; "
        "atexit.register(lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'))); "
        "sys.argv = ['dckf', '--version']; runpy.run_module('dckf', run_name='__main__')"
    )
    assert fresh_python("-c", code, OPENBLAS_NUM_THREADS=None).splitlines() == ["dckf 0.1.0", "1"]


def test_python_dash_m_runs_the_cli(tmp_path):
    fresh_python("-m", "dckf", "relations", "--scenario", "case3", "--out", str(tmp_path))
    assert (tmp_path / "case3_relations.csv").is_file()


def test_python_dash_m_freezes_the_import_heap():
    # The CLI process skips collecting numpy's and scipy's import heap at exit.
    code = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled())); "
        "sys.argv = ['dckf', '--version']; runpy.run_module('dckf', run_name='__main__')"
    )
    assert fresh_python("-c", code).splitlines() == ["dckf 0.1.0", "True True"]


def test_library_import_leaves_the_heap_unfrozen():
    assert fresh_python("-c", "import gc, dckf.cli; print(gc.get_freeze_count())") == "0"


def test_python_dash_m_collects_nothing_while_importing():
    # Every collection that starts once scipy is loading and before the heap is
    # frozen would scan the import heap; ``python -m dckf`` pauses the collector
    # over the import instead, and turns it back on for the command.
    code = (
        "import atexit, gc, runpy, sys; "
        "seen = []; "
        "gc.callbacks.append(lambda phase, info: phase == 'start' and 'scipy' in sys.modules "
        "and not gc.get_freeze_count() and seen.append(info['generation'])); "
        "atexit.register(lambda: print(seen, gc.isenabled())); "
        "sys.argv = ['dckf', '--version']; runpy.run_module('dckf', run_name='__main__')"
    )
    assert fresh_python("-c", code).splitlines() == ["dckf 0.1.0", "[] True"]


# The numpy modules that ``import dckf`` defers until their first use.
DEFERRED = [
    "numpy.char", "numpy.ctypeslib", "numpy.f2py", "numpy.ma", "numpy.polynomial", "numpy.rec",
    "numpy.strings", "numpy.testing",
]

# Child code: print the sorted names of the modules still waiting for their
# first use.
PRINT_WAITING = (
    "print(sorted(n for n, m in sys.modules.items() "
    "if isinstance(m, importlib.util._LazyModule)))"
)

# Child code: run ``python -m dckf`` on argv[1:], then report whether the
# Monte Carlo engine and its thread pool were loaded, and the modules that are
# still waiting for their first use.
LOADS_SIMULATOR = f"""
import atexit, importlib.util, runpy, sys
def report():
    print('dckf.sim' in sys.modules, 'concurrent.futures.thread' in sys.modules)
    {PRINT_WAITING}
atexit.register(report)
sys.argv = ['dckf', *sys.argv[1:]]
runpy.run_module('dckf', run_name='__main__')
"""


@pytest.mark.parametrize(
    "command, loaded",
    [
        (["relations", "--scenario", "case3"], False),
        (["validate", "--scenario", "case1"], False),
        (["sweep", "--scenario", "case1"], False),
        (["divergence", "--scenario", "case2"], False),
        (["sweep", "--scenario", "case1", "--simulate", "--trials", "2"], True),
        (["divergence", "--scenario", "case2", "--simulate", "--trials", "2"], True),
    ],
    ids=["relations", "validate", "sweep", "divergence", "sweep-simulate", "divergence-simulate"],
)
def test_only_a_monte_carlo_command_loads_the_simulator(command, loaded, tmp_path):
    report = fresh_python("-c", LOADS_SIMULATOR, *command, "--out", str(tmp_path))
    *_, simulator, waiting = report.splitlines()
    assert simulator == f"{loaded} {loaded}"
    # Each deferred module was requested by the scipy import and never run.
    assert waiting == str(DEFERRED)


def test_deferred_numpy_modules_work_on_first_use():
    code = (
        f"import dckf.cli, importlib.util, numpy, sys; {PRINT_WAITING}; "
        "numpy.testing.assert_allclose(numpy.polynomial.Polynomial([1.0, 2.0])(2.0), 5.0); "
        "import numpy.f2py; "
        "print(numpy.ma.masked_invalid([numpy.nan]).count(), numpy.char.upper('a'), "
        "numpy.strings.upper('b'), numpy.rec.fromarrays([[1]]).f0, "
        "numpy.ctypeslib.as_ctypes_type(numpy.float64).__name__, numpy.f2py.__name__)"
    )
    waiting, used = fresh_python("-W", "error", "-c", code).splitlines()
    assert waiting == str(DEFERRED)
    assert used == "0 A B [1] c_double numpy.f2py"


def test_a_module_loaded_before_dckf_is_left_as_it_is(tmp_path):
    code = (
        "import numpy.testing, sys, dckf.cli; "
        "print(type(sys.modules['numpy.testing']).__name__, "
        f"dckf.cli.main(['relations', '--scenario', 'case3', '--out', {str(tmp_path)!r}]))"
    )
    assert fresh_python("-c", code).splitlines()[-1] == "module 0"

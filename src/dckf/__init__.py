"""Distributed continuous-time Kalman filtering under model mismatch.

Build a consensus-coupled sensor-network filter from a true system, a
(possibly wrong) nominal model, and an undirected topology; then compute,
bound, and Monte-Carlo-validate its performance under the modeling errors.
"""

from .analysis import (
    AsymptoticFit,
    BoundsReport,
    DivergenceCertificate,
    DivergenceReport,
    HypothesisError,
    RelationReport,
    asymptotic_fit,
    deviation_gap,
    divergence_test,
    nominal_trace_floor,
    relation_analysis,
    trace_bounds,
)
from .filtering import FilterRealization, build_filter, gamma_threshold, is_hurwitz
from .graph import (
    LaplacianSpectrum,
    Topology,
    complete,
    is_connected,
    laplacian,
    laplacian_spectrum,
    ring,
)
from .model import (
    AssumptionReport,
    Deviations,
    NominalModel,
    Sensor,
    StackedMatrices,
    TrueSystem,
    deviations,
    stack,
    validate_assumptions,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario, preset_dict, preset_names
from .sim import MseSeries, SimConfig, SimTrial, monte_carlo_mse, monte_carlo_sweep, simulate_trial
from .solvers import (
    AugmentedJointSystem,
    CareSolutionError,
    CovarianceTrajectory,
    NotHurwitzError,
    SingularEquationError,
    SolverError,
    SteadyStateResult,
    TrajectoryInit,
    build_augmented,
    default_initial_state,
    propagate,
    propagate_augmented,
    solve_care,
    solve_lyapunov,
    solve_sylvester,
    steady_state,
)

__version__ = "0.1.0"

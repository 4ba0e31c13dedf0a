"""True system and nominal model declarations, deviations, assumption checks.

The true system is the plant that generates data; the nominal model is what
the filter designer believes.  Deviations are nominal minus actual.  The
assumption report collects the structural conditions the analysis relies on:
a connected undirected network, observability of the nominal pair,
controllability of the nominal state/noise pair, and (when the mismatch
feedthrough is nonzero) stability of the true state matrix.
``HypothesisError`` is what an analysis, or a scenario's gain threshold,
raises when a hypothesis fails, and ``SimulationOverflowError`` is what a
Monte Carlo run raises when no trial of a filter stays finite.  They live
here so that loading a scenario does not import ``analysis``, and a command
that runs no Monte Carlo does not import ``sim``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import matkit
from .graph import Topology, is_connected

__all__ = [
    "HypothesisError",
    "SimulationOverflowError",
    "Sensor",
    "TrueSystem",
    "NominalModel",
    "Deviations",
    "StackedMatrices",
    "AssumptionReport",
    "deviations",
    "stack",
    "validate_assumptions",
]

# Relative size below which a deviation or mismatch counts as zero: model
# matrices computed in floating point differ from exact ones by round-off.
ZERO_DEVIATION_RTOL = 1e-12


class HypothesisError(ValueError):
    """A theorem hypothesis needed by the requested analysis does not hold."""


class SimulationOverflowError(RuntimeError):
    """Every Monte Carlo trial of some filter realization overflowed; no average exists."""


def negligible(norm: float, reference: float) -> bool:
    """True when ``norm`` is zero up to ``ZERO_DEVIATION_RTOL * max(1, reference)``."""
    return bool(norm <= ZERO_DEVIATION_RTOL * max(1.0, reference))


def _check_square(name: str, a: np.ndarray, n: int | None = None) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"{name} must be {n}x{n}, got {a.shape[0]}x{a.shape[0]}")
    return a


def _check_psd(name: str, a: np.ndarray, strict: bool = False) -> np.ndarray:
    if not matkit.is_symmetric(a, rtol=1e-8):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(matkit.symmetrize(a))
    scale = max(abs(w[-1]), 1.0)
    if strict and w[0] <= 1e-12 * scale:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {w[0]:.3e})")
    if not strict and w[0] < -1e-10 * scale:
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue {w[0]:.3e})")
    return np.asarray(a, dtype=float)


@dataclass(frozen=True, eq=False)
class Sensor:
    """One sensor: measurement matrix ``c`` (m x n) and noise intensity ``r`` (m x m, PD)."""

    c: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        r = np.atleast_2d(np.asarray(self.r, dtype=float))
        if r.shape[0] != r.shape[1] or r.shape[0] != c.shape[0]:
            raise ValueError(f"sensor dimensions inconsistent: c {c.shape}, r {r.shape}")
        _check_psd("sensor noise intensity", r, strict=True)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)

    @property
    def m(self) -> int:
        return self.c.shape[0]


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class _SensorNetwork:
    """A state/noise model ``(a, q)`` observed by a network of sensors, and its stacked forms.

    ``c_stack`` stacks the ``c`` matrices, ``r_diag`` is the block diagonal
    of the ``r``, ``a_diag = kron(I_N, a)`` and ``q_network = kron(11', q)``.
    Each is built once per model, on first use, and is read-only: every
    caller shares it, so an in-place write raises instead of corrupting it.
    """

    a: np.ndarray
    q: np.ndarray
    sensors: tuple[Sensor, ...]

    _label = "model"  # names the model in validation errors

    def __post_init__(self) -> None:
        what = self._label
        a = _check_square(f"{what} state matrix", self.a)
        n = a.shape[0]
        q = _check_psd(f"{what} process noise intensity", _check_square(f"{what} process noise", self.q, n))
        sensors = tuple(s if isinstance(s, Sensor) else Sensor(*s) for s in self.sensors)
        if not sensors:
            raise ValueError(f"{what} needs at least one sensor")
        for k, s in enumerate(sensors):
            if s.c.shape[1] != n:
                raise ValueError(f"{what} sensor {k}: c has {s.c.shape[1]} columns, state dim is {n}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sensors", sensors)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def sensor_count(self) -> int:
        return len(self.sensors)

    @cached_property
    def c_stack(self) -> np.ndarray:
        return _read_only(np.vstack([s.c for s in self.sensors]))

    @cached_property
    def r_diag(self) -> np.ndarray:
        return _read_only(scipy.linalg.block_diag(*[s.r for s in self.sensors]))

    @cached_property
    def a_diag(self) -> np.ndarray:
        return _read_only(np.kron(np.eye(self.sensor_count), self.a))

    @cached_property
    def q_network(self) -> np.ndarray:
        return _read_only(np.kron(np.ones((self.sensor_count, self.sensor_count)), self.q))


@dataclass(frozen=True, eq=False)
class TrueSystem(_SensorNetwork):
    """Actual dynamics, noise intensities, per-sensor models, initial moments."""

    x0: np.ndarray
    sigma0: np.ndarray

    _label = "true system"

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.n
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        if x0.size != n:
            raise ValueError(f"x0 has {x0.size} entries, state dim is {n}")
        sigma0 = _check_psd("initial covariance", _check_square("initial covariance", self.sigma0, n))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "sigma0", sigma0)


@dataclass(frozen=True, eq=False)
class NominalModel(_SensorNetwork):
    """The filter designer's (possibly wrong) parameters.

    ``p_inf``, the nominal Riccati solution that the gains and the gain
    threshold derive from, is solved once per model and read-only like the stacked forms.
    """

    _label = "nominal model"

    @cached_property
    def p_inf(self) -> np.ndarray:
        from .solvers import solve_care  # solvers imports this module

        return _read_only(solve_care(self.a, self.c_stack, self.r_diag, self.q))


def _check_pair(ts: TrueSystem, nm: NominalModel) -> None:
    if nm.n != ts.n:
        raise ValueError(f"state dimensions differ: true {ts.n}, nominal {nm.n}")
    if nm.sensor_count != ts.sensor_count:
        raise ValueError(
            f"sensor counts differ: true {ts.sensor_count}, nominal {nm.sensor_count}"
        )
    for k, (st, sn) in enumerate(zip(ts.sensors, nm.sensors)):
        if st.c.shape != sn.c.shape:
            raise ValueError(f"sensor {k}: measurement shapes differ {st.c.shape} vs {sn.c.shape}")


@dataclass(frozen=True, eq=False)
class Deviations:
    """Componentwise nominal-minus-actual differences with Frobenius norms.

    ``scale`` is the largest Frobenius norm among the nominal state and
    measurement matrices; deviations :func:`negligible` against it count as
    zero in :attr:`state_matrix_exact`.
    """

    d_a: np.ndarray
    d_c: tuple[np.ndarray, ...]
    d_q: np.ndarray
    d_r: tuple[np.ndarray, ...]
    scale: float = 1.0

    @property
    def d_a_norm(self) -> float:
        return float(np.linalg.norm(self.d_a))

    @property
    def d_c_norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(d)) for d in self.d_c)

    @property
    def d_q_norm(self) -> float:
        return float(np.linalg.norm(self.d_q))

    @property
    def d_r_norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(d)) for d in self.d_r)

    @property
    def state_matrix_exact(self) -> bool:
        return all(negligible(v, self.scale) for v in (self.d_a_norm, *self.d_c_norms))


def deviations(ts: TrueSystem, nm: NominalModel) -> Deviations:
    """Nominal minus actual for the state matrix, sensors, and noise intensities."""
    _check_pair(ts, nm)
    return Deviations(
        d_a=nm.a - ts.a,
        d_c=tuple(sn.c - st.c for st, sn in zip(ts.sensors, nm.sensors)),
        d_q=nm.q - ts.q,
        d_r=tuple(sn.r - st.r for st, sn in zip(ts.sensors, nm.sensors)),
        scale=max(float(np.linalg.norm(m)) for m in (nm.a, *(sn.c for sn in nm.sensors))),
    )


@dataclass(frozen=True, eq=False)
class StackedMatrices:
    """Stacked forms of a true system and a nominal model; ``_nom`` fields are the nominal's."""

    c_stack: np.ndarray
    r_diag: np.ndarray
    a_diag: np.ndarray
    c_stack_nom: np.ndarray
    r_diag_nom: np.ndarray
    a_diag_nom: np.ndarray


def stack(ts: TrueSystem, nm: NominalModel) -> StackedMatrices:
    _check_pair(ts, nm)
    return StackedMatrices(ts.c_stack, ts.r_diag, ts.a_diag, nm.c_stack, nm.r_diag, nm.a_diag)


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(n-1)B] side by side."""
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


def _full_rank(m: np.ndarray, n: int, rtol: float = 1e-9) -> bool:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return False
    return int(np.sum(s > rtol * s[0])) >= n


@dataclass(frozen=True)
class AssumptionReport:
    """Per-assumption verdicts for one (true system, nominal model, topology) triple."""

    connected: bool
    observable: bool
    controllable: bool
    mismatch_zero: bool
    true_a_hurwitz: bool

    @property
    def mismatch_ok(self) -> bool:
        # With zero mismatch feedthrough no condition on the true A is needed;
        # otherwise the true A must be Hurwitz for steady-state indices to exist.
        return self.mismatch_zero or self.true_a_hurwitz

    @property
    def all_ok(self) -> bool:
        return self.connected and self.observable and self.controllable and self.mismatch_ok

    def failures(self) -> list[str]:
        out = []
        if not self.connected:
            out.append("network is not connected or has fewer than two nodes")
        if not self.observable:
            out.append("nominal pair (A, stacked C) is not observable")
        if not self.controllable:
            out.append("nominal pair (A, Q^(1/2)) is not controllable")
        if not self.mismatch_ok:
            out.append("mismatch feedthrough is nonzero and the true A is not Hurwitz")
        return out


def validate_assumptions(ts: TrueSystem, nm: NominalModel, topo: Topology) -> AssumptionReport:
    """Evaluate the structural assumptions of the mismatch analysis.

    The mismatch feedthrough is zero when the state and measurement matrices
    are exact, and otherwise when a filter built at gain 1 says so (the
    feedthrough depends on the gains only, not on the consensus gain); it
    counts as nonzero when no filter gains are computable.
    The network check needs at least two nodes, as the gain threshold does.
    Observability of ``(A, C)`` is checked as controllability of ``(A', C')``.
    Rank checks use a relative singular-value cutoff of 1e-9, and the true
    state matrix is judged by :func:`~dckf.filtering.is_hurwitz`.
    """
    from .filtering import build_filter, is_hurwitz  # filtering imports this module
    from .solvers import SolverError

    _check_pair(ts, nm)
    if topo.node_count != ts.sensor_count:
        raise ValueError(
            f"topology has {topo.node_count} nodes but the system has {ts.sensor_count} sensors"
        )
    observable = _full_rank(controllability_matrix(nm.a.T, nm.c_stack.T), nm.n)
    controllable = _full_rank(controllability_matrix(nm.a, matkit.sqrtm_psd(nm.q)), nm.n)
    try:
        mismatch_zero = (
            deviations(ts, nm).state_matrix_exact or build_filter(nm, ts, topo, 1.0).mismatch_is_zero
        )
    except SolverError:
        mismatch_zero = False
    return AssumptionReport(
        connected=topo.node_count >= 2 and is_connected(topo),
        observable=observable,
        controllable=controllable,
        mismatch_zero=mismatch_zero,
        true_a_hurwitz=is_hurwitz(ts.a),
    )

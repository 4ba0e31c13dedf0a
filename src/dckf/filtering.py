"""Construction of the nominal distributed filter.

Each sensor runs a steady-gain observer built from the nominal model and
couples its estimate to its neighbors through a consensus term weighted by
the consensus gain.  The stacked closed-loop matrix determines every
performance index downstream, and the consensus-gain threshold guarantees
it is Hurwitz for any larger gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import matkit
from .graph import Topology, laplacian, laplacian_spectrum
from .model import NominalModel, TrueSystem, _check_pair, negligible
from .solvers import SchurForm

__all__ = [
    "FilterRealization",
    "build_filter",
    "gamma_threshold",
    "is_hurwitz",
]


_HURWITZ_RTOL = 1e-9


def is_hurwitz(m: "np.ndarray | SchurForm") -> bool:
    """True when every eigenvalue has real part below ``-1e-9 * ||m||_2``.

    A marginal matrix therefore reports as not Hurwitz.  ``m`` may be a
    :class:`~dckf.solvers.SchurForm`, whose eigenvalues and norm are then reused.
    """
    form = SchurForm.of(m)
    return form.spectral_abscissa < -_HURWITZ_RTOL * max(form.norm2, 1e-300)


def gamma_threshold(
    nm: NominalModel,
    topo: Topology,
    lambda_override: float | None = None,
) -> float:
    """Consensus-gain threshold above which the closed loop is Hurwitz.

    ``lambda_override`` substitutes a (lower bound on the) algebraic
    connectivity, which covers the case of an imprecisely known topology.
    Raises when the steady filter covariance is singular or when the
    connectivity is not positive.
    """
    p_inf = nm.p_inf
    if lambda_override is not None:
        connectivity = float(lambda_override)
    else:
        connectivity = laplacian_spectrum(topo).algebraic_connectivity
    if connectivity <= 0.0:
        raise ValueError("algebraic connectivity must be positive (connected graph or override)")
    p_inv = matkit.eigh_psd_inverse(p_inf)
    gram = matkit.symmetrize(nm.c_stack.T @ np.linalg.solve(nm.r_diag, nm.c_stack))
    drift_term = float(np.linalg.norm(p_inv @ nm.a + nm.a.T @ p_inv, 2))
    n_sensors = nm.sensor_count
    mix = matkit.symmetrize(p_inv @ nm.q @ p_inv + gram)
    curvature = (
        4.0
        * n_sensors**2
        * float(np.linalg.eigvalsh(matkit.eigh_psd_inverse(mix))[-1])
        * float(np.linalg.eigvalsh(gram)[-1])
    )
    return (drift_term + curvature) / connectivity


@dataclass(frozen=True)
class FilterRealization:
    """One concrete distributed filter.

    ``closed_loop`` is the stacked error-dynamics matrix at the working
    consensus gain ``gamma``; ``closed_loop_ref`` is the same matrix at the
    reference gain ``gamma_ref`` (used by the difference-norm bound).
    ``mismatch_diag`` collects the per-sensor feedthrough of the modeling
    error onto the estimation error; it is exactly zero when the state and
    measurement matrices are exact.  ``gamma_min`` is the Hurwitz threshold
    (None when the steady covariance is singular and no threshold exists).
    """

    p_inf: np.ndarray
    gains: tuple[np.ndarray, ...]
    gain_diag: np.ndarray
    feedback_diag: np.ndarray
    mismatch_diag: np.ndarray
    closed_loop: np.ndarray
    closed_loop_ref: np.ndarray
    gamma: float
    gamma_min: float | None
    gamma_ref: float
    lap: np.ndarray
    nominal: NominalModel

    @property
    def n(self) -> int:
        return self.p_inf.shape[0]

    @property
    def sensor_count(self) -> int:
        return self.lap.shape[0]

    @property
    def mismatch_is_zero(self) -> bool:
        return negligible(
            float(np.linalg.norm(self.mismatch_diag)), float(np.linalg.norm(self.nominal.a))
        )

    @cached_property
    def closed_loop_schur(self) -> SchurForm:
        """Real Schur factorization of ``closed_loop``, shared by every solve and check in it.

        It is computed on first use; :meth:`with_gamma` returns a new object,
        which starts without one.
        """
        return SchurForm.of(self.closed_loop)

    def closed_loop_at(self, gamma: float) -> np.ndarray:
        """Closed-loop matrix rebuilt at another consensus gain."""
        return self.feedback_diag - gamma * matkit.kron(self.lap, self.p_inf)

    def with_gamma(self, gamma: float) -> "FilterRealization":
        """Same filter at a different working consensus gain."""
        if gamma <= 0.0:
            raise ValueError("consensus gain must be positive")
        return replace(self, gamma=float(gamma), closed_loop=self.closed_loop_at(gamma))


def build_filter(
    nm: NominalModel,
    ts: TrueSystem,
    topo: Topology,
    gamma: float,
    gamma_ref: float | None = None,
) -> FilterRealization:
    """Build the distributed filter for a nominal model on a topology.

    ``gamma`` is the working consensus gain.  ``gamma_ref`` defaults to
    1.05 times the Hurwitz threshold when the threshold is computable and
    to ``gamma`` otherwise; it never exceeds ``gamma``.
    """
    if gamma <= 0.0:
        raise ValueError("consensus gain must be positive")
    _check_pair(ts, nm)
    if topo.node_count != nm.sensor_count:
        raise ValueError(
            f"topology has {topo.node_count} nodes, model has {nm.sensor_count} sensors"
        )
    p_inf = nm.p_inf
    gains = tuple(nm.sensor_count * np.linalg.solve(s.r, s.c @ p_inf).T for s in nm.sensors)
    feedback_diag = matkit.block_diag([nm.a - k @ s.c for k, s in zip(gains, nm.sensors)])
    mismatch = [
        ts.a - nm.a - k @ (st.c - sn.c)
        for k, st, sn in zip(gains, ts.sensors, nm.sensors)
    ]
    lap = laplacian(topo)
    coupling = matkit.kron(lap, p_inf)
    gamma_min: float | None
    try:
        gamma_min = gamma_threshold(nm, topo)
    except (np.linalg.LinAlgError, ValueError):
        gamma_min = None
    if gamma_ref is None:
        gamma_ref = 1.05 * gamma_min if gamma_min is not None else gamma
        gamma_ref = min(gamma_ref, gamma)
    elif gamma_ref > gamma:
        raise ValueError("reference gain must not exceed the working gain")
    return FilterRealization(
        p_inf=p_inf,
        gains=gains,
        gain_diag=matkit.block_diag(list(gains)),
        feedback_diag=feedback_diag,
        mismatch_diag=matkit.block_diag(mismatch),
        closed_loop=feedback_diag - gamma * coupling,
        closed_loop_ref=feedback_diag - gamma_ref * coupling,
        gamma=float(gamma),
        gamma_min=gamma_min,
        gamma_ref=float(gamma_ref),
        lap=lap,
        nominal=nm,
    )

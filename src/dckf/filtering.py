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
import scipy.linalg

from . import matkit
from .graph import Topology, algebraic_connectivity, laplacian
from .model import NominalModel, TrueSystem, _check_pair, _read_only, negligible
from .solvers import _HURWITZ_RTOL, SchurForm

__all__ = [
    "FilterRealization",
    "build_filter",
    "gamma_threshold",
    "is_hurwitz",
]


def is_hurwitz(m: "np.ndarray | SchurForm") -> bool:
    """True when every eigenvalue has real part below ``-1e-9 * ||m||_2``.

    A marginal matrix therefore reports as not Hurwitz.  ``m`` may be a
    :class:`~dckf.solvers.SchurForm`, whose eigenvalues are then reused.  The
    2-norm is taken only when the verdict depends on it
    (:meth:`~dckf.solvers.SchurForm.band_norm`).
    """
    form = SchurForm.of(m)
    return form.spectral_abscissa < -_HURWITZ_RTOL * max(form.band_norm(), 1e-300)


def gamma_threshold(nm: NominalModel, topo: Topology) -> float:
    """Consensus-gain threshold above which the closed loop is Hurwitz.

    The threshold scales as ``1 / lambda_2`` in the algebraic connectivity of
    ``topo``.  Raises ``np.linalg.LinAlgError`` when the steady filter
    covariance is singular and ``ValueError`` when the topology is not
    connected (see :func:`~dckf.graph.algebraic_connectivity`).
    """
    p_inf = nm.p_inf
    connectivity = algebraic_connectivity(topo)
    p_inv = matkit.eigh_psd_inverse(p_inf)
    gram = matkit.information_gram(nm.c_stack, nm.r_diag)
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


@dataclass(frozen=True, eq=False)
class FilterRealization:
    """One concrete distributed filter.

    ``coupling = kron(lap, nominal.p_inf)`` is the consensus term (read-only) and
    ``closed_loop_at(g) = feedback_diag - g * coupling`` the stacked
    error-dynamics matrix at gain ``g``: ``closed_loop`` at the working gain
    ``gamma``, ``closed_loop_ref`` at the reference gain ``gamma_ref`` (used
    by the difference-norm bound).  ``mismatch_diag`` collects the per-sensor
    feedthrough of the modeling error onto the estimation error; it is
    exactly zero when the state and measurement matrices are exact.
    ``gamma_min`` is the Hurwitz threshold (None when the steady covariance
    is singular and no threshold exists).
    """

    gain_diag: np.ndarray
    feedback_diag: np.ndarray
    mismatch_diag: np.ndarray
    coupling: np.ndarray
    gamma: float
    gamma_min: float | None
    gamma_ref: float
    lap: np.ndarray
    nominal: NominalModel

    @property
    def mismatch_is_zero(self) -> bool:
        return negligible(
            float(np.linalg.norm(self.mismatch_diag)), float(np.linalg.norm(self.nominal.a))
        )

    @cached_property
    def closed_loop(self) -> np.ndarray:
        return self.closed_loop_at(self.gamma)

    @cached_property
    def closed_loop_ref(self) -> np.ndarray:
        return self.closed_loop_at(self.gamma_ref)

    @cached_property
    def closed_loop_schur(self) -> SchurForm:
        """Real Schur factorization of ``closed_loop``, shared by every solve and check in it.

        It is computed on first use, like ``closed_loop`` and ``closed_loop_ref``;
        :meth:`with_gamma` returns a new object, which starts without them.
        """
        return SchurForm.of(self.closed_loop)

    def closed_loop_at(self, gamma: float) -> np.ndarray:
        """Closed-loop matrix rebuilt at another consensus gain."""
        return self.feedback_diag - gamma * self.coupling

    def with_gamma(self, gamma: float) -> "FilterRealization":
        """Same filter at a different working consensus gain."""
        if gamma <= 0.0:
            raise ValueError("consensus gain must be positive")
        return replace(self, gamma=float(gamma))


def build_filter(
    nm: NominalModel,
    ts: TrueSystem,
    topo: Topology,
    gamma: float,
) -> FilterRealization:
    """Build the distributed filter for a nominal model on a topology.

    ``gamma`` is the working consensus gain.  The reference gain
    ``gamma_ref`` is 1.05 times the Hurwitz threshold when the threshold is
    computable and ``gamma`` otherwise, and never exceeds ``gamma``.
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
    feedback_diag = scipy.linalg.block_diag(*[nm.a - k @ s.c for k, s in zip(gains, nm.sensors)])
    mismatch = [
        ts.a - nm.a - k @ (st.c - sn.c)
        for k, st, sn in zip(gains, ts.sensors, nm.sensors)
    ]
    lap = laplacian(topo)
    coupling = _read_only(np.kron(lap, p_inf))
    gamma_min: float | None
    try:
        gamma_min = gamma_threshold(nm, topo)
    except (np.linalg.LinAlgError, ValueError):
        gamma_min = None
    gamma_ref = min(1.05 * gamma_min if gamma_min is not None else gamma, gamma)
    return FilterRealization(
        gain_diag=scipy.linalg.block_diag(*gains),
        feedback_diag=feedback_diag,
        mismatch_diag=scipy.linalg.block_diag(*mismatch),
        coupling=coupling,
        gamma=float(gamma),
        gamma_min=gamma_min,
        gamma_ref=float(gamma_ref),
        lap=lap,
        nominal=nm,
    )

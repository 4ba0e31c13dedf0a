"""Performance analysis: trace bounds, divergence certificates, index ordering.

Everything here evaluates the actual estimation error covariance through
quantities the designer can compute: the nominal performance index, the
Frobenius norms of the parameter deviations, and the spectrum of the
closed-loop matrix.

The trace-gap radius needs two vector norms involving the inverse of the
Kronecker sum of the closed loop with itself.  That matrix is never
materialized: with X solving  acl' X + X acl = I  one has

    || vec(I)' kronsum(acl)^{-1} ||_2            == ||X||_F
    || vec(I)' kronsum(acl)^{-1} (K (x) K) ||_2  == ||K' X K||_F

so a single Lyapunov solve of the closed-loop size, on the Schur factorization
the filter already carries, provides both factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matkit
from .filtering import FilterRealization, is_hurwitz
from .model import Deviations, HypothesisError, TrueSystem, _check_pair
from .solvers import (
    SchurForm, SteadyStateResult, _covariance_flow, _neutral_eigenpairs, solve_lyapunov
)

__all__ = [
    "BoundsReport",
    "deviation_gap",
    "trace_bounds",
    "nominal_trace_floor",
    "AsymptoticFit",
    "asymptotic_fit",
    "DivergenceCertificate",
    "divergence_test",
    "RelationReport",
    "relation_analysis",
]


def _inverse_vec_norms(
    closed_loop: "np.ndarray | SchurForm", gain_diag: np.ndarray
) -> tuple[float, float]:
    """The two trace-gap factors via one Lyapunov solve (see module docstring)."""
    form = SchurForm.of(closed_loop)
    x = solve_lyapunov(form.T, -np.eye(form.matrix.shape[0]))
    plain = float(np.linalg.norm(x))
    weighted = float(np.linalg.norm(gain_diag.T @ x @ gain_diag))
    return plain, weighted


def _gamma_gate(fr: FilterRealization, what: str) -> None:
    if fr.gamma < fr.gamma_ref - 1e-12 * max(1.0, fr.gamma_ref):
        raise HypothesisError(f"{what} requires a consensus gain at or above the reference gain")
    if not is_hurwitz(fr.closed_loop_schur):
        raise HypothesisError(f"{what} requires a Hurwitz closed-loop matrix")


@dataclass(frozen=True)
class BoundsReport:
    """Steady-state trace bounds driven by the deviation norms.

    ``gap`` is the radius around the nominal trace that is guaranteed to
    contain the actual error-covariance trace:
    ``max(0, tr_nominal - gap) <= tr_error <= tr_nominal + gap``.
    """

    tr_nominal: float
    tr_error: float
    gap: float
    upper: float
    lower: float
    tr_nominal_floor: float

    @property
    def sandwich_holds(self) -> bool:
        return self.lower <= self.tr_error <= self.upper


def deviation_gap(
    fr: FilterRealization,
    dev: Deviations,
    plain: float,
    weighted: float,
) -> float:
    """Trace-gap radius from the deviation norms and the two trace-gap factors.

    ``plain`` and ``weighted`` are the values of the two vector norms from
    the module docstring (exact via a Lyapunov solve, or approximated by
    their asymptotic fit).  The radius divides by two margins, one for the
    cross-term and one for the state-moment norm bound; it is refused with
    :class:`HypothesisError` when either margin is numerically zero.  The
    deviation coefficient inside the cross-term margin is
    sqrt(state dim * sensor count), as the bound's derivation gives.
    """
    nm = fr.nominal
    n, n_sensors = nm.n, nm.sensor_count
    big = n * n_sensors
    d_a_diag_norm = np.sqrt(n_sensors) * dev.d_a_norm

    margin_scale = matkit.kron_sum_fro_norm(fr.closed_loop, nm.a_diag)
    cross_margin = margin_scale - np.sqrt(big) * d_a_diag_norm
    state_margin = (
        matkit.kron_sum_fro_norm(nm.a_diag, nm.a_diag) - 2.0 * np.sqrt(big) * d_a_diag_norm
    )
    if abs(cross_margin) <= 1e-9 * margin_scale or abs(state_margin) <= 1e-9 * margin_scale:
        raise HypothesisError("a norm-bound margin is numerically zero; the bound is undefined")

    q_nom_norm = float(np.linalg.norm(nm.q))
    state_norm_bound = n_sensors * (q_nom_norm + dev.d_q_norm) / abs(state_margin)
    mismatch_norm = float(np.linalg.norm(fr.mismatch_diag))
    cross_norm_bound = (
        np.sqrt(big) * mismatch_norm * state_norm_bound
        + n_sensors * q_nom_norm
        + n_sensors * dev.d_q_norm
    ) / abs(cross_margin)

    meas_dev = np.sqrt(sum(v**2 for v in dev.d_r_norms))
    gap = weighted * meas_dev + plain * (
        n_sensors * dev.d_q_norm + 2.0 * mismatch_norm * cross_norm_bound
    )
    return float(gap)


def trace_bounds(
    fr: FilterRealization,
    ss: SteadyStateResult,
    dev: Deviations,
) -> BoundsReport:
    """Bound the steady error-covariance trace around the nominal trace.

    The two trace-gap factors are computed exactly through the Lyapunov
    reformulation, and :func:`deviation_gap` turns them into the radius.
    """
    _gamma_gate(fr, "trace bound")
    plain, weighted = _inverse_vec_norms(fr.closed_loop_schur, fr.gain_diag)
    gap = deviation_gap(fr, dev, plain, weighted)

    tr_nominal = float(np.trace(ss.nominal_cov))
    tr_error = float(np.trace(ss.error_cov))
    return BoundsReport(
        tr_nominal=tr_nominal,
        tr_error=tr_error,
        gap=gap,
        upper=tr_nominal + gap,
        lower=max(0.0, tr_nominal - gap),
        tr_nominal_floor=nominal_trace_floor(fr),
    )


def nominal_trace_floor(fr: FilterRealization) -> float:
    """Lower bound on the steady nominal-index trace of a filter.

    The bound separates the consensus gain: the denominator grows linearly
    in (gamma - gamma_ref), so the floor decays to zero as the gain grows.
    """
    _gamma_gate(fr, "nominal trace floor")
    nm = fr.nominal
    drive_trace = float(
        np.trace(fr.gain_diag @ nm.r_diag @ fr.gain_diag.T)
    ) + nm.sensor_count * float(np.trace(nm.q))
    denom = 2.0 * float(np.trace(-fr.closed_loop_ref)) + 2.0 * (
        fr.gamma - fr.gamma_ref
    ) * float(np.trace(fr.lap)) * float(np.trace(nm.p_inf))
    return drive_trace / denom


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of the squared trace-gap factors against the gain.

    Both squared factors follow ``a + b/gamma + c/gamma^2`` up to a cubic
    remainder.  The limits ``a1`` and ``a2`` are positive; ``b`` and ``c``
    may have either sign.  ``fit_residual`` is ``1 - R^2`` of the
    plain-factor fit.
    """

    a1: float
    b1: float
    c1: float
    a2: float
    b2: float
    c2: float
    fit_residual: float


def asymptotic_fit(fr: FilterRealization) -> AsymptoticFit:
    """Fit the squared trace-gap factors of a filter to a + b/g + c/g^2 over 20 gains.

    The gains span 2 to 200 times the filter's Hurwitz threshold, evenly on a
    log scale.  Only the gain-independent parts of ``fr`` are used; its
    working gain is ignored.
    """
    if fr.gamma_min is None:
        raise HypothesisError("the fit needs a consensus-gain threshold; this filter has none")
    grid = np.logspace(np.log10(2.0 * fr.gamma_min), np.log10(200.0 * fr.gamma_min), 20)

    y_plain = np.empty(grid.size)
    y_gain = np.empty(grid.size)
    for k, g in enumerate(grid):
        form = SchurForm.of(fr.closed_loop_at(g))
        if not is_hurwitz(form):
            raise HypothesisError(f"closed loop is not Hurwitz at gain {g:.6g}")
        plain, weighted = _inverse_vec_norms(form, fr.gain_diag)
        y_plain[k] = plain**2
        y_gain[k] = weighted**2

    design = np.column_stack([np.ones_like(grid), 1.0 / grid, 1.0 / grid**2])

    coef1, coef2 = (np.linalg.lstsq(design, y, rcond=None)[0] for y in (y_plain, y_gain))
    ss_res = float(np.sum((y_plain - design @ coef1) ** 2))
    ss_tot = float(np.sum((y_plain - y_plain.mean()) ** 2))
    return AsymptoticFit(
        a1=float(coef1[0]),
        b1=float(coef1[1]),
        c1=float(coef1[2]),
        a2=float(coef2[0]),
        b2=float(coef2[1]),
        c2=float(coef2[2]),
        fit_residual=ss_res / ss_tot if ss_tot > 0 else 0.0,
    )


# ---------------------------------------------------------------------------
# Divergence certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DivergenceCertificate:
    """A neutral mode the nominal noise model is blind to.

    ``freq`` is the imaginary part of the neutral eigenvalue of the nominal
    state matrix (transposed); ``vector`` the associated unit eigenvector
    (complex in general).  ``aug_residual`` certifies that the replicated
    vector is an eigenvector of the stacked closed loop.  ``will_diverge``
    records whether the true process noise actually excites the mode, in
    which case the projected error variance grows linearly at
    ``growth_rate`` per unit time.
    """

    freq: float
    vector: np.ndarray
    aug_residual: float
    will_diverge: bool
    growth_rate: float


def _canonical_phase(e: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(e)))
    pivot = e[idx]
    e = e * (np.conj(pivot) / abs(pivot))
    e = e / np.linalg.norm(e)
    if np.linalg.norm(e.imag) <= 1e-12:
        e = e.real.astype(complex)
    return e


def divergence_test(fr: FilterRealization, ts: TrueSystem) -> tuple[DivergenceCertificate, ...]:
    """Search for neutral modes that defeat the nominal noise model of a filter.

    Certificates pair an imaginary-axis eigenvalue of the transposed nominal
    state matrix with an eigenvector in the null space of the nominal
    process noise.  Each is verified against the filter's stacked closed
    loop at its working gain; conjugate pairs are reported once with
    nonnegative frequency.  An empty tuple means this criterion detects no
    divergence.
    """
    nm = fr.nominal
    _check_pair(ts, nm)
    a_scale = max(np.linalg.norm(nm.a, 2), 1e-300)
    q_true_scale = max(np.linalg.norm(ts.q, 2), 1e-300)

    candidates: list[tuple[float, np.ndarray]] = []
    for w, v in _neutral_eigenpairs(nm.a, nm.q):
        if w.imag < -1e-8 * a_scale:
            continue
        e = _canonical_phase(v)
        freq = max(float(w.imag), 0.0)
        if any(
            abs(freq - f0) <= 1e-8 * (1.0 + a_scale) and abs(np.vdot(e0, e)) > 1.0 - 1e-8
            for f0, e0 in candidates
        ):
            continue
        candidates.append((freq, e))

    n_sensors = ts.sensor_count
    ones = np.ones(n_sensors)
    certificates = []
    for freq, e in candidates:
        stacked = np.kron(ones, e)
        resid = float(
            np.linalg.norm(fr.closed_loop.T @ stacked - 1j * freq * stacked)
        )
        excitation = float((np.conj(e) @ ts.q @ e).real)
        will_diverge = bool(np.linalg.norm(ts.q @ e) > 1e-8 * q_true_scale)
        certificates.append(
            DivergenceCertificate(
                freq=freq,
                vector=e,
                aug_residual=resid,
                will_diverge=will_diverge,
                growth_rate=n_sensors**2 * excitation,
            )
        )
    return tuple(certificates)


# ---------------------------------------------------------------------------
# Ordering of the nominal index against the error covariance
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelationReport:
    """Evolution of the gap between the nominal index and the error covariance.

    ``mismatch_drive`` is the constant matrix forcing the gap dynamics
    (gain-weighted measurement-noise deviation plus the replicated
    process-noise deviation); its sign classification decides whether the
    nominal index brackets the error covariance from above or below.
    ``gap`` holds the exactly stepped gap trajectory, ``gap_min_eig`` and
    ``gap_norm`` each record's least eigenvalue and spectral norm, and
    ``gap_norm_bound`` the spectral-norm bound from the reference-gain
    logarithmic norm (the consensus gain above the reference has no effect
    on it).
    """

    time: np.ndarray
    mismatch_drive: np.ndarray
    drive_sign: str
    gap: np.ndarray
    gap_min_eig: np.ndarray
    gap_norm: np.ndarray
    gap_norm_bound: np.ndarray
    log_norm_rate: float
    ordering: str


_ORDERING_RTOL = 1e-8


def _classify_sign(m: np.ndarray) -> str:
    w = np.linalg.eigvalsh(matkit.symmetrize(m))
    tol = 1e-10 * max(-w[0], w[-1])
    if w[0] >= -tol and w[-1] <= tol:
        return "zero"
    if w[0] >= -tol:
        return "psd"
    if w[-1] <= tol:
        return "nsd"
    return "indefinite"


def relation_analysis(
    fr: FilterRealization,
    dev: Deviations,
    gap_init: np.ndarray,
    grid,
) -> RelationReport:
    """Analyze the gap (nominal index minus error covariance) over time.

    Requires exact state and measurement matrices (only the noise
    intensities may deviate).  The gap obeys a Lyapunov-type ODE driven by
    the constant mismatch-drive matrix.  ``gap`` steps it exactly with the
    shared covariance flow of :mod:`dckf.solvers`, which forms one matrix
    exponential per distinct span of the grid.  ``gap_norm_bound`` grows as
    ``exp(log_norm_rate * t)``; where that overflows, the bound is +inf.
    """
    if not dev.state_matrix_exact:
        raise HypothesisError(
            "relation analysis assumes exact state and measurement matrices "
            "(only noise-intensity deviations allowed)"
        )
    _gamma_gate(fr, "relation analysis")

    d_r_diag = scipy.linalg.block_diag(*dev.d_r)
    ones = np.ones((fr.nominal.sensor_count, fr.nominal.sensor_count))
    drive = matkit.symmetrize(
        fr.gain_diag @ d_r_diag @ fr.gain_diag.T + np.kron(ones, dev.d_q)
    )
    grid = np.asarray(grid, dtype=float)
    out = _covariance_flow(fr.closed_loop, drive, gap_init, grid)
    gap = out[0]

    eigs = np.linalg.eigvalsh(out)
    norms = np.linalg.norm(out, 2, axis=(1, 2))

    rate = 2.0 * matkit.log_norm(fr.closed_loop_ref)
    delta_t = grid - grid[0]
    drive_norm = float(np.linalg.norm(drive, 2))
    init_norm = float(np.linalg.norm(gap, 2))
    # A large rate overflows the bound to +inf, which is its value.
    with np.errstate(over="ignore"):
        growth = np.exp(rate * delta_t)
        integral = (growth - 1.0) / rate if abs(rate) > 1e-14 else delta_t
        bound = np.zeros_like(delta_t)
        for norm, factor in ((init_norm, growth), (drive_norm, integral)):
            if norm:  # a zero norm adds nothing, where 0 * inf would be NaN
                bound = bound + norm * factor

    sign = _classify_sign(drive)
    init_sign = _classify_sign(gap)
    scale = max(np.max(norms), 1.0)
    if sign in ("psd", "zero") and init_sign in ("psd", "zero"):
        ordering = "nominal_upper" if np.all(eigs[:, 0] >= -_ORDERING_RTOL * scale) else "violated"
    elif sign in ("nsd", "zero") and init_sign in ("nsd", "zero"):
        ordering = "nominal_lower" if np.all(eigs[:, -1] <= _ORDERING_RTOL * scale) else "violated"
    else:
        ordering = "inconclusive"

    return RelationReport(
        time=grid,
        mismatch_drive=drive,
        drive_sign=sign,
        gap=out,
        gap_min_eig=eigs[:, 0],
        gap_norm=norms,
        gap_norm_bound=bound,
        log_norm_rate=float(rate),
        ordering=ordering,
    )

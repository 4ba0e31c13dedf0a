"""Riccati, Lyapunov/Sylvester, and matrix-ODE propagation services.

The algebraic Riccati solver works on the filter-form equation

    A P + P A' + Q - P C' R^{-1} C P = 0

via the stable invariant subspace of the Hamiltonian matrix, taken from one
ordered real Schur factorization.  Nominal models
whose process noise is blind to a neutral mode of the state matrix (an
imaginary-axis eigenvalue of A' whose eigenvector lies in the null space of
Q) make the Hamiltonian marginal; those modes are deflated exactly, which
yields the semi-stabilizing solution the distributed filter actually uses in
that situation.

Lyapunov/Sylvester equations are solved by the Bartels-Stewart method on
real Schur forms: each coefficient matrix is factored once (:class:`SchurForm`)
and every equation in it or its transpose is solved on those factors.  The
quasi-triangular equation is solved recursively (Jonsson and Kagstrom's
blocked form): split the larger side, solve the independent half, remove its
contribution from the other half with one matmul, recurse, and hand blocks of
at most 32 rows and columns to LAPACK ``trsyl``.  A Lyapunov equation with a
symmetric right-hand side solves one off-diagonal block per level.  Equations
of at most 32 rows and columns, every preset's among them, are one ``trsyl``
call on the whole factors.  The closed loop of a filter carries its own
factorization, so the steady-state solves, the trace-gap factors and the
stability and solvability checks share it.  Each equation is solved once and
judged by one residual test relative to its own scale,
``||a x + x b - c||_F <= 1e-14 ((||a||_F + ||b||_F) ||x||_F + ||c||_F)``.

The covariance ODEs ``dX/dt = A X + X A' + W`` are stepped exactly:
``X(t + h) = Phi X(t) Phi' + Q_h`` with ``Phi = e^{A h}`` and ``Q_h`` from
Van Loan's block exponential, taken at ``h / 2^k`` and squared back up
(scaling and squaring): no step size is involved and marginal closed loops
need no special case; :func:`_covariance_flow` says how stiff ``A`` may be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from . import matkit
from .model import NominalModel, TrueSystem, _check_pair

if TYPE_CHECKING:  # pragma: no cover
    from .filtering import FilterRealization

__all__ = [
    "SolverError",
    "CareSolutionError",
    "SingularEquationError",
    "NotHurwitzError",
    "SchurForm",
    "solve_care",
    "solve_lyapunov",
    "solve_sylvester",
    "SteadyStateResult",
    "steady_state",
    "TrajectoryInit",
    "default_initial_state",
    "CovarianceTrajectory",
    "propagate",
]


class SolverError(RuntimeError):
    """Base class for solver failures."""


class CareSolutionError(SolverError):
    """No computable Riccati solution (Hamiltonian on the imaginary axis, etc.)."""


class SingularEquationError(SolverError):
    """Lyapunov/Sylvester spectra violate the unique-solvability condition."""


class NotHurwitzError(SolverError):
    """An operation requiring a Hurwitz matrix received an unstable one."""


# ---------------------------------------------------------------------------
# Sylvester / Lyapunov
# ---------------------------------------------------------------------------


# The share of ||m||_2 by which a spectral abscissa must clear zero in both
# Hurwitz checks, ``filtering.is_hurwitz`` and :func:`_hurwitz_guard`.
_HURWITZ_RTOL = 1e-9


def _no_sort(wr, wi):
    """``gees`` select callback; it is required even when nothing is sorted."""
    return None


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Real Schur factorization ``matrix = z @ op(t) @ z.T`` of one square matrix.

    ``t`` is quasi-upper-triangular and ``z`` orthogonal; ``op`` transposes
    ``t`` when ``transposed`` is set, so ``form.T`` factors ``matrix.T`` with
    the same arrays.  Every Sylvester/Lyapunov equation in the matrix or its
    transpose is solved on these factors, and the eigenvalues and spectral
    abscissa that the solvability and stability checks need are read from
    the same object.  The spectral norm ``norm2`` costs an SVD, so the
    stability checks read :meth:`band_norm`, which takes it only when their
    verdict depends on it.  Build one with :meth:`of`.
    """

    matrix: np.ndarray
    t: np.ndarray
    z: np.ndarray
    eigvals: np.ndarray
    transposed: bool = False
    # Values of the eigenvalues alone, computed once and shared with ``T``.
    _spectral: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, m: "np.ndarray | SchurForm") -> "SchurForm":
        """Factor ``m`` (LAPACK ``gees``); a :class:`SchurForm` is returned as is."""
        if isinstance(m, SchurForm):
            return m
        m = np.atleast_2d(np.asarray(m, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise np.linalg.LinAlgError("matrix has non-finite entries")
        gees = scipy.linalg.lapack.dgees
        lwork = int(gees(_no_sort, m, lwork=-1)[-2][0])
        t, _, wr, wi, z, _, info = gees(_no_sort, m, lwork=max(lwork, 1))
        if info != 0:
            raise SolverError(f"real Schur factorization failed (LAPACK info {info})")
        return cls(m, t, z, wr + 1j * wi)

    @property
    def T(self) -> "SchurForm":
        return SchurForm(
            self.matrix.T, self.t, self.z, self.eigvals, not self.transposed, self._spectral
        )

    @property
    def spectral_abscissa(self) -> float:
        return float(np.max(self.eigvals.real))

    @property
    def self_gap(self) -> float:
        """``min |w_i + w_j|`` over every pair of eigenvalues, formed once per factorization.

        It is the solvability gap of every equation in the matrix and its
        transpose, the Lyapunov equations among them.
        """
        if "self_gap" not in self._spectral:
            w = self.eigvals
            self._spectral["self_gap"] = np.min(np.abs(w[:, None] + w[None, :]))
        return self._spectral["self_gap"]

    @cached_property
    def norm2(self) -> float:
        """Spectral norm of ``matrix``, computed once per factorization."""
        return float(np.linalg.norm(self.matrix, 2))

    def band_norm(self) -> float:
        """The norm to weigh the spectral abscissa against in a Hurwitz check.

        The checks compare ``alpha`` with ``-rtol ||m||_2`` or ``rtol ||m||_2``
        (``rtol = 1e-9``).  Since ``||m||_2 <= ||m||_F``, once
        ``|alpha| > 2 rtol ||m||_F`` both norms give the same verdict (the
        factor 2 covers the rounding of either norm), and the Frobenius norm
        is returned.  Only inside that band is the SVD behind ``norm2`` taken.
        """
        fro = float(np.linalg.norm(self.matrix))
        if abs(self.spectral_abscissa) > 2.0 * _HURWITZ_RTOL * max(fro, 1e-300):
            return fro
        return self.norm2


def _sylvester_spectra_check(a: SchurForm, b: SchurForm) -> None:
    wa, wb = a.eigvals, b.eigvals
    scale = max(np.max(np.abs(wa), initial=0.0) + np.max(np.abs(wb), initial=0.0), 1e-300)
    # A form against itself or its transpose shares the eigenvalue array.
    gap = a.self_gap if wa is wb else np.min(np.abs(wa[:, None] + wb[None, :]))
    if gap <= 1e-10 * scale:
        raise SingularEquationError(
            f"eigenvalue sums come within {gap:.3e} of zero (scale {scale:.3e}); "
            "the equation has no unique solution"
        )


# Largest side of a block that the recursive solve hands to one unblocked
# ``trsyl`` call.  Smaller blocks pay more Python and call overhead than the
# matmuls save; larger ones leave more of the work in level-2 LAPACK.
_TRSYL_BLOCK = 32

# A solve is accepted when ||a x + x b - c||_F is at most this share of
# (||a||_F + ||b||_F) ||x||_F + ||c||_F, the scale that the rounding error of
# Bartels-Stewart grows with (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 16), so stiff gains meet it as mild ones do.  The largest
# first-solve share measured on presets and generated networks is 8.2e-16.
_RESIDUAL_RTOL = 1e-14

# A Lyapunov equation whose right-hand side has an antisymmetric part below
# this share of its norm is solved as symmetric: by the symmetric recursion,
# with a symmetrized solution.  The products that build a symmetric drive
# leave at most about 1e-16; the part the recursion ignores stays under a
# tenth of the residual test.
_SYMMETRIC_RTOL = 1e-15


def _halves(t: np.ndarray, upper_first: bool) -> tuple[slice, slice]:
    """The index halves of quasi-triangular ``t``: (solved first, solved second).

    The split is the midpoint, moved one index on when it would cut a 2x2
    diagonal bump.
    """
    k = t.shape[0] // 2
    if t[k, k - 1] != 0.0:
        k += 1
    upper, lower = slice(None, k), slice(k, None)
    return (upper, lower) if upper_first else (lower, upper)


def _solve_blocks(
    ta: np.ndarray, tb: np.ndarray, y: np.ndarray, trana: str, tranb: str, whole: np.ndarray
) -> float:
    """Overwrite ``y`` with ``x`` solving ``op(ta) x + x op(tb) = scale y``; return ``scale``.

    Recursive blocked Bartels-Stewart (Jonsson and Kagstrom, 2002): the larger
    side is split, the half that does not depend on the other is solved, its
    contribution leaves the other half's right-hand side in one matmul, and
    the other half is solved.  Blocks of at most ``_TRSYL_BLOCK`` rows and
    columns go to LAPACK ``trsyl``.  ``y`` is a block of ``whole``, the array
    the solve works in; a block's ``scale < 1`` rescales all of ``whole``,
    solved and unsolved parts alike, so the scales multiply into one.
    """
    m, n = y.shape
    if max(m, n) <= _TRSYL_BLOCK:
        x, scale, info = scipy.linalg.lapack.dtrsyl(ta, tb, y, trana=trana, tranb=tranb)
        if info < 0:
            raise SolverError(f"LAPACK trsyl rejected argument {-info}")
        if scale != 1.0:
            whole *= scale
        y[...] = x
        return scale
    if m >= n:
        # op(ta)[second, first] couples the rows; op(ta)[first, second] is zero.
        first, second = _halves(ta, trana == "T")
        op_a = ta.T if trana == "T" else ta
        scale = _solve_blocks(ta[first, first], tb, y[first], trana, tranb, whole)
        y[second] -= op_a[second, first] @ y[first]
        return scale * _solve_blocks(ta[second, second], tb, y[second], trana, tranb, whole)
    # op(tb)[first, second] couples the columns; op(tb)[second, first] is zero.
    first, second = _halves(tb, tranb == "N")
    op_b = tb.T if tranb == "T" else tb
    scale = _solve_blocks(ta, tb[first, first], y[:, first], trana, tranb, whole)
    y[:, second] -= y[:, first] @ op_b[first, second]
    return scale * _solve_blocks(ta, tb[second, second], y[:, second], trana, tranb, whole)


def _solve_symmetric(t: np.ndarray, y: np.ndarray, trana: str, whole: np.ndarray) -> float:
    """:func:`_solve_blocks` for ``op(t) x + x op(t)' = scale y`` with a symmetric ``y``.

    With ``u = op(t)`` split so that ``u[first, second]`` is zero, the
    solution is symmetric and its blocks follow in order: ``x[first, first]``
    from the same equation on the first half, the off-diagonal block from
    the Sylvester equation ``u_ss x_sf + x_sf u_ff' = y_sf - u_sf x_ff``, and
    ``x[second, second]`` from the same equation on the second half with
    ``y_ss - g - g'``, ``g = u_sf x_sf'``.  One off-diagonal block is solved
    per level; ``y[first, second]`` is never read and ends as its mirror.
    """
    tranb = "N" if trana == "T" else "T"
    if t.shape[0] <= _TRSYL_BLOCK:
        return _solve_blocks(t, t, y, trana, tranb, whole)
    first, second = _halves(t, trana == "T")
    coupling = (t.T if trana == "T" else t)[second, first]
    t_ff, t_ss = t[first, first], t[second, second]
    scale = _solve_symmetric(t_ff, y[first, first], trana, whole)
    y[second, first] -= coupling @ y[first, first]
    scale *= _solve_blocks(t_ss, t_ff, y[second, first], trana, tranb, whole)
    g = coupling @ y[second, first].T
    y[second, second] -= g + g.T
    scale *= _solve_symmetric(t_ss, y[second, second], trana, whole)
    y[first, second] = y[second, first].T
    return scale


def _sylvester_trsyl(a: SchurForm, b: SchurForm, c: np.ndarray, symmetric: bool) -> np.ndarray:
    # Bartels-Stewart: rotate onto both Schur bases, solve the quasi-triangular
    # equation, rotate back.  A symmetric Lyapunov equation (one form in both
    # orientations, a symmetric right-hand side) takes the symmetric recursion.
    f = a.z.T @ c @ b.z
    trana, tranb = ("T" if form.transposed else "N" for form in (a, b))
    if symmetric:
        scale = _solve_symmetric(a.t, f, trana, f)
    else:
        scale = _solve_blocks(a.t, b.t, f, trana, tranb, f)
    return a.z @ (f / scale) @ b.z.T


def solve_sylvester(
    a: "np.ndarray | SchurForm",
    b: "np.ndarray | SchurForm",
    c: np.ndarray,
    *,
    residual: bool = False,
) -> "np.ndarray | tuple[np.ndarray, float]":
    """Solve ``a @ x + x @ b = c`` by Bartels-Stewart on the real Schur forms.

    The quasi-triangular equation is solved by the recursive blocked
    algorithm, with blocks of at most 32 rows and columns going to LAPACK
    ``trsyl``; an equation of at most 32 rows and columns is one ``trsyl``
    call.  When ``b`` is ``a``'s form transposed and ``c`` is symmetric to
    ``1e-15`` of its norm (a symmetric Lyapunov equation), the recursion
    solves only one off-diagonal block per level and the solution is
    symmetrized, so ``x b`` is ``(a x)'`` and one product serves both terms.
    ``a`` and ``b`` are matrices or their :class:`SchurForm`; passing a form
    (or ``form.T``) reuses its factorization, so every equation in one
    matrix costs one factorization in total.  The equation is solved once,
    and the solution is returned when it meets the residual contract
    ``||a x + x b - c||_F <= 1e-14 ((||a||_F + ||b||_F) ||x||_F + ||c||_F)``,
    which scales with the coefficients as the rounding error of a backward
    stable solve does.  With ``residual``, ``(x, ||a x + x b - c||_F)`` is
    returned, the residual being the one the contract check measured.
    Raises :class:`SingularEquationError` when some eigenvalue sum of ``a``
    and ``b`` is numerically zero, and :class:`SolverError` when the
    solution violates the contract.
    """
    a, b = SchurForm.of(a), SchurForm.of(b)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape != (a.matrix.shape[0], b.matrix.shape[0]):
        raise ValueError(f"c must be {a.matrix.shape[0]}x{b.matrix.shape[0]}, got {c.shape}")
    _sylvester_spectra_check(a, b)
    c_norm = np.linalg.norm(c)
    symmetric = a.t is b.t and a.transposed != b.transposed and (
        np.linalg.norm(c - c.T) <= _SYMMETRIC_RTOL * c_norm
    )
    x = _sylvester_trsyl(a, b, c, symmetric)
    if symmetric:
        x = matkit.symmetrize(x)
    ax = a.matrix @ x
    norm = float(np.linalg.norm(c - ax - (ax.T if symmetric else x @ b.matrix)))
    scale = (np.linalg.norm(a.matrix) + np.linalg.norm(b.matrix)) * np.linalg.norm(x) + c_norm
    # Written as "not <=" so that a NaN residual counts as a miss.
    if not norm <= _RESIDUAL_RTOL * scale:
        raise SolverError(f"Sylvester residual {norm:.3e} violates the solver contract")
    return (x, norm) if residual else x


def solve_lyapunov(
    m: "np.ndarray | SchurForm", w: np.ndarray, *, residual: bool = False
) -> "np.ndarray | tuple[np.ndarray, float]":
    """Solve the continuous Lyapunov equation ``m @ x + x @ m.T + w = 0``.

    ``m`` may be a :class:`SchurForm`; one factorization serves both sides.
    The result is symmetrized when ``w`` is symmetric, before the residual
    contract of :func:`solve_sylvester` is checked.  With ``residual``,
    ``(x, ||m x + x m' + w||_F)`` is returned.
    """
    form = SchurForm.of(m)
    return solve_sylvester(form, form.T, -np.asarray(w, dtype=float), residual=residual)


# ---------------------------------------------------------------------------
# Algebraic Riccati (filter form)
# ---------------------------------------------------------------------------


def _neutral_eigenpairs(a: np.ndarray, q: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs ``(w, e)`` of ``a.T`` that are neutral modes the noise ``q`` is blind to.

    ``w`` sits on the imaginary axis (``|Re w| <= 1e-8 ||a||_2``) and ``e``
    lies in the null space of ``q`` (``||q e|| <= 1e-8 ||q||_2 ||e||``).
    Conjugate pairs are both returned, in the order ``eig`` gives them.
    """
    w, v = np.linalg.eig(a.T)
    a_scale = max(np.linalg.norm(a, 2), 1e-300)
    q_scale = max(np.linalg.norm(q, 2), 1e-300)
    return [
        (w[k], v[:, k])
        for k in range(w.size)
        if abs(w[k].real) <= 1e-8 * a_scale
        and np.linalg.norm(q @ v[:, k]) <= 1e-8 * q_scale * np.linalg.norm(v[:, k])
    ]


def _neutral_modes(a: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the neutral subspace, or None when empty.

    The span of the real and imaginary parts of the eigenvectors from
    :func:`_neutral_eigenpairs` is returned.
    """
    cols = []
    for _, e in _neutral_eigenpairs(a, q):
        cols.append(e.real)
        if np.linalg.norm(e.imag) > 1e-12:
            cols.append(e.imag)
    if not cols:
        return None
    basis = np.column_stack(cols)
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def _null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``m``, bitwise ``scipy.linalg.null_space(m)``.

    It makes scipy's LAPACK call, ``gesdd`` with the optimal workspace and
    full matrices, and keeps the right singular vectors whose singular value
    is at most ``max(s) eps max(m, n)``.  Calling LAPACK directly skips
    scipy's input check, which would load ``numpy.ma`` (see ``dckf``).
    """
    gesdd, gesdd_lwork = scipy.linalg.lapack.get_lapack_funcs(("gesdd", "gesdd_lwork"), (m,))
    rows, cols = m.shape
    lwork, info = gesdd_lwork(rows, cols, compute_uv=True, full_matrices=True)
    if info == 0:
        _, s, vh, info = gesdd(m, compute_uv=True, lwork=int(lwork), full_matrices=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD of the neutral basis failed (LAPACK info {info})")
    tol = np.amax(s, initial=0.0) * (np.finfo(float).eps * max(rows, cols))
    rank = int(np.sum(s > tol))
    return vh[rank:].T


def _solve_care_core(a: np.ndarray, gram: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stable-invariant-subspace solution of A P + P A' + Q - P Gram P = 0."""
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    h = np.block([[a.T, -gram], [-q, -a]])
    # Axis classification scales with the dynamics, not with ||H||: strong
    # measurements inflate the Hamiltonian without moving slow eigenvalues.
    # The spectrum is symmetric about the imaginary axis, so n eigenvalues
    # left of -tol leave none within tol of it.
    tol = 1e-9 * max(np.linalg.norm(a, 2), 1.0)
    try:
        _, z, sdim = scipy.linalg.schur(h, output="real", sort=lambda re, im: re < -tol)
    except (ValueError, np.linalg.LinAlgError) as exc:  # non-finite or unreorderable
        raise CareSolutionError(f"no ordered Schur form of the Hamiltonian ({exc})") from None
    if sdim != n:
        raise CareSolutionError(
            f"Hamiltonian has {sdim} eigenvalues left of -{tol:.1e} (need {n}); "
            "no stabilizing solution"
        )
    try:
        return matkit.symmetrize(np.linalg.solve(z[:n, :n].T, z[n:, :n].T).T)
    except np.linalg.LinAlgError as exc:
        raise CareSolutionError(
            f"the stable subspace has a singular upper block ({exc}); no stabilizing solution"
        ) from None


def solve_care(
    a: np.ndarray,
    c_stack: np.ndarray,
    r_diag: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """Solve ``a p + p a' + q - p c' r^{-1} c p = 0`` for the PSD solution.

    ``r_diag`` must be symmetric positive definite.  When the pair
    ``(a, q^{1/2})`` hides neutral modes (imaginary-axis eigenvalues of
    ``a.T`` with eigenvectors annihilated by ``q``), the solution is
    computed on the complementary subspace and extended by zero, matching
    the limit of the differential Riccati equation.  Any other source of
    imaginary-axis Hamiltonian eigenvalues raises
    :class:`CareSolutionError`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c_stack = np.atleast_2d(np.asarray(c_stack, dtype=float))
    r_diag = np.atleast_2d(np.asarray(r_diag, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    if q.shape != (n, n) or c_stack.shape[1] != n or r_diag.shape[0] != c_stack.shape[0]:
        raise ValueError("inconsistent Riccati dimensions")
    r_eigs = np.linalg.eigvalsh(matkit.symmetrize(r_diag))
    if r_eigs[0] <= 0.0:
        raise CareSolutionError(f"measurement noise intensity is not PD (min eig {r_eigs[0]:.3e})")
    # A gram that overflows is refused below, as a Hamiltonian with no Schur form.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matkit.information_gram(c_stack, r_diag)

    # Deflate neutral modes repeatedly (a reduction can expose new ones) and
    # solve on the orthonormal complement.
    keep_total = np.eye(n)
    a_red, q_red, gram_red = a, q, gram
    while a_red.shape[0] > 0:
        neutral = _neutral_modes(a_red, q_red)
        if neutral is None:
            break
        keep = _null_space(neutral.T)
        a_red = keep.T @ a_red @ keep
        q_red = matkit.symmetrize(keep.T @ q_red @ keep)
        gram_red = matkit.symmetrize(keep.T @ gram_red @ keep)
        keep_total = keep_total @ keep
    p_red = _solve_care_core(a_red, gram_red, q_red)
    p = matkit.symmetrize(keep_total @ p_red @ keep_total.T)

    residual = np.linalg.norm(a @ p + p @ a.T + q - p @ gram @ p)
    if residual > 1e-8 * (1.0 + np.linalg.norm(p) ** 2):
        raise CareSolutionError(f"Riccati residual {residual:.3e} violates the solver contract")
    min_eig = np.linalg.eigvalsh(p)[0]
    if min_eig < -1e-8 * max(1.0, np.linalg.norm(p, 2)):
        raise CareSolutionError(f"Riccati solution is not PSD (min eigenvalue {min_eig:.3e})")
    return p


# ---------------------------------------------------------------------------
# Steady-state covariances
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    """Steady-state covariances of the filter network.

    ``nominal_cov``  : what the designer's model predicts
    ``error_cov``    : the actual stacked estimation error covariance
    ``cross_cov``    : steady error/state cross term (None when the mismatch
                       feedthrough is zero and it is not needed)
    ``state_cov``    : steady second moment of the stacked true state (None
                       in the same situation)
    ``residuals``    : equation residual norms, keyed by block name, as
                       each solve's contract check measured them
    """

    nominal_cov: np.ndarray
    error_cov: np.ndarray
    cross_cov: np.ndarray | None
    state_cov: np.ndarray | None
    residuals: dict[str, float]


def _hurwitz_guard(form: SchurForm, what: str) -> None:
    alpha = form.spectral_abscissa
    if alpha > _HURWITZ_RTOL * max(form.band_norm(), 1e-300):
        raise NotHurwitzError(f"{what} is unstable (spectral abscissa {alpha:.3e})")


def _noise_drive(fr: "FilterRealization", model: "TrueSystem | NominalModel") -> np.ndarray:
    """``K R K' + kron(11', Q)``: the noise intensity driving the stacked error.

    ``R`` and ``Q`` are ``model``'s, so the nominal model gives the drive of
    the nominal index and the true system that of the error covariance.
    """
    return fr.gain_diag @ model.r_diag @ fr.gain_diag.T + model.q_network


def steady_state(fr: "FilterRealization", ts: TrueSystem, nm: NominalModel) -> SteadyStateResult:
    """Solve the steady-state equations for the nominal index and the error covariance.

    Both indices satisfy Lyapunov equations in the closed-loop matrix.  With
    nonzero mismatch feedthrough the stacked state second moment and the
    cross term are solved first (requiring a Hurwitz true state matrix), and
    their contribution joins the drive of the error-covariance equation;
    with zero feedthrough they are skipped and left ``None``.  A closed-loop
    matrix with an imaginary-axis eigenvalue makes the equations singular and
    raises :class:`SingularEquationError`.  Every closed-loop solve, and the
    Hurwitz guard, reads the one factorization ``fr.closed_loop_schur``.

    Every node estimates the same true state, so ``a_diag = kron(I_N, A)``
    and ``q_network = kron(11', Q)``: the state moment is ``kron(11', X_A)``
    and the cross term is ``N`` copies of one ``nN x n`` block ``Z``.  Both
    are solved at that size, on the factorization of ``A`` that its Hurwitz
    guard takes: ``A Y + Y A' + N Q = 0`` (``X_A = Y / N``) and
    ``acl W + W A' + sqrt(N) (F (1 x X_A) + 1 x Q) = 0`` (``Z = W / sqrt(N)``).
    Scaled by ``N`` and ``sqrt(N)``, each reduced equation has the solution,
    drive and residual norms of the full ``nN x nN`` one, so its
    ``residuals`` entry is that of the full equation, and its contract check
    is at least as strict, since ``||A||_F <= ||I_N x A||_F``.
    """
    _check_pair(ts, nm)
    form = fr.closed_loop_schur
    _hurwitz_guard(form, "closed-loop matrix")
    w_nom = _noise_drive(fr, nm)
    w_err = _noise_drive(fr, ts)
    residuals: dict[str, float] = {}
    state_cov = cross_cov = None
    if not fr.mismatch_is_zero:
        a_form = SchurForm.of(ts.a)
        _hurwitz_guard(a_form, "true state matrix (required for nonzero mismatch feedthrough)")
        nodes, f = ts.sensor_count, fr.mismatch_diag
        y, residuals["state_cov"] = solve_lyapunov(a_form, nodes * ts.q, residual=True)
        x_a = y / nodes
        drive = f @ np.tile(x_a, (nodes, 1)) + np.tile(ts.q, (nodes, 1))
        w, residuals["cross_cov"] = solve_sylvester(
            form, a_form.T, -np.sqrt(nodes) * drive, residual=True
        )
        state_cov = np.kron(np.ones((nodes, nodes)), x_a)
        cross_cov = np.tile(w / np.sqrt(nodes), (1, nodes))
        w_err = w_err + f @ cross_cov.T + cross_cov @ f.T
    error_cov, residuals["error_cov"] = solve_lyapunov(form, w_err, residual=True)
    nominal_cov, residuals["nominal_cov"] = solve_lyapunov(form, w_nom, residual=True)
    return SteadyStateResult(nominal_cov, error_cov, cross_cov, state_cov, residuals)


# ---------------------------------------------------------------------------
# Matrix-ODE propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrajectoryInit:
    """Initial covariances of the nominal index and the stacked error.

    The truth's initial moments enter only with nonzero mismatch feedthrough,
    and they are not fields: every node estimates the same ``x``, so
    :func:`propagate` takes ``E[x x'] = sigma0 + x0 x0'`` and ``E[e x'] =
    sigma0`` in every block, which hold when every initial estimate is
    unbiased and independent of ``x(0)`` (``e = x - x_hat``).
    """

    nominal_cov: np.ndarray
    error_cov: np.ndarray


def default_initial_state(ts: TrueSystem) -> TrajectoryInit:
    """Defaults for filters that all start at the mean initial state.

    Every filter uses the same deterministic initial estimate ``x0``, so all
    blocks of the initial error covariance, and of the nominal index, equal
    ``sigma0``.
    """
    base = np.kron(np.ones((ts.sensor_count, ts.sensor_count)), ts.sigma0)
    return TrajectoryInit(nominal_cov=base, error_cov=base.copy())


@dataclass(frozen=True, eq=False)
class CovarianceTrajectory:
    """The nominal index and the stacked error covariance on the caller's time grid.

    ``error_trace_rate`` is the numerical growth rate of the error-covariance
    trace along the grid; divergent scenarios show a persistent positive
    rate instead of raising.
    """

    nominal_cov: np.ndarray
    error_cov: np.ndarray
    error_trace_rate: np.ndarray


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("time grid must be 1-D with at least two points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _flow_pair(drift: np.ndarray, drive: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """``(e^{A h}, Q_h)`` with ``Q_h`` the integral of ``e^{A s} W e^{A' s}`` over ``[0, h]``.

    Van Loan's block exponential gives the pair at ``tau = h / 2^k``, where
    ``||A tau||_1 <= 0.5`` keeps ``e^{-A tau}`` (its upper-left block) tame;
    ``k`` doublings ``Q <- Q + Phi Q Phi'``, ``Phi <- Phi^2`` then reach ``h``.
    """
    n = drift.shape[0]
    norm = float(np.linalg.norm(drift, 1))
    tau, doublings = h, 0
    while norm * tau > 0.5:
        tau *= 0.5
        doublings += 1
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -drift * tau
    block[:n, n:] = drive * tau
    block[n:, n:] = drift.T * tau
    e = matkit.expm(block)
    phi = e[n:, n:].T
    q = matkit.symmetrize(phi @ e[:n, n:])
    for _ in range(doublings):
        q = matkit.symmetrize(q + phi @ q @ phi.T)
        phi = phi @ phi
    return phi, q


# A drift that cannot grow gives steps ``Phi`` of spectral radius at most 1
# plus this share.  Where the flow is right (case2 up to gamma = 1e16) it is at
# most 1 + 1.3e-15.
_GROWTH_RTOL = 1e-8


def _check_growth(drift: np.ndarray, phi: np.ndarray, h: float) -> None:
    """Refuse a step ``Phi = e^{A h}`` that grows although ``A`` cannot.

    ``A`` cannot grow when its spectral abscissa is at most its rounding,
    ``n eps ||A||_1``; the sign of a smaller abscissa is not in the data.  Only
    a ``Phi`` with spectral radius above ``1 + 1e-8`` pays for ``A``'s eigenvalues.
    A drift that does grow is not checked: its ``Phi`` departs from ``e^{h alpha}``
    by about ``eps ||A||_1 h``, which no fixed share bounds.
    """
    rho = np.max(np.abs(np.linalg.eigvals(phi))) if np.all(np.isfinite(phi)) else np.inf
    if rho <= 1.0 + _GROWTH_RTOL:
        return
    rounding = drift.shape[0] * np.finfo(float).eps * np.linalg.norm(drift, 1)
    alpha = np.max(np.linalg.eigvals(drift).real)
    if not alpha > rounding:
        raise SolverError(
            f"the covariance flow's step over {h:.3g} has spectral radius {rho:.3e} although "
            f"its drift's spectral abscissa {alpha:.3e} is within its rounding {rounding:.3e}; "
            "the drift is too stiff to step"
        )


def _covariance_flow(
    drift: np.ndarray, drive: np.ndarray, init: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Exact solution of ``dX/dt = A X + X A' + W`` on a time grid; returns (len(grid), n, n).

    Each step is ``X <- Phi X Phi' + Q_h`` with the pair from
    :func:`_flow_pair`, formed once per distinct span (spans within 1e-12
    relative share a pair).  A pair takes ``log2(||A||_1 h)`` squarings, whose
    rounding compounds: on case2 (``h = 0.5``) the error trace at t = 50 moves from
    its value at ``||A||_1 h = 1e7`` by 6e-6 relative at 1e11 and 4e-2 at 1e15.
    A pair whose ``Phi`` grows although ``A`` cannot raises
    :class:`SolverError` (see :func:`_check_growth`): on case2 that is every
    gain from 1e17 on, where ``Phi`` stops contracting and the flow would read
    wrong or NaN.  A ``Phi`` that stays bounded but wrong, as at 1e24, is not
    caught.
    """
    grid = _check_grid(grid)
    drift = np.asarray(drift, dtype=float)
    drive = matkit.symmetrize(drive)
    x = matkit.symmetrize(init)
    if x.shape != drift.shape:
        raise ValueError(f"initial matrix must be {drift.shape[0]}x{drift.shape[0]}, got {x.shape}")
    out = np.empty((grid.size,) + x.shape)
    out[0] = x
    pairs: list[tuple[float, np.ndarray, np.ndarray]] = []
    for k, span in enumerate(np.diff(grid)):
        pair = next((p for p in pairs if abs(p[0] - span) <= 1e-12 * span), None)
        if pair is None:
            pair = (span, *_flow_pair(drift, drive, span))
            _check_growth(drift, pair[1], span)
            pairs.append(pair)
        _, phi, q = pair
        # A diverging flow overflows to inf, and its trace rate reports that.
        with np.errstate(over="ignore", invalid="ignore"):
            x = matkit.symmetrize(phi @ x @ phi.T + q)
        out[k + 1] = x
    return out


def propagate(
    fr: "FilterRealization",
    ts: TrueSystem,
    grid: np.ndarray,
    init: TrajectoryInit | None = None,
) -> CovarianceTrajectory:
    """Exact covariance trajectories of the filter network on a time grid.

    The nominal index follows its own Lyapunov-type flow in the closed loop,
    driven by the noise intensities of the filter's nominal model.  As in
    :func:`steady_state`, the true state enters the error only through the
    mismatch feedthrough.  With zero feedthrough (``fr.mismatch_is_zero``) the
    error follows the closed-loop flow driven by the true intensities, so an
    overflowing truth cannot make it NaN (``0 * inf``).  Otherwise it is the
    error block of the joint covariance of the stacked error ``e`` and the
    true state ``x`` (size ``nN + n``), which every node sees as ``copies @
    x``, ``copies = 1 x I_n``.  The joint drift ``[[closed_loop,
    mismatch_diag @ copies], [0, A]]`` is upper block triangular, the joint
    drive is ``B diag(R, Q) B'`` with the true intensities and ``B = [[-K,
    copies], [0, I]]``, and the truth's initial moments are those of
    :class:`TrajectoryInit`.  Every flow is stepped exactly (matrix
    exponential plus Van Loan's integral).  A diverging flow's entries and
    trace rates read inf or NaN; a flow that cannot grow but whose step does
    raises :class:`SolverError` (see :func:`_covariance_flow`).
    """
    if init is None:
        init = default_initial_state(ts)
    q_dim = fr.closed_loop.shape[0]
    for name in ("nominal_cov", "error_cov"):
        shape = np.shape(getattr(init, name))
        if shape != (q_dim, q_dim):
            raise ValueError(f"initial {name} must be {q_dim}x{q_dim}, got {shape}")
    _check_pair(ts, fr.nominal)
    nominal = _covariance_flow(fr.closed_loop, _noise_drive(fr, fr.nominal), init.nominal_cov, grid)
    if fr.mismatch_is_zero:
        error = _covariance_flow(fr.closed_loop, _noise_drive(fr, ts), init.error_cov, grid)
    else:
        n, nodes = ts.n, ts.sensor_count
        copies = np.tile(np.eye(n), (nodes, 1))
        drift = np.block([[fr.closed_loop, fr.mismatch_diag @ copies], [np.zeros((n, q_dim)), ts.a]])
        input_map = np.block([[-fr.gain_diag, copies], [np.zeros((n, fr.gain_diag.shape[1])), np.eye(n)]])
        noise = scipy.linalg.block_diag(ts.r_diag, ts.q)
        cross = copies @ ts.sigma0
        joint_init = np.block([[init.error_cov, cross], [cross.T, ts.sigma0 + np.outer(ts.x0, ts.x0)]])
        error = _covariance_flow(drift, input_map @ noise @ input_map.T, joint_init, grid)[:, :q_dim, :q_dim]
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.gradient(np.einsum("kii->k", error), np.asarray(grid, dtype=float))
    return CovarianceTrajectory(nominal_cov=nominal, error_cov=error, error_trace_rate=rate)

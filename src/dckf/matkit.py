"""Dense real-matrix kernels shared by every other module.

All functions operate on plain ``numpy.ndarray`` inputs and never mutate
them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "log_norm",
    "expm",
    "sqrtm_psd",
    "symmetrize",
    "information_gram",
    "is_symmetric",
    "kron_sum_fro_norm",
    "eigh_psd_inverse",
]


def _as_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    return a


def log_norm(a: np.ndarray) -> float:
    """Logarithmic 2-norm (matrix measure): largest eigenvalue of (a + a.T) / 2.

    For every t >= 0 the spectral norm satisfies
    ``norm(expm(t * a), 2) <= exp(t * log_norm(a))``.
    """
    a = _as_square(a)
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximation)."""
    return scipy.linalg.expm(_as_square(a))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a.T) / 2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def information_gram(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``c' r^{-1} c``, symmetrized: the measurement information of ``c`` under noise ``r``."""
    return symmetrize(c.T @ np.linalg.solve(r, c))


def is_symmetric(a: np.ndarray, rtol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=float)
    scale = np.linalg.norm(a)
    return bool(np.linalg.norm(a - a.T) <= rtol * max(scale, 1.0))


_SQRT_NEG_RTOL = 1e-10
_INVERSE_COND_RTOL = 1e-12


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues below ``-_SQRT_NEG_RTOL * max_eigenvalue`` raise; small
    negative eigenvalues due to round-off are clipped to zero.
    """
    a = _as_square(a)
    if not is_symmetric(a, rtol=1e-8):
        raise ValueError("sqrtm_psd expects a (numerically) symmetric matrix")
    w, v = np.linalg.eigh(symmetrize(a))
    floor = -_SQRT_NEG_RTOL * max(w[-1], 0.0) - 1e-300
    if w[0] < floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return symmetrize(root)


def kron_sum_fro_norm(m: np.ndarray, p: np.ndarray) -> float:
    """Frobenius norm of ``kron(I, m) + kron(p, I)`` without materializing it.

    Both factors must be square of the same size q; the identity blocks are
    q x q as well.  Expanding the trace gives
    ``q * (||m||_F^2 + ||p||_F^2) + 2 * tr(m) * tr(p)``.
    """
    m = _as_square(m, "m")
    p = _as_square(p, "p")
    if m.shape != p.shape:
        raise ValueError("kron_sum_fro_norm requires same-size square factors")
    q = m.shape[0]
    total = q * (np.linalg.norm(m) ** 2 + np.linalg.norm(p) ** 2)
    total += 2.0 * np.trace(m) * np.trace(p)
    return float(np.sqrt(total))


def eigh_psd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via eigendecomposition."""
    a = _as_square(a)
    w, v = np.linalg.eigh(symmetrize(a))
    if w[0] <= _INVERSE_COND_RTOL * w[-1] or w[-1] <= 0.0:
        raise np.linalg.LinAlgError(
            f"matrix is singular or not positive definite (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return (v / w) @ v.T

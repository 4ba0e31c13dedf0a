import numpy as np
import pytest

from dckf import matkit


def test_log_norm_values():
    assert matkit.log_norm(-np.eye(2)) == pytest.approx(-1.0)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert matkit.log_norm(rot) == pytest.approx(0.0, abs=1e-14)


def test_log_norm_rejects_non_square():
    with pytest.raises(ValueError):
        matkit.log_norm(np.ones((2, 3)))


def test_log_norm_scaling_and_subadditivity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        gamma = float(rng.uniform(0.1, 5.0))
        assert matkit.log_norm(gamma * a) == pytest.approx(
            gamma * matkit.log_norm(a), rel=1e-10, abs=1e-12
        )
        assert matkit.log_norm(a + b) <= matkit.log_norm(a) + matkit.log_norm(b) + 1e-10


def test_log_norm_bounds_exponential_growth():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(4)  # make it stable
        mu = matkit.log_norm(a)
        for t in np.arange(0.1, 5.01, 0.7):
            assert np.linalg.norm(matkit.expm(t * a), 2) <= np.exp(t * mu) * (1 + 1e-10)


def test_expm_identity_and_diagonal():
    np.testing.assert_allclose(matkit.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(
        matkit.expm(np.diag([1.0, 2.0])), np.diag([np.e, np.e**2]), rtol=1e-12
    )


def test_expm_inverse_pair():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    np.testing.assert_allclose(matkit.expm(a) @ matkit.expm(-a), np.eye(4), atol=1e-10)


def test_expm_derivative_finite_difference():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    h = 1e-6
    fd = (matkit.expm(h * a) - matkit.expm(-h * a)) / (2 * h)
    np.testing.assert_allclose(fd, a, atol=1e-6)


def test_sqrtm_psd_values():
    np.testing.assert_allclose(matkit.sqrtm_psd(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        matkit.sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14
    )


def test_sqrtm_psd_multiply_back():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((4, 4))
    a = m.T @ m
    r = matkit.sqrtm_psd(a)
    assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)
    assert matkit.is_symmetric(r)


def test_sqrtm_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        matkit.sqrtm_psd(np.diag([1.0, -1.0]))


def test_spectral_norm_below_frobenius():
    rng = np.random.default_rng(10)
    for _ in range(25):
        a = rng.standard_normal((4, 5))
        assert np.linalg.norm(a, 2) <= np.linalg.norm(a) + 1e-12


def test_trace_inequalities_positive_matrices():
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = rng.standard_normal((4, 4))
        a = m.T @ m + 0.5 * np.eye(4)  # PD
        w = rng.standard_normal((4, 4))
        b = w.T @ w  # PSD
        tr_ab = np.trace(a @ b)
        assert tr_ab <= np.trace(a) * np.linalg.norm(b, 2) + 1e-10
        assert np.trace(a) * np.linalg.norm(b, 2) <= np.trace(a) * np.trace(b) + 1e-10
        tr_inv = np.trace(np.linalg.inv(a) @ b)
        assert tr_inv >= np.trace(b) / np.trace(a) - 1e-10


def test_kron_sum_fro_norm_matches_explicit():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        p = rng.standard_normal((4, 4))
        explicit = np.linalg.norm(np.kron(np.eye(4), m) + np.kron(p, np.eye(4)))
        assert matkit.kron_sum_fro_norm(m, p) == pytest.approx(explicit, rel=1e-12)


def test_eigh_psd_inverse():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((5, 5))
    a = m.T @ m + np.eye(5)
    np.testing.assert_allclose(matkit.eigh_psd_inverse(a) @ a, np.eye(5), atol=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        matkit.eigh_psd_inverse(np.diag([1.0, 0.0]))

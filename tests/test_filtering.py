import numpy as np
import pytest
import scipy.linalg

from dckf import filtering, solvers
from dckf.analysis import trace_bounds
from dckf.graph import Topology, complete, laplacian, ring
from dckf.model import NominalModel, Sensor, TrueSystem, deviations
from dckf.solvers import SchurForm
from conftest import random_connected_topology, random_spd


def random_assumption2_setup(rng):
    """Random nominal model + connected graph with the structural conditions."""
    n = int(rng.integers(2, 5))
    n_sensors = int(rng.integers(2, 6))
    while True:
        a = rng.standard_normal((n, n))
        sensors = [
            Sensor(c=rng.standard_normal((1, n)), r=random_spd(rng, 1, floor=0.3))
            for _ in range(n_sensors)
        ]
        c_stack = np.vstack([s.c for s in sensors])
        obs = np.vstack([c_stack @ np.linalg.matrix_power(a, k) for k in range(n)])
        if np.linalg.matrix_rank(obs, tol=1e-9) == n:
            break
    nm = NominalModel(a=a, q=random_spd(rng, n, floor=0.2), sensors=sensors)
    topo = random_connected_topology(rng, n_sensors)
    return nm, topo


def as_true(nm, rng=None):
    n = nm.n
    return TrueSystem(a=nm.a, q=nm.q, sensors=nm.sensors, x0=np.zeros(n), sigma0=np.eye(n))


def test_zero_deviation_filter_structure(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = filtering.build_filter(nm, ts, topo, gamma=2.0)
    assert np.linalg.norm(fr.mismatch_diag) == 0.0
    # Local loop blocks reduce to a - k c, with k the sensor's block of gain_diag.
    col = 0
    for i, s in enumerate(ts.sensors):
        k = fr.gain_diag[4 * i : 4 * (i + 1), col : col + s.m]
        col += s.m
        block = fr.feedback_diag[4 * i : 4 * (i + 1), 4 * i : 4 * (i + 1)]
        np.testing.assert_allclose(block, ts.a - k @ s.c, atol=1e-14)
    assert col == fr.gain_diag.shape[1]


def test_single_sensor_closed_loop():
    rng = np.random.default_rng(0)
    nm = NominalModel(
        a=np.array([[-1.0, 0.3], [0.0, -2.0]]),
        q=random_spd(rng, 2, floor=0.5),
        sensors=[Sensor(c=[[1.0, 0.0]], r=[[0.4]])],
    )
    ts = as_true(nm)
    fr = filtering.build_filter(nm, ts, Topology(np.zeros((1, 1))), gamma=3.0)
    expected = nm.a - fr.gain_diag @ nm.sensors[0].c
    np.testing.assert_allclose(fr.closed_loop, expected, atol=1e-13)


def test_gain_identity_blockwise_vs_global(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = filtering.build_filter(nm, ts, topo, gamma=600.0)
    c_diag = scipy.linalg.block_diag(*[s.c for s in nm.sensors])
    r_diag = scipy.linalg.block_diag(*[s.r for s in nm.sensors])
    global_gain = (
        nm.sensor_count
        * np.kron(np.eye(nm.sensor_count), fr.p_inf)
        @ c_diag.T
        @ np.linalg.inv(r_diag)
    )
    np.testing.assert_allclose(fr.gain_diag, global_gain, atol=1e-12)


def test_case1_hurwitz_above_threshold(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    thr = filtering.gamma_threshold(nm, topo)
    fr = filtering.build_filter(nm, ts, topo, gamma=1.1 * thr)
    assert np.linalg.eigvals(fr.closed_loop).real.max() < 0
    assert fr.gamma_min == pytest.approx(thr)


def test_spectral_abscissa_stays_negative_along_gamma_grid(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = filtering.build_filter(nm, ts, topo, gamma=1000.0)
    for g in np.logspace(np.log10(1.05 * fr.gamma_min), np.log10(50 * fr.gamma_min), 8):
        assert np.linalg.eigvals(fr.closed_loop_at(g)).real.max() < 0


def test_threshold_soundness_on_random_models():
    rng = np.random.default_rng(123)
    for _ in range(50):
        nm, topo = random_assumption2_setup(rng)
        thr = filtering.gamma_threshold(nm, topo)
        fr = filtering.build_filter(nm, as_true(nm), topo, gamma=1.01 * thr)
        assert np.linalg.eigvals(fr.closed_loop).real.max() < 0


def test_threshold_decreases_with_connectivity(case1):
    nm = case1.nominal
    thr_ring = filtering.gamma_threshold(nm, ring(6))
    thr_complete = filtering.gamma_threshold(nm, complete(6))
    assert thr_complete < thr_ring
    # Ring connectivity 1 vs complete 6: exact ratio by homogeneity.
    assert thr_ring / thr_complete == pytest.approx(6.0, rel=1e-12)


def test_threshold_requires_connectivity(case1):
    nm = case1.nominal
    disconnected = Topology.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(ValueError):
        filtering.gamma_threshold(nm, disconnected)


def test_threshold_singular_covariance_raises(case2):
    with pytest.raises(np.linalg.LinAlgError):
        filtering.gamma_threshold(case2.nominal, case2.topology)


def test_is_hurwitz():
    assert filtering.is_hurwitz(-np.eye(3))
    assert not filtering.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def with_abscissa(alpha, size=16):
    """A rotated ``diag(alpha, -1, ..., -1)``: ``||m||_2 = 1`` and ``||m||_F`` about ``sqrt(size - 1)``."""
    q, _ = np.linalg.qr(np.random.default_rng(size).standard_normal((size, size)))
    return q @ np.diag([alpha] + [-1.0] * (size - 1)) @ q.T


@pytest.mark.parametrize("factor", [-10.0, -3.0, -2.0, -0.5, 0.5, 2.0, 3.0, 10.0])
def test_hurwitz_verdicts_match_the_exact_two_norm(factor):
    # The spectral abscissa is factor * 1e-9 ||m||_2.  ||m||_F is about 3.9, so
    # +-3 lies between 1e-9 ||m||_2 and 1e-9 ||m||_F, and only +-10 lies
    # outside the band 2e-9 ||m||_F where the SVD is skipped.
    m = with_abscissa(factor * 1e-9)
    form = SchurForm.of(m)
    alpha, norm2 = form.spectral_abscissa, np.linalg.norm(m, 2)
    assert abs(alpha - factor * 1e-9) <= 1e-12
    assert filtering.is_hurwitz(form) is bool(alpha < -1e-9 * norm2) is (factor < -1)
    unstable = bool(alpha > 1e-9 * norm2)
    assert unstable is (factor > 1)
    if unstable:
        with pytest.raises(solvers.NotHurwitzError):
            solvers._hurwitz_guard(form, "m")
    else:
        solvers._hurwitz_guard(form, "m")
    assert ("norm2" in form.__dict__) is bool(abs(factor) < 2.0 * np.linalg.norm(m))


def test_clearly_stable_closed_loop_takes_no_svd(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = filtering.build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    ss = solvers.steady_state(fr, ts, nm)
    trace_bounds(fr, ss, deviations(ts, nm))
    assert filtering.is_hurwitz(fr.closed_loop_schur)
    assert "norm2" not in fr.closed_loop_schur.__dict__


def test_case2_closed_loop_not_hurwitz(case2):
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    fr = filtering.build_filter(nm, ts, topo, gamma=10.0)
    assert not filtering.is_hurwitz(fr.closed_loop)
    assert fr.gamma_min is None
    assert fr.gamma_ref == pytest.approx(10.0)


def test_with_gamma_rebuilds_consensus_term(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = filtering.build_filter(nm, ts, topo, gamma=700.0)
    fr2 = fr.with_gamma(1400.0)
    coupling = fr.closed_loop - fr2.closed_loop
    kron_lap_p = np.kron(laplacian(topo), nm.p_inf)
    np.testing.assert_allclose(coupling, 700.0 * kron_lap_p, atol=1e-10)
    assert fr2.gamma_ref == fr.gamma_ref
    # Every closed loop is derived from the stored parts, bit for bit.
    for got, g in (
        (fr.closed_loop, 700.0), (fr.closed_loop_ref, fr.gamma_ref), (fr2.closed_loop, 1400.0)
    ):
        np.testing.assert_array_equal(got, fr.feedback_diag - g * kron_lap_p)
    assert fr.p_inf is fr.nominal.p_inf
    with pytest.raises(ValueError):
        fr.coupling[0, 0] = 1.0


def test_build_filter_validation(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    with pytest.raises(ValueError):
        filtering.build_filter(nm, ts, topo, gamma=-1.0)
    with pytest.raises(ValueError):
        filtering.build_filter(nm, ts, ring(5), gamma=1.0)


def test_gamma_ref_defaults(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    thr = filtering.gamma_threshold(nm, topo)
    fr = filtering.build_filter(nm, ts, topo, gamma=10 * thr)
    assert fr.gamma_ref == pytest.approx(1.05 * thr)
    low = filtering.build_filter(nm, ts, topo, gamma=1.02 * thr)
    assert low.gamma_ref == pytest.approx(1.02 * thr)  # capped by the working gain

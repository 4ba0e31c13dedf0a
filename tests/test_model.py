import numpy as np
import pytest
import scipy.linalg

from dckf import graph, model
from dckf.filtering import build_filter, is_hurwitz
from dckf.scenario import load_scenario
from dckf.solvers import solve_care


def toy_pair(n=2):
    ts = model.TrueSystem(
        a=np.array([[-1.0, 0.5], [0.0, -2.0]]),
        q=0.1 * np.eye(2),
        sensors=[model.Sensor(c=np.array([[1.0, 0.0]]), r=np.array([[0.2]]))] * 2,
        x0=np.zeros(2),
        sigma0=np.eye(2),
    )
    nm = model.NominalModel(a=ts.a, q=ts.q, sensors=ts.sensors)
    return ts, nm


def test_deviations_zero_when_equal():
    ts, nm = toy_pair()
    dev = model.deviations(ts, nm)
    assert dev.d_a_norm == 0.0
    assert dev.d_q_norm == 0.0
    assert dev.d_c_norms == (0.0, 0.0)
    assert dev.d_r_norms == (0.0, 0.0)
    assert dev.state_matrix_exact


def test_deviations_case1_state_shift(case1):
    dev = model.deviations(case1.true_system, case1.nominal)
    np.testing.assert_allclose(dev.d_a, 0.1 * np.eye(4), atol=1e-14)
    assert dev.d_a_norm == pytest.approx(0.2)
    # Measurement rows shifted by +0.1 in their nonzero slot.
    for d in dev.d_c:
        assert np.count_nonzero(d) == 1
        assert d.max() == pytest.approx(0.1)


def test_deviations_case3_noise_inflation(case3):
    dev = model.deviations(case3.true_system, case3.nominal)
    np.testing.assert_allclose(dev.d_q, 0.07 * np.eye(4), atol=1e-14)
    assert np.linalg.eigvalsh(dev.d_q)[0] >= 0.0
    np.testing.assert_allclose(dev.d_r_norms, [0.1, 0.0, 0.0, 0.1, 0.0, 0.0], atol=1e-14)


def test_deviations_inverse_of_adding():
    rng = np.random.default_rng(0)
    ts, _ = toy_pair()
    d_a = rng.standard_normal((2, 2))
    d_q = 0.01 * np.eye(2)
    nm = model.NominalModel(
        a=ts.a + d_a,
        q=ts.q + d_q,
        sensors=[
            model.Sensor(c=s.c + 0.3, r=s.r + 0.05 * np.eye(s.m)) for s in ts.sensors
        ],
    )
    dev = model.deviations(ts, nm)
    np.testing.assert_allclose(dev.d_a, d_a, atol=1e-14)
    np.testing.assert_allclose(dev.d_q, d_q, atol=1e-14)
    for d_c, d_r in zip(dev.d_c, dev.d_r):
        np.testing.assert_allclose(d_c, 0.3 * np.ones_like(d_c), atol=1e-14)
        np.testing.assert_allclose(d_r, 0.05 * np.eye(1), atol=1e-14)


def test_stacked_diag_deviation_norm_scaling():
    # The block-diagonal replication multiplies the Frobenius norm by sqrt(N).
    ts, _ = toy_pair()
    nm = model.NominalModel(a=ts.a + 0.5, q=ts.q, sensors=ts.sensors)
    dev = model.deviations(ts, nm)
    st = model.stack(ts, nm)
    stacked_dev = st.a_diag_nom - st.a_diag
    assert np.linalg.norm(stacked_dev) == pytest.approx(np.sqrt(2) * dev.d_a_norm)


def test_stack_structure():
    ts, _ = toy_pair()
    nm = model.NominalModel(
        a=ts.a + 0.5,
        q=2.0 * ts.q,
        sensors=[model.Sensor(c=s.c + 0.1, r=s.r + k) for k, s in enumerate(ts.sensors)],
    )
    st = model.stack(ts, nm)
    np.testing.assert_array_equal(st.c_stack, [[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(st.a_diag, np.kron(np.eye(2), ts.a))
    for m, suffix in ((ts, ""), (nm, "_nom")):
        oracles = {
            "c_stack": np.vstack([s.c for s in m.sensors]),
            "r_diag": scipy.linalg.block_diag(*[s.r for s in m.sensors]),
            "a_diag": np.kron(np.eye(2), m.a),
            "q_network": np.kron(np.ones((2, 2)), m.q),
        }
        for name, oracle in oracles.items():
            cached = getattr(m, name)
            assert getattr(m, name) is cached
            np.testing.assert_array_equal(cached, oracle)
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0
            if name != "q_network":
                assert getattr(st, name + suffix) is cached
    # The nominal Riccati solution is cached the same way, and every filter shares it.
    p_inf = nm.p_inf
    assert nm.p_inf is p_inf
    with pytest.raises(ValueError):
        p_inf[0, 0] = 1.0
    np.testing.assert_array_equal(p_inf, solve_care(nm.a, nm.c_stack, nm.r_diag, nm.q))
    assert build_filter(nm, ts, graph.complete(2), 1.0).p_inf is p_inf


def test_stack_vehicle_measurement_noise(baseline):
    st = model.stack(baseline.true_system, baseline.nominal)
    np.testing.assert_allclose(st.r_diag, 0.2 * np.eye(6), atol=1e-14)


def test_stack_block_round_trip(case1):
    st = model.stack(case1.true_system, case1.nominal)
    offset = 0
    for s in case1.nominal.sensors:
        block = st.r_diag_nom[offset : offset + s.m, offset : offset + s.m]
        np.testing.assert_array_equal(block, s.r)
        offset += s.m


def test_validate_baseline_marginal_a_passes(baseline):
    # The uniform-motion state matrix is only marginally stable, but with an
    # exact model the mismatch feedthrough vanishes and no condition on the
    # true A applies.
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, gamma=2.0)
    assert fr.mismatch_is_zero
    report = model.validate_assumptions(ts, nm, topo)
    assert report.connected and report.observable and report.controllable
    assert not report.true_a_hurwitz
    assert report.mismatch_ok and report.all_ok


def test_validate_case1_needs_hurwitz_and_has_it(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, gamma=5.0)
    assert not fr.mismatch_is_zero
    report = model.validate_assumptions(ts, nm, topo)
    assert report.true_a_hurwitz
    assert report.all_ok


@pytest.mark.parametrize(
    "name, shift, expected",
    [
        ("baseline", 0.0, False),  # uniform motion: marginal, so not Hurwitz
        ("case1", 0.0, True),
        ("case2", 0.0, False),
        ("case3", 0.0, False),
        # case1's true A is lower triangular with diagonal -0.1, so a shift of
        # 0.1 puts every eigenvalue exactly on the imaginary axis.
        ("case1", 0.05, True),
        ("case1", 0.1, False),
        ("case1", 0.15, False),
    ],
)
def test_true_a_hurwitz_is_the_filtering_rule(name, shift, expected):
    sc = load_scenario(name)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    a = ts.a + shift * np.eye(ts.n)
    ts = model.TrueSystem(a=a, q=ts.q, sensors=ts.sensors, x0=ts.x0, sigma0=ts.sigma0)
    report = model.validate_assumptions(ts, nm, topo)
    assert report.true_a_hurwitz is is_hurwitz(ts.a) is expected


def test_validate_case2_controllability_fails(case2):
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    report = model.validate_assumptions(ts, nm, topo)
    assert report.connected and report.observable
    assert not report.controllable
    assert not report.all_ok
    assert any("controllable" in f for f in report.failures())


def test_validate_disconnected_graph(baseline):
    ts, nm = baseline.true_system, baseline.nominal
    topo = graph.Topology.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    report = model.validate_assumptions(ts, nm, topo)
    assert not report.connected
    assert not report.all_ok


def test_rank_checks_invariant_under_orthogonal_similarity():
    rng = np.random.default_rng(21)
    ts, nm = toy_pair()
    st = model.stack(ts, nm)
    # Observability of (A, C) is controllability of (A', C').
    base_obs = model.controllability_matrix(nm.a.T, st.c_stack_nom.T)
    assert np.linalg.matrix_rank(base_obs) == 2
    for _ in range(10):
        m = rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(m)
        a_rot = u.T @ nm.a @ u
        c_rot = st.c_stack_nom @ u
        obs = model.controllability_matrix(a_rot.T, c_rot.T)
        assert np.linalg.matrix_rank(obs) == 2


def test_pbh_cross_validation_case2(case2):
    # PBH: rank [A - lambda I, Q^(1/2)] must drop at the blind eigenvalue.
    nm = case2.nominal
    from dckf.matkit import sqrtm_psd

    pencil = np.hstack([nm.a - 0.0 * np.eye(4), sqrtm_psd(nm.q)])
    assert np.linalg.matrix_rank(pencil, tol=1e-10) < 4


def test_dimension_mismatch_raises():
    ts, _ = toy_pair()
    other = model.NominalModel(
        a=-np.eye(3),
        q=np.eye(3),
        sensors=[model.Sensor(c=np.eye(3)[:1], r=np.array([[1.0]]))],
    )
    with pytest.raises(ValueError):
        model.deviations(ts, other)


def test_sensor_validation():
    with pytest.raises(ValueError):
        model.Sensor(c=np.array([[1.0, 0.0]]), r=np.array([[0.0]]))  # r not PD
    with pytest.raises(ValueError):
        model.TrueSystem(
            a=np.eye(2),
            q=-np.eye(2),  # not PSD
            sensors=[model.Sensor(c=np.array([[1.0, 0.0]]), r=np.array([[1.0]]))],
            x0=np.zeros(2),
            sigma0=np.eye(2),
        )

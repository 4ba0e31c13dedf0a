import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from dckf import analysis, matkit
from dckf.filtering import build_filter, gamma_threshold, is_hurwitz
from dckf.graph import complete
from dckf.model import NominalModel, Sensor, TrueSystem, deviations
from dckf.solvers import SolverError, steady_state, propagate
from conftest import (
    closed_form_gap, mismatched_networks, random_assumption2_setup, random_connected_topology,
    random_spd,
)
from test_filtering import as_true


def tiny_pair():
    """n=1, N=2: small enough to invert the Kronecker sum explicitly."""
    ts = TrueSystem(
        a=[[-1.0]],
        q=[[0.4]],
        sensors=[Sensor(c=[[1.0]], r=[[0.2]]), Sensor(c=[[0.7]], r=[[0.25]])],
        x0=[0.0],
        sigma0=[[0.3]],
    )
    nm = NominalModel(
        a=[[-1.2]],
        q=[[0.5]],
        sensors=[Sensor(c=[[1.1]], r=[[0.3]]), Sensor(c=[[0.6]], r=[[0.2]])],
    )
    return ts, nm, complete(2)


def test_gap_factors_match_explicit_kronecker_inverse():
    ts, nm, topo = tiny_pair()
    fr = build_filter(nm, ts, topo, gamma=3.0)
    acl = fr.closed_loop
    q = acl.shape[0]
    kron_sum = np.kron(np.eye(q), acl) + np.kron(acl, np.eye(q))
    row = np.eye(q).reshape(-1, order="F") @ np.linalg.inv(kron_sum)
    plain_explicit = np.linalg.norm(row)
    weighted_explicit = np.linalg.norm(row @ np.kron(fr.gain_diag, fr.gain_diag))
    plain, weighted = analysis._inverse_vec_norms(acl, fr.gain_diag)
    assert plain == pytest.approx(plain_explicit, rel=1e-12)
    assert weighted == pytest.approx(weighted_explicit, rel=1e-12)


def test_zero_deviation_gap_vanishes(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    ss = steady_state(fr, ts, nm)
    rep = analysis.trace_bounds(fr, ss, deviations(ts, nm))
    assert rep.gap == 0.0
    assert rep.lower == pytest.approx(rep.upper)
    assert rep.tr_error == pytest.approx(rep.tr_nominal, rel=1e-10)
    assert rep.sandwich_holds


def test_trace_bounds_sandwich_case1(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    dev = deviations(ts, nm)
    gammas = case1.resolve_gammas()
    fr = build_filter(nm, ts, topo, float(gammas[-1]))
    for g in gammas[::5]:
        frg = fr.with_gamma(float(g))
        rep = analysis.trace_bounds(frg, steady_state(frg, ts, nm), dev)
        assert rep.sandwich_holds
        assert rep.lower == max(0.0, rep.tr_nominal - rep.gap)
        assert rep.upper == rep.tr_nominal + rep.gap


def test_trace_bounds_rejects_zero_margin():
    ts, nm, topo = tiny_pair()
    fr = build_filter(nm, ts, topo, gamma=3.0)
    a_diag_nom = np.kron(np.eye(2), nm.a)
    target = matkit.kron_sum_fro_norm(fr.closed_loop, a_diag_nom)
    # Craft a state-matrix deviation whose stacked norm hits the margin zero.
    d_a_norm = target / (np.sqrt(2.0) * np.sqrt(2.0))
    dev = deviations(
        ts,
        NominalModel(a=nm.a, q=nm.q, sensors=nm.sensors),
    )
    rigged = type(dev)(
        d_a=np.array([[d_a_norm]]), d_c=dev.d_c, d_q=dev.d_q, d_r=dev.d_r
    )
    with pytest.raises(analysis.HypothesisError):
        analysis.deviation_gap(fr, rigged, 1.0, 1.0)


def test_trace_bounds_gamma_gate(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[-1]))
    below = fr.with_gamma(0.5 * fr.gamma_ref)
    with pytest.raises(analysis.HypothesisError):
        analysis.nominal_trace_floor(below)


def test_nominal_trace_floor_bounds_and_decay(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    gammas = case1.resolve_gammas()
    fr = build_filter(nm, ts, topo, float(gammas[-1]))
    floors = []
    for g in gammas[::4]:
        frg = fr.with_gamma(float(g))
        floor = analysis.nominal_trace_floor(frg)
        tr_nominal = float(np.trace(steady_state(frg, ts, nm).nominal_cov))
        assert floor <= tr_nominal + 1e-12
        floors.append(floor)
    assert all(b < a for a, b in zip(floors, floors[1:]))


def test_nominal_trace_floor_reference_gain_denominator(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    thr = gamma_threshold(nm, topo)
    fr = build_filter(nm, ts, topo, gamma=1.05 * thr)  # working gain == reference gain
    floor = analysis.nominal_trace_floor(fr)
    r_diag_nom = scipy.linalg.block_diag(*[s.r for s in nm.sensors])
    drive = np.trace(fr.gain_diag @ r_diag_nom @ fr.gain_diag.T) + 6 * np.trace(nm.q)
    assert floor == pytest.approx(drive / (2.0 * np.trace(-fr.closed_loop_ref)), rel=1e-12)


def test_asymptotic_fit_case1(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    thr = gamma_threshold(nm, topo)
    fr = build_filter(nm, ts, topo, 2 * thr)
    fit = analysis.asymptotic_fit(fr)
    assert fit.fit_residual <= 1e-3
    assert fit.a1 > 0 and fit.b1 > 0
    # Extrapolation far beyond the fitted range stays within a percent.
    g = 1e4 * thr
    plain, _ = analysis._inverse_vec_norms(fr.closed_loop_at(g), fr.gain_diag)
    predicted = np.sqrt(fit.a1 + fit.b1 / g + fit.c1 / g**2)
    assert predicted == pytest.approx(plain, rel=0.01)


@pytest.mark.parametrize("preset", ["case1", "baseline", "case3"])
def test_sweep_fit_meets_its_exact_consensus_limits(preset, request):
    # Claim checked: the limits a1, a2 that dckf sweep fits over 2x to 200x
    # the threshold are n x n quantities of the centralized filter.  The
    # coupling L kron P_inf vanishes exactly on U = (1 kron I_n) / sqrt(N), so
    # as the gain grows the slow block of the closed loop tends to
    # A_c = U' feedback_diag U = A - P_inf C' R^-1 C, and the squared trace-gap
    # factors tend to ||Y||_F^2 and ||(U'K)' Y (U'K)||_F^2 with
    # A_c' Y + Y A_c = I_n.  This is a consistency check of the fit, not a
    # theorem stated in the paper.
    scenario = request.getfixturevalue(preset)
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    thr = gamma_threshold(nm, topo)
    fr = build_filter(nm, ts, topo, 2 * thr)
    fit = analysis.asymptotic_fit(fr)
    u = np.kron(np.ones((nm.sensor_count, 1)), np.eye(nm.n)) / np.sqrt(nm.sensor_count)
    a_c = u.T @ fr.feedback_diag @ u
    centralized = nm.a - nm.p_inf @ matkit.information_gram(nm.c_stack, nm.r_diag)
    assert np.linalg.norm(a_c - centralized) <= 1e-13 * np.linalg.norm(centralized)
    y = scipy.linalg.solve_continuous_lyapunov(a_c.T, np.eye(nm.n))
    uk = u.T @ fr.gain_diag
    assert fit.a1 == pytest.approx(np.linalg.norm(y) ** 2, rel=1e-4)
    assert fit.a2 == pytest.approx(np.linalg.norm(uk.T @ y @ uk) ** 2, rel=1e-4)


@pytest.mark.parametrize("multiple", [1.05, 2.0, 10.0, 100.0])
@pytest.mark.parametrize("preset", ["case1", "baseline", "case3"])
def test_nominal_cov_stays_above_the_centralized_filter(preset, multiple, request):
    # Claim checked: the centralized Kalman-Bucy filter, which sees every
    # sensor, has the least error covariance P_inf of any estimator of the
    # nominal model, so at every gain each node's diagonal block of the
    # distributed filter's nominal index is at least P_inf in the PSD order,
    # and tr(nominal_cov) >= N tr(P_inf).  The smallest eigenvalue of the gap
    # reads 2.1e-6 to 2.4e-4 here, falling like 1/gamma.  An optimality
    # argument, not a theorem stated in the paper.
    scenario = request.getfixturevalue(preset)
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    fr = build_filter(nm, ts, topo, multiple * gamma_threshold(nm, topo))
    nominal_cov = steady_state(fr, ts, nm).nominal_cov
    n = nm.n
    for i in range(nm.sensor_count):
        block = nominal_cov[i * n:(i + 1) * n, i * n:(i + 1) * n]
        assert np.linalg.eigvalsh(block - nm.p_inf)[0] >= 0.0, i
    assert np.trace(nominal_cov) >= nm.sensor_count * np.trace(nm.p_inf)


@pytest.mark.parametrize("multiple", [10.0, 100.0, 1e4])
@pytest.mark.parametrize("preset", ["case1", "baseline", "case3"])
def test_closed_loop_splits_into_the_centralized_filter_and_fast_modes(preset, multiple, request):
    # Claim checked: the coupling L kron P_inf vanishes on U = (1 kron I_n) / sqrt(N),
    # so as the gain grows the n slowest closed-loop eigenvalues tend to those
    # of the centralized closed loop A_c = A - P_inf C' R^-1 C at rate 1/gamma,
    # and every other eigenvalue's real part falls like -gamma.  On these
    # presets the distance times gamma / gamma_min reads 0.26 to 0.47 and the
    # next real part -8.7 to -38 times gamma / gamma_min.  Singular
    # perturbation, not a theorem stated in the paper.
    scenario = request.getfixturevalue(preset)
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    fr = build_filter(nm, ts, topo, multiple * gamma_threshold(nm, topo))
    ratio = fr.gamma / fr.gamma_min
    centralized = np.linalg.eigvals(
        nm.a - nm.p_inf @ matkit.information_gram(nm.c_stack, nm.r_diag)
    )
    eigenvalues = np.linalg.eigvals(fr.closed_loop)
    eigenvalues = eigenvalues[np.argsort(-eigenvalues.real)]
    slow, fast = eigenvalues[:nm.n], eigenvalues[nm.n:]
    distance = np.abs(slow[:, None] - centralized[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(distance)
    assert distance[rows, cols].max() <= 1.0 / ratio
    assert fast.real.max() <= -4.0 * ratio


def test_asymptotic_fit_needs_a_threshold(case2):
    # case2's steady covariance is singular, so its filter has no threshold.
    fr = build_filter(case2.nominal, case2.true_system, case2.topology, 10.0)
    assert fr.gamma_min is None
    with pytest.raises(analysis.HypothesisError):
        analysis.asymptotic_fit(fr)


def test_divergence_case2_certificate(case2):
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    fr = build_filter(nm, ts, topo, 10.0)
    certs = analysis.divergence_test(fr, ts)
    assert fr.mismatch_is_zero
    assert len(certs) == 1
    cert = certs[0]
    assert cert.freq == 0.0
    np.testing.assert_allclose(cert.vector.real, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(cert.vector.imag) == 0.0
    assert cert.aug_residual <= 1e-10
    assert cert.will_diverge
    assert cert.growth_rate == pytest.approx(36 * 0.03, rel=1e-12)
    assert any(c.will_diverge for c in certs)


def test_divergence_case1_empty(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    certs = analysis.divergence_test(build_filter(nm, ts, topo, 600.0), ts)
    assert certs == ()
    assert not any(c.will_diverge for c in certs)


def test_divergence_pd_nominal_noise_never_certifies():
    rng = np.random.default_rng(31)
    for _ in range(5):
        nm, topo = random_assumption2_setup(rng)  # q is PD by construction
        ts = as_true(nm)
        assert analysis.divergence_test(build_filter(nm, ts, topo, 2.0), ts) == ()


def test_divergence_blind_true_noise_not_flagged(case2):
    # Same blind nominal noise, but the true noise is blind too: the mode is
    # certified yet nothing drives it.
    nm, topo = case2.nominal, case2.topology
    ts = case2.true_system
    blind_true = TrueSystem(a=ts.a, q=nm.q, sensors=ts.sensors, x0=ts.x0, sigma0=ts.sigma0)
    certs = analysis.divergence_test(build_filter(nm, blind_true, topo, 10.0), blind_true)
    assert len(certs) == 1
    cert = certs[0]
    assert not cert.will_diverge
    assert cert.growth_rate == pytest.approx(0.0, abs=1e-12)
    assert not any(c.will_diverge for c in certs)


def oscillatory_blind_pair():
    """A marginal rotation plane the nominal noise cannot see (complex pair)."""
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    sensors = [Sensor(c=[[1.0, 0.0, 0.0]], r=[[0.2]]), Sensor(c=[[0.0, 0.0, 1.0]], r=[[0.2]])]
    nm = NominalModel(a=a, q=np.diag([0.0, 0.0, 0.1]), sensors=sensors)
    ts = TrueSystem(
        a=a, q=0.03 * np.eye(3), sensors=sensors, x0=np.zeros(3), sigma0=0.1 * np.eye(3)
    )
    return ts, nm, complete(2)


def test_divergence_complex_pair_certificate():
    ts, nm, topo = oscillatory_blind_pair()
    certs = analysis.divergence_test(build_filter(nm, ts, topo, 4.0), ts)
    assert len(certs) == 1  # conjugate pair reported once
    cert = certs[0]
    assert cert.freq == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(cert.vector.imag) > 0.1
    assert cert.aug_residual <= 1e-10
    assert cert.will_diverge
    # Unit eigenvector in the blind plane: excitation is the plane's noise level.
    assert cert.growth_rate == pytest.approx(4 * 0.03, rel=1e-10)


def test_divergence_complex_pair_projected_growth():
    # The two real projections oscillate, but their sum grows linearly at
    # the certificate rate.
    ts, nm, topo = oscillatory_blind_pair()
    fr = build_filter(nm, ts, topo, 4.0)
    cert = analysis.divergence_test(fr, ts)[0]
    grid = np.linspace(0.0, 20.0, 81)
    traj = propagate(fr, ts, grid)
    v_re = np.kron(np.ones(2), cert.vector.real)
    v_im = np.kron(np.ones(2), cert.vector.imag)
    combined = np.array([v_re @ m @ v_re + v_im @ m @ v_im for m in traj.error_cov])
    slope = np.polyfit(grid[20:], combined[20:], 1)[0]
    assert slope == pytest.approx(cert.growth_rate, rel=1e-6)


def test_relation_case3_nominal_upper_bound(case3):
    ts, nm, topo = case3.true_system, case3.nominal, case3.topology
    dev = deviations(ts, nm)
    fr = build_filter(nm, ts, topo, float(case3.resolve_gammas()[0]))
    grid = np.linspace(0.0, 5.0, 26)
    rel = analysis.relation_analysis(fr, dev, np.zeros((24, 24)), grid)
    assert rel.drive_sign == "psd"
    assert rel.ordering == "nominal_upper"
    assert np.all(rel.gap_min_eig >= -1e-8)
    # Closed form and integrated trajectory agree.
    assert np.max(np.abs(rel.gap - closed_form_gap(fr, rel))) <= 1e-8
    # The spectral-norm bound dominates the measured norm.
    assert np.all(rel.gap_norm <= rel.gap_norm_bound + 1e-10)
    # The consensus gain above the reference leaves the log norm unchanged.
    assert abs(matkit.log_norm(-(fr.gamma - fr.gamma_ref) * fr.coupling)) <= 1e-10


def test_relation_swapped_noise_roles_nominal_lower(case3):
    ts, nm, topo = case3.true_system, case3.nominal, case3.topology
    # The nominal model now under-states both noise intensities.
    low = NominalModel(a=nm.a, q=ts.q, sensors=ts.sensors)
    high = TrueSystem(a=ts.a, q=nm.q, sensors=nm.sensors, x0=ts.x0, sigma0=ts.sigma0)
    fr = build_filter(low, high, topo, 1.5 * gamma_threshold(low, topo))
    grid = np.linspace(0.0, 5.0, 26)
    rel = analysis.relation_analysis(fr, deviations(high, low), np.zeros((24, 24)), grid)
    assert rel.drive_sign == "nsd"
    assert rel.ordering == "nominal_lower"
    fr3 = build_filter(nm, ts, topo, float(case3.resolve_gammas()[0]))
    rel3 = analysis.relation_analysis(fr3, deviations(ts, nm), np.zeros((24, 24)), grid)
    # The batched spectra give the bits of the per-record decompositions.
    for r in (rel, rel3):
        assert np.array_equal(r.gap_min_eig, [np.linalg.eigvalsh(m)[0] for m in r.gap])
        assert np.array_equal(r.gap_norm, [np.linalg.norm(m, 2) for m in r.gap])


def test_relation_analysis_forms_one_exponential_per_span(case3, monkeypatch):
    ts, nm, topo = case3.true_system, case3.nominal, case3.topology
    fr = build_filter(nm, ts, topo, float(case3.resolve_gammas()[0]))
    calls = []
    expm = matkit.expm
    monkeypatch.setattr(matkit, "expm", lambda a: calls.append(a.shape) or expm(a))
    grid = case3.ode.grid()
    rel = analysis.relation_analysis(fr, deviations(ts, nm), np.zeros((24, 24)), grid)
    # case3's grid has one distinct span, so the stepped flow needs one pair.
    assert rel.gap.shape[0] == grid.size > 100
    assert calls == [(48, 48)]


@pytest.mark.parametrize("gap_init", [np.eye(24), np.zeros((24, 24))])
def test_relation_bound_overflows_quietly_to_inf(case3, gap_init):
    # The reference log-norm rate is positive, so exp(rate * t) overflows long
    # before t = 2000: the bound is +inf there, with no warning and no NaN
    # (a zero initial gap drops its term rather than forming 0 * inf).
    ts, nm, topo = case3.true_system, case3.nominal, case3.topology
    fr = build_filter(nm, ts, topo, float(case3.resolve_gammas()[0]))
    rel = analysis.relation_analysis(fr, deviations(ts, nm), gap_init, np.linspace(0, 2000, 5))
    assert rel.log_norm_rate > 0
    assert np.all(np.isfinite(rel.gap_norm_bound[:-1])) and rel.gap_norm_bound[-1] == np.inf
    assert np.all(rel.gap_norm <= rel.gap_norm_bound)


def test_relation_matches_propagate_difference(case3):
    ts, nm, topo = case3.true_system, case3.nominal, case3.topology
    dev = deviations(ts, nm)
    fr = build_filter(nm, ts, topo, float(case3.resolve_gammas()[0]))
    grid = np.linspace(0.0, 3.0, 13)
    init = case3.initial_state()
    rel = analysis.relation_analysis(fr, dev, init.nominal_cov - init.error_cov, grid)
    traj = propagate(fr, ts, grid, init=init)
    diff = traj.nominal_cov - traj.error_cov
    assert np.max(np.abs(rel.gap - diff)) <= 1e-9


def test_relation_zero_drive_zero_gap(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    dev = deviations(ts, nm)
    grid = np.linspace(0.0, 2.0, 11)
    rel = analysis.relation_analysis(fr, dev, np.zeros((24, 24)), grid)
    assert rel.drive_sign == "zero"
    assert np.max(np.abs(rel.gap)) == 0.0
    assert np.max(rel.gap_norm_bound) == 0.0
    assert rel.ordering == "nominal_upper"


def test_relation_bound_on_random_admissible_scenarios():
    rng = np.random.default_rng(17)
    accepted = 0
    while accepted < 5:
        nm, topo = random_assumption2_setup(rng)
        n = nm.n
        thr = gamma_threshold(nm, topo)
        accepted += 1
        # True system shares a and c; only the noise intensities deviate.
        shrink = rng.uniform(0.3, 0.9)
        ts = TrueSystem(
            a=nm.a,
            q=shrink * nm.q,
            sensors=[Sensor(c=s.c, r=0.8 * s.r) for s in nm.sensors],
            x0=np.zeros(n),
            sigma0=np.eye(n),
        )
        fr = build_filter(nm, ts, topo, gamma=1.2 * thr)
        e0 = random_spd(rng, n * nm.sensor_count, floor=0.0)
        grid = np.linspace(0.0, 2.0, 21)
        rel = analysis.relation_analysis(fr, deviations(ts, nm), e0, grid)
        assert np.all(rel.gap_norm <= rel.gap_norm_bound * (1 + 1e-9) + 1e-12)
        assert np.max(np.abs(rel.gap - closed_form_gap(fr, rel))) <= 1e-8
        assert abs(matkit.log_norm(-(fr.gamma - fr.gamma_ref) * fr.coupling)) <= 1e-10


def test_relation_indefinite_drive_inconclusive():
    ts, nm, topo = tiny_pair()
    # Same a and c, mixed-sign noise deviations: one r up, one r down.
    nm2 = NominalModel(
        a=ts.a,
        q=ts.q,
        sensors=[
            Sensor(c=ts.sensors[0].c, r=ts.sensors[0].r + 0.2),
            Sensor(c=ts.sensors[1].c, r=ts.sensors[1].r - 0.1),
        ],
    )
    fr = build_filter(nm2, ts, topo, gamma=3.0)
    rel = analysis.relation_analysis(
        fr, deviations(ts, nm2), np.zeros((2, 2)), np.linspace(0, 1, 6)
    )
    assert rel.drive_sign == "indefinite"
    assert rel.ordering == "inconclusive"


def test_relation_accepts_rounded_nominal_state_matrix(case3):
    ts, nm, topo = case3.true_system, case3.nominal, case3.topology
    rounded = NominalModel(a=ts.a + 1e-17, q=nm.q, sensors=nm.sensors)
    dev = deviations(ts, rounded)
    assert 0.0 < dev.d_a_norm and dev.state_matrix_exact
    fr = build_filter(rounded, ts, topo, float(case3.resolve_gammas()[0]))
    assert fr.mismatch_is_zero
    grid = np.linspace(0.0, 2.0, 11)
    rel = analysis.relation_analysis(fr, dev, np.zeros((24, 24)), grid)
    assert rel.ordering == "nominal_upper"


def test_relation_rejects_state_deviation(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    with pytest.raises(analysis.HypothesisError):
        analysis.relation_analysis(
            fr, deviations(ts, nm), np.zeros((24, 24)), np.linspace(0, 1, 6)
        )


# Claims that hold on every valid mismatched network (``conftest.mismatched_networks``).
PROPERTY = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(network=mismatched_networks())
def test_property_nominal_trace_floor_is_below_the_nominal_trace(network):
    """Claim: above the threshold, ``tr_nominal_floor`` bounds the steady nominal trace from below."""
    ts, nm, topo, gamma = network
    fr = build_filter(nm, ts, topo, gamma)
    if not is_hurwitz(fr.closed_loop_schur):
        # Rare draws at stiff gains: the abscissa sits inside the 1e-9 ||acl||_2
        # band, so the floor refuses the gain while ``steady_state``, which tests
        # the other side of the band, may accept it (see the test below).
        reject()
    try:
        ss = steady_state(fr, ts, nm)
    except SolverError:
        # A few draws in a thousand, at stiff gains: the spectra check refuses
        # a solve as singular, which leaves no trace to test the claim on.
        reject()
    assert analysis.nominal_trace_floor(fr) <= np.trace(ss.nominal_cov)


def test_nominal_trace_floor_refuses_a_stable_stiff_loop():
    # Today's Hurwitz wall: at 200x the threshold (7.14e4) this closed loop
    # has abscissa -0.425, but the band 1e-9 ||acl||_2 is 22.6, so the floor
    # calls it not Hurwitz.  Flips when the band rule is decided.
    nm, topo = random_assumption2_setup(np.random.default_rng(29))
    fr = build_filter(nm, as_true(nm), topo, 200.0 * gamma_threshold(nm, topo))
    form = fr.closed_loop_schur
    assert -0.43 < form.spectral_abscissa < -0.42
    assert 22.0 < 1e-9 * form.band_norm() < 23.0
    with pytest.raises(analysis.HypothesisError, match="Hurwitz"):
        analysis.nominal_trace_floor(fr)


@PROPERTY
@given(
    network=mismatched_networks(noise_only=True),
    gap_seed=st.integers(0, 2**32 - 1),
    horizon=st.floats(0.1, 20.0),
)
def test_property_relation_gap_norm_is_within_its_bound(network, gap_seed, horizon):
    """Claim: under noise-only mismatch, ``gap_norm <= gap_norm_bound`` at every time."""
    ts, nm, topo, gamma = network
    fr = build_filter(nm, ts, topo, gamma)
    m = np.random.default_rng(gap_seed).standard_normal(fr.closed_loop.shape)
    grid = np.linspace(0.0, horizon, 21)
    rel = analysis.relation_analysis(fr, deviations(ts, nm), m + m.T, grid)
    assert np.all(rel.gap_norm <= rel.gap_norm_bound * (1 + 1e-9) + 1e-12)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_property_asymptotic_fit_has_positive_limits(seed):
    """Claim: over 2x-200x the threshold, the fitted limits ``a1`` and ``a2`` are positive.

    The networks are ``random_assumption2_setup``'s nominal ones; ``b`` and
    ``c`` take either sign on them.
    """
    nm, topo = random_assumption2_setup(np.random.default_rng(seed))
    thr = gamma_threshold(nm, topo)
    fr = build_filter(nm, as_true(nm), topo, 2.0 * thr)
    try:
        fit = analysis.asymptotic_fit(fr)
    except analysis.HypothesisError:
        # About 1 in 50 networks, with thresholds of 3e4 and more: the Hurwitz
        # check weighs the abscissa (about -0.5) against 1e-9 ||acl||_2, which
        # exceeds it at the top of the grid, so there is no fit to test.
        reject()
    assert fit.a1 > 0 and fit.a2 > 0


@pytest.mark.parametrize("swapped", [False, True])
@PROPERTY
@given(network=mismatched_networks(noise_only=True), horizon=st.floats(0.1, 20.0))
def test_property_relation_ordering_is_never_violated(swapped, network, horizon):
    """Claim: from a zero gap, a semidefinite drive keeps the gap's sign at every time.

    Under noise-only mismatch the true noise exceeds the nominal noise, so
    the drive is negative semidefinite; with the two swapped it is positive
    semidefinite.
    """
    ts, nm, topo, gamma = network
    if swapped:
        low = NominalModel(a=nm.a, q=ts.q, sensors=ts.sensors)
        ts = TrueSystem(a=ts.a, q=nm.q, sensors=nm.sensors, x0=ts.x0, sigma0=ts.sigma0)
        gamma *= gamma_threshold(low, topo) / gamma_threshold(nm, topo)
        nm = low
    fr = build_filter(nm, ts, topo, gamma)
    n = fr.closed_loop.shape[0]
    grid = np.linspace(0.0, horizon, 21)
    rel = analysis.relation_analysis(fr, deviations(ts, nm), np.zeros((n, n)), grid)
    assert rel.drive_sign in (("psd", "zero") if swapped else ("nsd", "zero"))
    assert rel.ordering != "violated"


def neutral_mode_network(rng, pair, excite):
    """A nominal model whose A has one neutral mode that its Q is blind to, and a truth.

    ``A = T diag(M, S) T^-1`` with ``M = [0]`` or, for ``pair``, the rotation
    ``[[0, w], [-w, 0]]`` (``w`` in [0.5, 3], so ``A`` has the eigenvalues
    ``+-iw``); ``S`` is stable (abscissa at most -0.5) and ``T`` has a
    condition number of at most 4.  The nominal Q is a random PSD matrix
    projected off the mode's left eigenvectors (the first rows of ``T^-1``).
    The truth shares A and the sensors; its Q is a random PD matrix when
    ``excite`` and another blind projection otherwise.  Returns
    ``(ts, nm, topo, gamma, w)``, with ``w = 0`` for a zero eigenvalue.
    """
    k = 2 if pair else 1
    n = k + int(rng.integers(1, 3))
    w = float(rng.uniform(0.5, 3.0)) if pair else 0.0
    neutral = np.array([[0.0, w], [-w, 0.0]]) if pair else np.zeros((1, 1))
    stable = rng.standard_normal((n - k, n - k))
    stable -= (max(0.0, float(np.linalg.eigvals(stable).real.max())) + 0.5) * np.eye(n - k)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    t = u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v
    a = t @ scipy.linalg.block_diag(neutral, stable) @ np.linalg.inv(t)
    left = scipy.linalg.orth(np.linalg.inv(t)[:k].T)
    blind = np.eye(n) - left @ left.T

    def blind_noise():
        return matkit.symmetrize(blind @ random_spd(rng, n, floor=0.2) @ blind)

    n_sensors = int(rng.integers(2, 5))
    while True:
        sensors = [
            Sensor(c=rng.standard_normal((1, n)), r=random_spd(rng, 1, floor=0.3))
            for _ in range(n_sensors)
        ]
        c_stack = np.vstack([s.c for s in sensors])
        obs = np.vstack([c_stack @ np.linalg.matrix_power(a, j) for j in range(n)])
        if np.linalg.matrix_rank(obs, tol=1e-9) == n:
            break
    nm = NominalModel(a=a, q=blind_noise(), sensors=sensors)
    q_true = random_spd(rng, n, floor=0.2) if excite else blind_noise()
    ts = TrueSystem(a=a, q=q_true, sensors=sensors, x0=np.zeros(n), sigma0=np.eye(n))
    gamma = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
    return ts, nm, random_connected_topology(rng, n_sensors), gamma, w


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), pair=st.booleans(), excite=st.booleans())
def test_property_divergence_certificates_match_an_eigendecomposition(seed, pair, excite):
    """Claim: one certificate per blind neutral mode, an eigenvector of the closed loop.

    On ``neutral_mode_network``'s models, ``divergence_test`` gives exactly
    one certificate, at the mode's nonnegative frequency (a conjugate pair
    gives one).  Its ``kron(1, e)`` lies in the eigenspace of
    ``np.linalg.eig(closed_loop.T)`` for ``i freq`` to 1e-8 relative, and
    ``will_diverge`` holds exactly when the true Q excites the mode.
    """
    ts, nm, topo, gamma, w = neutral_mode_network(np.random.default_rng(seed), pair, excite)
    fr = build_filter(nm, ts, topo, gamma)
    certs = analysis.divergence_test(fr, ts)
    assert len(certs) == 1
    cert = certs[0]
    acl = fr.closed_loop
    scale = max(1.0, float(np.linalg.norm(acl, 2)))
    assert cert.freq == pytest.approx(w, abs=1e-8 * scale)
    assert cert.will_diverge == excite
    eigvals, eigvecs = np.linalg.eig(acl.T)
    near = np.abs(eigvals - 1j * cert.freq) <= 1e-6 * scale
    basis = scipy.linalg.orth(eigvecs[:, near])
    stacked = np.kron(np.ones(ts.sensor_count), cert.vector)
    off = stacked - basis @ (basis.conj().T @ stacked)
    assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(stacked)

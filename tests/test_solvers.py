import dataclasses
import functools
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dckf
from dckf import solvers
from dckf.analysis import trace_bounds
from dckf.filtering import build_filter, gamma_threshold
from dckf.graph import complete
from dckf.model import NominalModel, Sensor, TrueSystem, deviations, stack
from conftest import kron_sylvester, random_spd, ring_chord_network, rk4_propagate


def random_care_instance(rng):
    """Random filter-form Riccati data with an observable pair and PD noise."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, n + 1))
    while True:
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((m, n))
        obs = np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(n)])
        if np.linalg.matrix_rank(obs, tol=1e-9) == n:
            break
    r = random_spd(rng, m, floor=0.5)
    q = random_spd(rng, n, floor=0.2)
    return a, c, r, q


def two_sensor_pair():
    ts = TrueSystem(
        a=[[-1.0]],
        q=[[0.4]],
        sensors=[Sensor(c=[[1.0]], r=[[0.2]]), Sensor(c=[[0.7]], r=[[0.25]])],
        x0=[0.5],
        sigma0=[[0.3]],
    )
    nm = NominalModel(
        a=[[-1.3]],
        q=[[0.6]],
        sensors=[Sensor(c=[[1.2]], r=[[0.3]]), Sensor(c=[[0.6]], r=[[0.2]])],
    )
    return ts, nm, complete(2)


# ---------------------------------------------------------------------------
# Riccati
# ---------------------------------------------------------------------------


def test_care_scalar_marginal_state():
    # 2 a p + q - p^2 c^2 / r = 0 with a=0, c=q=r=1: p^2 = 1.
    p = solvers.solve_care(np.array([[0.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_care_scalar_stable_state():
    # a=-1, c=1, q=3, r=1: p^2 + 2p - 3 = 0, positive root 1.
    p = solvers.solve_care(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), 3.0 * np.eye(1))
    assert p[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_care_random_residual_and_stability():
    rng = np.random.default_rng(42)
    # After 25 random instances, a stiff rotation: an undamped oscillator measured
    # almost noise-free (r = 1e-10), so the Hamiltonian has entries of 1e10.
    stiff = (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[1e-10]]), np.eye(2))
    for a, c, r, q in [*(random_care_instance(rng) for _ in range(25)), stiff]:
        p = solvers.solve_care(a, c, r, q)
        gram = c.T @ np.linalg.solve(r, c)
        residual = np.linalg.norm(a @ p + p @ a.T + q - p @ gram @ p)
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(p) ** 2)
        assert np.linalg.eigvalsh(p)[0] >= -1e-10 * max(1.0, np.linalg.norm(p, 2))
        closed = a - p @ gram
        assert np.max(np.linalg.eigvals(closed).real) < 0


def test_care_monotone_in_process_noise():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, c, r, q = random_care_instance(rng)
        bump = random_spd(rng, a.shape[0], floor=0.0)
        p_small = solvers.solve_care(a, c, r, q)
        p_large = solvers.solve_care(a, c, r, q + bump)
        assert np.trace(p_large) >= np.trace(p_small) - 1e-10


def test_care_rejects_indefinite_measurement_noise():
    with pytest.raises(solvers.CareSolutionError):
        solvers.solve_care(np.eye(2), np.eye(2), np.diag([1.0, -1.0]), np.eye(2))


def test_care_rejects_undetectable_neutral_mode():
    # A zero eigenvalue that no sensor sees and the noise does excite: the
    # Hamiltonian is marginal and no deflation applies.
    a = np.array([[0.0]])
    c = np.array([[0.0]])
    with pytest.raises(solvers.CareSolutionError):
        solvers.solve_care(a, c, np.eye(1), np.eye(1))


def test_care_refuses_an_overflowing_measurement_gram():
    # c' r^-1 c overflows to inf, so the Hamiltonian has no Schur form.
    with pytest.raises(solvers.CareSolutionError, match="no ordered Schur form"):
        solvers.solve_care(np.array([[-1.0]]), np.array([[1e200]]), np.eye(1), np.eye(1))


def test_care_deflates_noise_blind_neutral_mode(case2):
    nm = case2.nominal
    c_stack = np.vstack([s.c for s in nm.sensors])
    r_diag = np.kron(np.eye(6), np.eye(1) * 0.2)
    p = solvers.solve_care(nm.a, c_stack, r_diag, nm.q)
    e = np.array([1.0, 0.0, 0.0, 0.0])
    # The solution annihilates the blind mode and still satisfies the equation.
    assert np.linalg.norm(p @ e) <= 1e-12
    gram = c_stack.T @ np.linalg.solve(r_diag, c_stack)
    residual = np.linalg.norm(nm.a @ p + p @ nm.a.T + nm.q - p @ gram @ p)
    assert residual <= 1e-10
    closed = nm.a - p @ gram
    eigs = np.linalg.eigvals(closed)
    assert np.max(eigs.real) <= 1e-10  # marginal, not stabilizing
    assert np.min(np.abs(eigs)) <= 1e-10


# ---------------------------------------------------------------------------
# Lyapunov / Sylvester
# ---------------------------------------------------------------------------


def test_lyapunov_scalar():
    x = solvers.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert x[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_lyapunov_diagonal_closed_form():
    x = solvers.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-13)


def test_lyapunov_matches_kron_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = rng.standard_normal((n, n)) - (n + 1) * np.eye(n)
        w = random_spd(rng, n, floor=0.1)
        x = solvers.solve_lyapunov(m, w)
        expected = kron_sylvester(m, m.T, -w)
        assert np.linalg.norm(x - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))
        assert np.array_equal(x, x.T)


def test_sylvester_scalars():
    x = solvers.solve_sylvester(np.array([[-1.0]]), np.array([[-1.0]]), np.array([[-2.0]]))
    assert x[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_sylvester_identity_pair():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3))
    x = solvers.solve_sylvester(np.eye(3), np.eye(3), 2.0 * m)
    np.testing.assert_allclose(x, m, atol=1e-12)


def test_sylvester_matches_kron_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m_dim = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) - (n + 2) * np.eye(n)
        b = rng.standard_normal((m_dim, m_dim)) - (m_dim + 2) * np.eye(m_dim)
        c = rng.standard_normal((n, m_dim))
        x = solvers.solve_sylvester(a, b, c)
        expected = kron_sylvester(a, b, c)
        assert np.linalg.norm(x - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))


def test_sylvester_detects_singular_spectra():
    a = np.diag([1.0, -2.0])
    b = np.diag([-1.0, 3.0])  # 1 + (-1) = 0
    with pytest.raises(solvers.SingularEquationError):
        solvers.solve_sylvester(a, b, np.ones((2, 2)))


def test_self_pair_gap_is_formed_once_per_factorization():
    # A form checked against itself or its transpose reads one eigenvalue gap,
    # shared by both orientations, with the pairwise check's verdict and message.
    m = np.array([[1.0, 5.0], [0.0, -1.0]])  # 1 + (-1) = 0
    with pytest.raises(solvers.SingularEquationError) as pairwise:
        solvers.solve_sylvester(m, m.T, np.eye(2))
    form = solvers.SchurForm.of(m)
    for a, b in ((form, form.T), (form.T, form), (form, form)):
        with pytest.raises(solvers.SingularEquationError) as shared:
            solvers.solve_sylvester(a, b, np.eye(2))
        assert str(shared.value) == str(pairwise.value)
    assert form.T._spectral is form._spectral and list(form._spectral) == ["self_gap"]


def test_lyapunov_schur_path_on_larger_problem():
    rng = np.random.default_rng(13)
    n = 36
    m = rng.standard_normal((n, n)) - 2 * n * np.eye(n)
    w = random_spd(rng, n, floor=0.5)
    x = solvers.solve_lyapunov(m, w)
    assert np.linalg.norm(m @ x + x @ m.T + w) <= 1e-9 * (1 + np.linalg.norm(x))


def test_shared_schur_form_solves_match_kron(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    gammas = np.sort(case1.resolve_gammas())
    fr = build_filter(nm, ts, topo, float(gammas[0])).with_gamma(float(gammas[-1]))
    form = fr.closed_loop_schur
    assert form is fr.closed_loop_schur
    assert np.array_equal(form.matrix, fr.closed_loop)
    acl = fr.closed_loop
    a_d = stack(ts, nm).a_diag
    a_d_form = solvers.SchurForm.of(a_d)
    rng = np.random.default_rng(17)
    q = acl.shape[0]
    w = random_spd(rng, q)
    c = rng.standard_normal((q, q))
    pairs = [
        (solvers.solve_lyapunov(form, w), kron_sylvester(acl, acl.T, -w)),
        (solvers.solve_lyapunov(form.T, w), kron_sylvester(acl.T, acl, -w)),
        (solvers.solve_sylvester(form, a_d_form.T, c), kron_sylvester(acl, a_d.T, c)),
        (solvers.solve_sylvester(form.T, form, c), kron_sylvester(acl.T, acl, c)),
    ]
    for x, expected in pairs:
        assert np.linalg.norm(x - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))


# ---------------------------------------------------------------------------
# Recursive blocked Bartels-Stewart kernel
# ---------------------------------------------------------------------------


def schur_factor(n, seed=0, scale=1.0):
    """The real Schur form (``gees``, unsorted) of a random ``n x n`` matrix.

    Its eigenvalues have real parts in about ``scale * [-3 sqrt(n), -sqrt(n)]``.
    """
    g = np.random.default_rng((n, seed)).standard_normal((n, n))
    return solvers.SchurForm.of(scale * (g - 2.0 * np.sqrt(n) * np.eye(n)))


def unblocked(a, b, f):
    """``y / scale`` from one LAPACK ``trsyl`` call on the whole quasi-triangular equation."""
    trana, tranb = ("T" if form.transposed else "N" for form in (a, b))
    y, scale, info = scipy.linalg.lapack.dtrsyl(a.t, b.t, f, trana=trana, tranb=tranb)
    assert info >= 0
    return y / scale


def blocked(a, b, f, symmetric=False):
    """``y / scale`` from the recursive kernel, run on a copy of ``f``."""
    y = f.copy()
    trana, tranb = ("T" if form.transposed else "N" for form in (a, b))
    if symmetric:
        scale = solvers._solve_symmetric(a.t, y, trana, y)
    else:
        scale = solvers._solve_blocks(a.t, b.t, y, trana, tranb, y)
    return y / scale


def assert_close(x, expected, rtol):
    assert np.linalg.norm(x - expected) <= rtol * np.linalg.norm(expected)


ORIENTATIONS = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("orientation", ORIENTATIONS, ids=["NN", "TN", "NT", "TT"])
@pytest.mark.parametrize("n, m", [(33, 12), (64, 65), (100, 33), (130, 64)])
def test_blocked_sylvester_matches_one_trsyl_call(n, m, orientation):
    a, b = schur_factor(n), schur_factor(m, seed=1)
    a, b = (form.T if flip else form for form, flip in zip((a, b), orientation))
    f = np.random.default_rng((n, m)).standard_normal((n, m))
    x = blocked(a, b, f)
    assert_close(x, unblocked(a, b, f), 1e-12)
    if max(n, m) <= 48:
        op_a, op_b = (form.t.T if form.transposed else form.t for form in (a, b))
        assert_close(x, kron_sylvester(op_a, op_b, f), 1e-12)


@pytest.mark.parametrize("transposed", [False, True], ids=["T Y + Y T'", "T' Y + Y T"])
@pytest.mark.parametrize("n", [33, 64, 65, 100, 130])
def test_blocked_lyapunov_matches_one_trsyl_call(n, transposed):
    form = schur_factor(n, seed=4)
    a = form.T if transposed else form
    g = np.random.default_rng(n).standard_normal((n, n))
    f = g + g.T
    x = blocked(a, a.T, f, symmetric=True)
    assert_close(x, unblocked(a, a.T, f), 1e-12)
    if n <= 48:
        op_t = form.t.T if transposed else form.t
        assert_close(x, kron_sylvester(op_t, op_t.T, f), 1e-12)


def test_split_moves_past_a_bump_on_the_midpoint():
    # Seed 4 puts a 2x2 bump (a complex pair) on rows 31-32 of the 65 x 65 factor.
    t = schur_factor(65, seed=4).t
    assert t[32, 31] != 0.0
    assert solvers._halves(t, True) == (slice(None, 33), slice(33, None))
    assert solvers._halves(t, False) == (slice(33, None), slice(None, 33))
    assert solvers._halves(t[:32, :32], True)[0] == slice(None, 16)


@pytest.mark.parametrize("symmetric", [False, True], ids=["sylvester", "lyapunov"])
def test_blocked_solve_folds_a_leaf_scale_into_one(symmetric, monkeypatch):
    # Eigenvalue sums below 1 in modulus and a right-hand side of 1e295: trsyl
    # scales its blocks down to avoid overflow, and the folded result is still
    # the unscaled solution.
    a = schur_factor(70, scale=0.02)
    b = a.T if symmetric else schur_factor(40, seed=1, scale=0.02)
    g = np.random.default_rng(3).standard_normal((70, b.t.shape[0]))
    f = 1e295 * (g + g.T if symmetric else g)
    scales = []
    real = scipy.linalg.lapack.dtrsyl

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        scales.append(out[1])
        return out

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", spy)
    x = blocked(a, b, f, symmetric)
    assert len(scales) > 1 and min(scales) < 1.0
    monkeypatch.undo()
    expected = unblocked(a, b, f)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(expected))
    assert_close(x / 1e295, expected / 1e295, 1e-12)


def test_preset_solves_make_one_trsyl_call_on_the_whole_factors(case1, monkeypatch):
    # case1's closed loop is 24 x 24, inside one block: every solve is exactly
    # today's single trsyl call on the full factors.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    form = fr.closed_loop_schur
    a_d_form = solvers.SchurForm.of(stack(ts, nm).a_diag)
    assert form.t.shape == (24, 24)
    calls = []
    real = scipy.linalg.lapack.dtrsyl

    def spy(a, b, c, **kwargs):
        calls.append((a, b, c.shape, kwargs))
        return real(a, b, c, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", spy)
    rng = np.random.default_rng(19)
    for a, b, rhs in [
        (form, form.T, -random_spd(rng, 24)),
        (form.T, form, -np.eye(24)),
        (form, a_d_form.T, rng.standard_normal((24, 24))),
    ]:
        calls.clear()
        solvers._sylvester_trsyl(a, b, rhs)
        assert len(calls) == 1
        t_a, t_b, shape, kwargs = calls[0]
        assert t_a is a.t and t_b is b.t and shape == (24, 24)
        assert kwargs == {"trana": "T" if a.transposed else "N",
                          "tranb": "T" if b.transposed else "N"}


def ring_chord_filter(nodes, scale):
    sc = ring_chord_network(nodes)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    return build_filter(nm, ts, topo, scale * gamma_threshold(nm, topo)), ts, nm


@pytest.mark.parametrize("nodes, scale", [(25, 100.0), (50, 1.05)])
def test_steady_state_on_large_ring_chord_networks(nodes, scale):
    # At 25 nodes and 100x the threshold ||closed_loop||_2 is about 1e7; the
    # first solve misses the residual contract by rounding alone (about 5x)
    # and the refinement step brings it under.
    fr, ts, nm = ring_chord_filter(nodes, scale)
    ss = solvers.steady_state(fr, ts, nm)
    for key, residual in ss.residuals.items():
        assert residual <= 1e-9 * (1.0 + np.linalg.norm(getattr(ss, key))), key
    assert trace_bounds(fr, ss, deviations(ts, nm)).sandwich_holds


def test_steady_state_contract_out_of_reach_at_50_nodes_stiff():
    # At 50 nodes and 100x the threshold ||closed_loop||_2 is about 7e7.  The
    # residual of a double-precision solution then stalls at about twice the
    # fixed contract 1e-9 (1 + ||x||_F), however many refinement steps are
    # taken, so the solve is refused rather than returned.
    fr, ts, nm = ring_chord_filter(50, 100.0)
    with pytest.raises(solvers.SolverError, match="violates the solver contract"):
        solvers.steady_state(fr, ts, nm)


@functools.lru_cache(maxsize=None)
def ring_chord_base(nodes, seed):
    sc = ring_chord_network(nodes, seed)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    threshold = gamma_threshold(nm, topo)
    return build_filter(nm, ts, topo, threshold), ts, nm, threshold, stack(ts, nm).a_diag


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nodes=st.integers(9, 30),
    seed=st.integers(0, 1),
    scale=st.floats(np.log(1.05), np.log(100.0)).map(np.exp),
)
def test_property_steady_state_meets_its_residual_contracts(nodes, seed, scale):
    """Claim: a returned steady state meets the 1e-9 contract and a 1e-12 backward error.

    Stacked dimensions 36-120 run the recursive kernel.  The backward error
    ``||residual||_F / ((||a||_F + ||b||_F) ||x||_F)`` is the benchmark's
    output check on generated networks.
    """
    base, ts, nm, threshold, a_d = ring_chord_base(nodes, seed)
    fr = base.with_gamma(scale * threshold)
    try:
        ss = solvers.steady_state(fr, ts, nm)
    except solvers.SolverError:
        return
    acl, a_d = np.linalg.norm(fr.closed_loop), np.linalg.norm(a_d)
    coefficients = {"state_cov": 2.0 * a_d, "cross_cov": acl + a_d}
    for key, residual in ss.residuals.items():
        x = np.linalg.norm(getattr(ss, key))
        assert residual <= 1e-9 * (1.0 + x), key
        assert residual <= 1e-12 * coefficients.get(key, 2.0 * acl) * x, key


def test_library_call_shapes_of_a_network_benchmark_op():
    # The calls, argument order included, that an op on a generated network
    # makes: build the filter at the top gain, move it to another gain, solve
    # the steady state, bound its trace, and read the stacked true A.
    sc = ring_chord_network(6)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    gammas = np.sort(sc.resolve_gammas())
    base = dckf.build_filter(nm, ts, topo, float(gammas[-1]))
    fr = base.with_gamma(float(gammas[0]))
    ss = dckf.steady_state(fr, ts, nm)
    report = dckf.trace_bounds(fr, ss, dckf.deviations(ts, nm))
    assert report.sandwich_holds
    np.testing.assert_array_equal(dckf.stack(ts, nm).a_diag, np.kron(np.eye(6), ts.a))


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------


def test_steady_state_zero_deviation_indices_coincide(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    ss = solvers.steady_state(fr, ts, nm)
    np.testing.assert_allclose(ss.nominal_cov, ss.error_cov, atol=1e-12)
    assert ss.cross_cov is None and ss.state_cov is None
    assert tuple(ss.residuals) == ("error_cov", "nominal_cov")
    assert max(ss.residuals.values()) <= 1e-9


def test_steady_state_case2_singular(case2):
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    fr = build_filter(nm, ts, topo, 10.0)
    with pytest.raises(solvers.SingularEquationError):
        solvers.steady_state(fr, ts, nm)


def test_steady_state_rejects_unstable_closed_loop():
    # Two unstable modes, each seen by only one sensor: the local loops are
    # unstable and a vanishing consensus gain cannot rescue them.
    ts = TrueSystem(
        a=np.diag([1.0, 2.0]),
        q=0.1 * np.eye(2),
        sensors=[Sensor(c=[[1.0, 0.0]], r=[[0.2]]), Sensor(c=[[0.0, 1.0]], r=[[0.2]])],
        x0=np.zeros(2),
        sigma0=np.eye(2),
    )
    nm = NominalModel(a=ts.a, q=ts.q, sensors=ts.sensors)
    fr = build_filter(nm, ts, complete(2), gamma=1e-6)
    assert not np.all(np.linalg.eigvals(fr.closed_loop).real < 0)
    with pytest.raises(solvers.NotHurwitzError):
        solvers.steady_state(fr, ts, nm)


def test_steady_state_matches_long_horizon_ode():
    ts, nm, topo = two_sensor_pair()
    fr = build_filter(nm, ts, topo, 2.0)
    ss = solvers.steady_state(fr, ts, nm)
    grid = np.linspace(0.0, 30.0, 16)
    traj = solvers.propagate(fr, ts, grid)
    assert abs(np.trace(traj.error_cov[-1]) - np.trace(ss.error_cov)) <= 1e-6
    np.testing.assert_allclose(traj.error_cov[-1], ss.error_cov, atol=1e-7)
    np.testing.assert_allclose(traj.cross_cov[-1], ss.cross_cov, atol=1e-7)
    np.testing.assert_allclose(traj.state_cov[-1], ss.state_cov, atol=1e-7)


def test_steady_state_matches_long_horizon_ode_case1(case1):
    # The slowest time constant is the true state's (rate 0.2), so the
    # horizon must be long; the RK4 fixed point of the affine ODE is the
    # exact equilibrium, so a coarse stable step suffices.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    ss = solvers.steady_state(fr, ts, nm)
    assert tuple(ss.residuals) == ("state_cov", "cross_cov", "error_cov", "nominal_cov")
    grid = np.linspace(0.0, 90.0, 10)
    traj = solvers.propagate(fr, ts, grid)
    assert abs(np.trace(traj.error_cov[-1]) - np.trace(ss.error_cov)) <= 1e-6


@pytest.mark.parametrize("network", ["case1", "ring_chord_25"])
def test_steady_state_sweep_solves_the_stacked_moment_once(network, monkeypatch, request):
    # The stacked state's moment does not depend on the gain: a 20-gain sweep
    # factors a_diag and solves its Lyapunov equation once, and every result
    # is bitwise what a freshly built true system gives.
    sc = request.getfixturevalue("case1") if network == "case1" else ring_chord_network(25)
    ts = dataclasses.replace(sc.true_system)  # the fixture's system may already hold its moment
    nm, topo = sc.nominal, sc.topology
    gammas = np.sort(sc.resolve_gammas())
    assert gammas.size == 20
    base = build_filter(nm, ts, topo, float(gammas[-1]))
    filters = [base.with_gamma(float(g)) for g in gammas]
    counts = {"factor": 0, "solve": 0}
    real_of, real_lyapunov = solvers.SchurForm.of.__func__, solvers.solve_lyapunov

    def spy_of(cls, m):
        counts["factor"] += m is ts.a_diag
        return real_of(cls, m)

    def spy_lyapunov(m, w, **kwargs):
        counts["solve"] += w is ts.q_network
        return real_lyapunov(m, w, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solvers.SchurForm, "of", classmethod(spy_of))
        patch.setattr(solvers, "solve_lyapunov", spy_lyapunov)
        results = [solvers.steady_state(fr, ts, nm) for fr in filters]
    assert counts == {"factor": 1, "solve": 1}
    _, moment, residual = ts.stacked_moment
    assert not moment.flags.writeable
    np.testing.assert_array_equal(
        moment, solvers.solve_lyapunov(solvers.SchurForm.of(ts.a_diag), ts.q_network)
    )
    for fr, ss in zip(filters, results):
        fresh = solvers.steady_state(fr, dataclasses.replace(ts), nm)
        assert ss.state_cov is moment and ss.residuals["state_cov"] == residual
        for field in ("nominal_cov", "error_cov", "cross_cov", "state_cov"):
            assert np.array_equal(getattr(ss, field), getattr(fresh, field)), field
        assert ss.residuals == fresh.residuals


def test_unstable_truth_raises_on_every_call_and_caches_nothing():
    ts, nm, topo = two_sensor_pair()
    ts = dataclasses.replace(ts, a=[[0.5]])
    fr = build_filter(nm, ts, topo, 2.0)
    assert not fr.mismatch_is_zero
    for _ in range(3):
        with pytest.raises(solvers.NotHurwitzError, match=r"^true state matrix \(required"):
            solvers.steady_state(fr, ts, nm)
    assert "stacked_moment" not in ts.__dict__


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def test_propagate_zero_deviation_trajectories_coincide(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    grid = np.linspace(0.0, 2.0, 11)
    traj = solvers.propagate(fr, ts, grid)
    np.testing.assert_allclose(traj.nominal_cov, traj.error_cov, atol=1e-10)


def test_propagate_preserves_symmetry(case1):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    grid = np.linspace(0.0, 1.0, 6)
    traj = solvers.propagate(fr, ts, grid)
    for field in (traj.nominal_cov, traj.error_cov, traj.state_cov):
        for m in field:
            assert np.linalg.norm(m - m.T) <= 1e-9


def test_propagate_agrees_with_augmented_system(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    grid = np.linspace(0.0, 5.0, 26)
    traj = rk4_propagate(fr, ts, nm, grid, dt=1e-3)
    joint = solvers.propagate(fr, ts, grid)
    assert np.max(np.abs(joint.error_cov - traj.error_cov)) <= 1e-8
    assert np.max(np.abs(joint.cross_cov - traj.cross_cov)) <= 1e-8
    assert np.max(np.abs(joint.state_cov - traj.state_cov)) <= 1e-8 * (
        1.0 + np.max(np.abs(traj.state_cov))
    )


def test_propagate_case2_projection_growth(case2):
    # The replicated blind mode grows linearly at rate
    # sensors^2 * (mode ' true q mode); the nominal projection stays flat.
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    fr = build_filter(nm, ts, topo, 10.0)
    grid = np.linspace(0.0, 15.0, 31)
    traj = solvers.propagate(fr, ts, grid, init=case2.initial_state())
    v = np.kron(np.ones(6), [1.0, 0.0, 0.0, 0.0])
    proj_err = np.array([v @ m @ v for m in traj.error_cov])
    proj_nom = np.array([v @ m @ v for m in traj.nominal_cov])
    window = grid >= 5.0
    slope = np.polyfit(grid[window], proj_err[window], 1)[0]
    assert slope == pytest.approx(36 * 0.03, rel=1e-6)
    assert np.max(np.abs(proj_nom - proj_nom[0])) <= 1e-8


def test_propagate_case2_full_horizon_growth(case2):
    # The marginal closed loop over the preset's whole 50 s ODE grid.
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    fr = build_filter(nm, ts, topo, float(case2.resolve_gammas()[0]))
    grid = case2.ode.grid()
    assert grid[-1] == 50.0
    traj = solvers.propagate(fr, ts, grid, init=case2.initial_state())
    v = np.kron(np.ones(6), [1.0, 0.0, 0.0, 0.0])
    proj_err = np.array([v @ m @ v for m in traj.error_cov])
    proj_nom = np.array([v @ m @ v for m in traj.nominal_cov])
    window = grid >= 5.0
    slope = np.polyfit(grid[window], proj_err[window], 1)[0]
    assert slope == pytest.approx(36 * 0.03, rel=1e-6)
    assert np.max(np.abs(proj_nom - proj_nom[0])) <= 1e-8


def test_propagate_case1_stiff_top_gain_matches_oracle(case1):
    # Top gain of the preset, 100x the Hurwitz threshold: the exact flow
    # stays finite and fast, and matches the substep-capped RK4 oracle.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    gammas = case1.resolve_gammas()
    fr = build_filter(nm, ts, topo, float(gammas[-1]))
    assert fr.gamma == pytest.approx(100.0 * fr.gamma_min, rel=1e-9)
    grid = np.linspace(0.0, 2.0, 21)
    start = time.perf_counter()
    traj = solvers.propagate(fr, ts, grid, init=case1.initial_state())
    assert time.perf_counter() - start < 1.0
    oracle = rk4_propagate(fr, ts, nm, grid, dt=case1.ode.dt, init=case1.initial_state())
    for field in ("nominal_cov", "error_cov", "cross_cov", "state_cov"):
        got, want = getattr(traj, field), getattr(oracle, field)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_propagate_reports_growth_rate(case2):
    ts, nm, topo = case2.true_system, case2.nominal, case2.topology
    fr = build_filter(nm, ts, topo, 10.0)
    grid = np.linspace(0.0, 6.0, 13)
    traj = solvers.propagate(fr, ts, grid, init=case2.initial_state())
    assert np.all(traj.error_trace_rate[-4:] > 0)


def test_propagate_grid_validation(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    with pytest.raises(ValueError):
        solvers.propagate(fr, ts, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        solvers.propagate(fr, ts, np.array([0.0]))


def test_default_initial_state_structure(baseline):
    ts = baseline.true_system
    init = solvers.default_initial_state(ts)
    block = init.error_cov[:4, :4]
    np.testing.assert_allclose(block, 0.1 * np.eye(4), atol=1e-14)
    np.testing.assert_allclose(init.error_cov[:4, 4:8], 0.1 * np.eye(4), atol=1e-14)
    expected_state = 0.1 * np.eye(4) + np.outer(ts.x0, ts.x0)
    np.testing.assert_allclose(init.state_cov[:4, :4], expected_state, atol=1e-14)

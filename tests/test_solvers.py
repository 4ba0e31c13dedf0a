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
from dckf.model import NominalModel, Sensor, TrueSystem, deviations, stack
from conftest import (
    closed_form_flow, complete, joint_flow, joint_system, kron_sylvester,
    random_assumption2_setup, random_spd, ring_chord_network, rk4_propagate,
)


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


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_property_care_meets_its_contract_on_nominal_models(seed):
    """Claim: ``solve_care`` returns a stabilizing PSD ``P`` within its residual contract.

    The models are ``random_assumption2_setup``'s nominal ones (n from 2 to 4,
    an observable pair, PD process noise), on which the stabilizing solution
    exists: ``||A P + P A' + Q - P C'R^-1 C P||_F <= 1e-8 (1 + ||P||_F^2)``,
    ``P`` is PSD and ``A - P C'R^-1 C`` is Hurwitz.
    """
    nm, _ = random_assumption2_setup(np.random.default_rng(seed))
    a, c, r, q = nm.a, nm.c_stack, nm.r_diag, nm.q
    p = solvers.solve_care(a, c, r, q)
    gram = c.T @ np.linalg.solve(r, c)
    residual = np.linalg.norm(a @ p + p @ a.T + q - p @ gram @ p)
    assert residual <= 1e-8 * (1.0 + np.linalg.norm(p) ** 2)
    assert np.linalg.eigvalsh(p)[0] >= -1e-10 * max(1.0, np.linalg.norm(p, 2))
    assert np.max(np.linalg.eigvals(a - p @ gram).real) < 0


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


def test_null_space_is_scipys_bitwise(case2):
    # The Riccati solve calls LAPACK gesdd as scipy.linalg.null_space does,
    # without scipy's input check, and must return the very same basis.
    rng = np.random.default_rng(36)
    neutral = solvers._neutral_modes(case2.nominal.a, case2.nominal.q)
    inputs = [
        rng.standard_normal((3, 6)),  # full row rank
        rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6)),  # rank 2 of 4 rows
        rng.standard_normal((1, 4)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # square and singular
        rng.standard_normal((3, 3)),  # square and regular: an empty null space
        neutral.T,  # what case2's neutral-mode deflation passes
    ]
    for m in inputs:
        got, want = solvers._null_space(m), scipy.linalg.null_space(m)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


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


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def block_upper(rng, *blocks):
    """A random upper block-triangular matrix with ``blocks`` on its diagonal."""
    t = np.triu(rng.standard_normal((sum(b.shape[0] for b in blocks),) * 2))
    start = 0
    for b in blocks:
        stop = start + b.shape[0]
        t[start:stop, start:stop] = b
        t[stop:, start:stop] = 0.0
        start = stop
    return t


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 35),
    rest=st.integers(0, 35),
)
def test_property_singular_equations_are_refused_through_the_recursion(seed, k, rest):
    """Claim: an equation with an eigenvalue sum of exactly zero raises SingularEquationError.

    The Lyapunov matrix is ``Q [[B, *, *], [0, -B', *], [0, 0, C]] Q'`` with a
    symmetric right-hand side, and the Sylvester pair is ``B`` and
    ``P [[-B', *], [0, D]] P'``, for random orthogonal ``Q`` and ``P``; at up
    to 105 and 71 rows they are past one ``trsyl`` block, so the symmetric
    and blocked recursions would run on them.  Only the spectra check
    catches them.  Without it, 276 of 300 such Lyapunov and 300 of 300 such
    Sylvester equations, drawn the same way, were "solved" within the
    residual contract; with trsyl's ``INFO = 1`` taken as the singularity
    signal instead, 253 and 193 still were.  With both off, case2's error
    solve met the residual contract with a trace of -7.9e15.
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, k))
    blocks = (b, -b.T) + ((rng.standard_normal((rest, rest)),) if rest else ())
    q = random_orthogonal(rng, 2 * k + rest)
    a = q @ block_upper(rng, *blocks) @ q.T
    w = rng.standard_normal(a.shape)
    with pytest.raises(solvers.SingularEquationError):
        solvers.solve_lyapunov(a, w + w.T)
    d = rng.standard_normal((rest + 1, rest + 1))
    p = random_orthogonal(rng, k + rest + 1)
    other = p @ block_upper(rng, -b.T, d) @ p.T
    with pytest.raises(solvers.SingularEquationError):
        solvers.solve_sylvester(b, other, rng.standard_normal((k, k + rest + 1)))


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
    for a, b, rhs, symmetric in [
        (form, form.T, -random_spd(rng, 24), True),
        (form.T, form, -np.eye(24), True),
        (form, a_d_form.T, rng.standard_normal((24, 24)), False),
    ]:
        calls.clear()
        solvers._sylvester_trsyl(a, b, rhs, symmetric)
        assert len(calls) == 1
        t_a, t_b, shape, kwargs = calls[0]
        assert t_a is a.t and t_b is b.t and shape == (24, 24)
        assert kwargs == {"trana": "T" if a.transposed else "N",
                          "tranb": "T" if b.transposed else "N"}


def ring_chord_filter(nodes, scale):
    sc = ring_chord_network(nodes)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    return build_filter(nm, ts, topo, scale * gamma_threshold(nm, topo)), ts, nm


def contract_scales(fr, ts, nm, ss):
    """``(||a||_F + ||b||_F, ||c||_F)`` of each full nN equation, keyed as ``residuals``.

    The truth's reduced solves have the solution, drive and residual norms of
    the full equations and coefficient norms no larger, so the full
    equation's contract is at least as loose as the one the solve was held to.
    """
    norm, k = np.linalg.norm, fr.gain_diag
    acl = norm(fr.closed_loop)
    w_err = k @ ts.r_diag @ k.T + ts.q_network
    scales = {"nominal_cov": (2.0 * acl, norm(k @ nm.r_diag @ k.T + nm.q_network))}
    if ss.cross_cov is not None:
        f, a_d = fr.mismatch_diag, norm(ts.a_diag)
        w_err = w_err + f @ ss.cross_cov.T + ss.cross_cov @ f.T
        scales["state_cov"] = (2.0 * a_d, norm(ts.q_network))
        scales["cross_cov"] = (acl + a_d, norm(f @ ss.state_cov + ts.q_network))
    scales["error_cov"] = (2.0 * acl, norm(w_err))
    return scales


def meets_contract(residual, x, coefficients, drive):
    """The solver contract ``||R||_F <= 1e-14 ((||a||_F + ||b||_F) ||x||_F + ||c||_F)``."""
    return residual <= 1e-14 * (coefficients * x + drive)


@pytest.mark.parametrize("nodes, scale", [(25, 100.0), (50, 1.05)])
def test_steady_state_on_large_ring_chord_networks(nodes, scale):
    # At 25 nodes and 100x the threshold ||closed_loop||_2 is about 1e7.
    fr, ts, nm = ring_chord_filter(nodes, scale)
    ss = solvers.steady_state(fr, ts, nm)
    scales = contract_scales(fr, ts, nm, ss)
    for key, residual in ss.residuals.items():
        assert meets_contract(residual, np.linalg.norm(getattr(ss, key)), *scales[key]), key
    assert trace_bounds(fr, ss, deviations(ts, nm)).sandwich_holds


def test_steady_state_meets_the_contract_at_50_nodes_stiff():
    # At 50 nodes and 100x the threshold ||closed_loop||_2 is about 7e7, and
    # a fixed contract 1e-9 (1 + ||x||_F) would be out of reach of a double
    # precision solve.  The scale-relative contract accepts the first solve:
    # each residual meets the benchmark's 1e-12 backward error, the steady
    # traces agree with the adjoint solve, and the sandwich holds.
    fr, ts, nm = ring_chord_filter(50, 100.0)
    ss = solvers.steady_state(fr, ts, nm)
    scales = contract_scales(fr, ts, nm, ss)
    for key, residual in ss.residuals.items():
        x = np.linalg.norm(getattr(ss, key))
        assert meets_contract(residual, x, *scales[key]), key
        assert residual <= 1e-12 * scales[key][0] * x, key
    assert max(steady_trace_defects(fr, ts, nm)) <= 1e-13
    assert trace_bounds(fr, ss, deviations(ts, nm)).sandwich_holds


@functools.lru_cache(maxsize=None)
def ring_chord_base(nodes, seed):
    sc = ring_chord_network(nodes, seed)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    threshold = gamma_threshold(nm, topo)
    return build_filter(nm, ts, topo, threshold), ts, nm, threshold


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nodes=st.integers(9, 30),
    seed=st.integers(0, 1),
    scale=st.floats(np.log(1.05), np.log(100.0)).map(np.exp),
)
def test_property_steady_state_meets_its_residual_contracts(nodes, seed, scale):
    """Claim: a returned steady state meets the solver contract and a 1e-12 backward error.

    Stacked dimensions 36-120 run the recursive kernel.  The backward error
    ``||residual||_F / ((||a||_F + ||b||_F) ||x||_F)`` is the benchmark's
    output check on generated networks.
    """
    base, ts, nm, threshold = ring_chord_base(nodes, seed)
    fr = base.with_gamma(scale * threshold)
    try:
        ss = solvers.steady_state(fr, ts, nm)
    except solvers.SolverError:
        return
    scales = contract_scales(fr, ts, nm, ss)
    for key, residual in ss.residuals.items():
        x = np.linalg.norm(getattr(ss, key))
        assert meets_contract(residual, x, *scales[key]), key
        assert residual <= 1e-12 * scales[key][0] * x, key


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
def test_steady_state_solves_the_replicated_truth_at_its_own_size(network, monkeypatch, request):
    # Every node estimates the same true state, so over a 20-gain sweep the
    # truth's equations are n x n (moment) and nN x n (cross term): nothing
    # factors a_diag, and every coefficient other than the closed loop has n
    # rows.  The results match the nN x nN solves, and the nN residuals of the
    # returned matrices meet the solver contract and the benchmark's 1e-12
    # backward error.
    sc = request.getfixturevalue("case1") if network == "case1" else ring_chord_network(25)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    gammas = np.sort(sc.resolve_gammas())
    assert gammas.size == 20
    threshold = gamma_threshold(nm, topo)
    base = build_filter(nm, ts, topo, float(gammas[-1]))
    filters = [base.with_gamma(float(g)) for g in gammas]
    loops = {id(fr.closed_loop_schur.t) for fr in filters}
    factored, truth_rows = [], []
    real_of, real_sylvester = solvers.SchurForm.of.__func__, solvers.solve_sylvester

    def spy_of(cls, m):
        factored.append(m is ts.a_diag)
        return real_of(cls, m)

    def spy_sylvester(a, b, c, **kwargs):
        truth_rows.extend(m.matrix.shape[0] for m in (a, b) if id(m.t) not in loops)
        return real_sylvester(a, b, c, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solvers.SchurForm, "of", classmethod(spy_of))
        patch.setattr(solvers, "solve_sylvester", spy_sylvester)
        results = [solvers.steady_state(fr, ts, nm) for fr in filters]
    assert not any(factored)
    # Per gain: both sides of the moment's Lyapunov equation, one of the cross term's.
    assert truth_rows == [ts.n] * (3 * gammas.size)
    a_d, q_net = ts.a_diag, ts.q_network
    a_d_form = solvers.SchurForm.of(a_d)
    moment = solvers.solve_lyapunov(a_d_form, q_net)
    a_d_norm = np.linalg.norm(a_d)
    for gamma, fr, ss in zip(gammas, filters, results):
        f, acl = fr.mismatch_diag, fr.closed_loop
        if gamma <= 10.0 * threshold * (1.0 + 1e-12):
            cross = solvers.solve_sylvester(fr.closed_loop_schur, a_d_form.T, -(f @ moment + q_net))
            assert_close(ss.state_cov, moment, 1e-12)
            assert_close(ss.cross_cov, cross, 1e-12)
        x, z = ss.state_cov, ss.cross_cov
        for drive, terms, solution, coefficient in [
            (q_net, a_d @ x + x @ a_d.T, x, 2.0 * a_d_norm),
            (f @ x + q_net, acl @ z + z @ a_d.T, z, np.linalg.norm(acl) + a_d_norm),
        ]:
            r, norm = np.linalg.norm(terms + drive), np.linalg.norm(solution)
            assert meets_contract(r, norm, coefficient, np.linalg.norm(drive))
            assert r <= 1e-12 * coefficient * norm


def steady_trace_defects(fr, ts, nm):
    """``|tr(P) + <x, W>_F| / tr(P)`` for the error and nominal covariances.

    ``x`` solves ``acl' x + x acl = I``, so ``tr(P) = -<x, W>_F`` whenever
    ``acl P + P acl' + W = 0``; for the error covariance ``W`` includes the
    mismatch terms ``F S' + S F'`` of the cross term ``S``.
    """
    ss = solvers.steady_state(fr, ts, nm)
    form = fr.closed_loop_schur
    x = solvers.solve_lyapunov(form.T, -np.eye(form.matrix.shape[0]))
    k = fr.gain_diag
    w_err = k @ ts.r_diag @ k.T + ts.q_network
    if ss.cross_cov is not None:
        f = fr.mismatch_diag
        w_err = w_err + f @ ss.cross_cov.T + ss.cross_cov @ f.T
    w_nom = k @ nm.r_diag @ k.T + nm.q_network
    return [
        abs(np.trace(p) + np.vdot(x, w)) / np.trace(p)
        for p, w in ((ss.error_cov, w_err), (ss.nominal_cov, w_nom))
    ]


@pytest.mark.parametrize("preset", ["case1", "baseline", "case3"])
def test_steady_traces_agree_with_the_adjoint_solve_at_every_preset_gain(preset, request):
    sc = request.getfixturevalue(preset)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    gammas = sc.resolve_gammas()
    base = build_filter(nm, ts, topo, float(gammas[0]))
    for gamma in gammas:
        assert max(steady_trace_defects(base.with_gamma(float(gamma)), ts, nm)) <= 1e-13, gamma


@pytest.mark.parametrize("scale", [1.05, 10.0])
def test_steady_traces_agree_with_the_adjoint_solve_on_25_nodes(scale):
    fr, ts, nm = ring_chord_filter(25, scale)
    assert max(steady_trace_defects(fr, ts, nm)) <= 1e-13


def test_unstable_truth_raises_on_every_call_and_caches_nothing():
    ts, nm, topo = two_sensor_pair()
    ts = dataclasses.replace(ts, a=[[0.5]])
    fr = build_filter(nm, ts, topo, 2.0)
    assert not fr.mismatch_is_zero
    for _ in range(3):
        with pytest.raises(solvers.NotHurwitzError, match=r"^true state matrix \(required"):
            solvers.steady_state(fr, ts, nm)


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
    for field in (traj.nominal_cov, traj.error_cov):
        for m in field:
            assert np.linalg.norm(m - m.T) <= 1e-9


def test_propagate_agrees_with_augmented_system(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    grid = np.linspace(0.0, 5.0, 26)
    _, error, cross, state = rk4_propagate(fr, ts, nm, grid, dt=1e-3)
    traj = solvers.propagate(fr, ts, grid)
    joint_cross, joint_state = joint_flow(fr, ts, grid)
    assert np.max(np.abs(traj.error_cov - error)) <= 1e-8
    assert np.max(np.abs(joint_cross - cross)) <= 1e-8
    assert np.max(np.abs(joint_state - state)) <= 1e-8 * (1.0 + np.max(np.abs(state)))


def spy_flow_sizes(monkeypatch):
    """Record the drift size of every ``_covariance_flow`` call into the returned list."""
    sizes, real_flow = [], solvers._covariance_flow

    def spy_flow(drift, drive, init, grid):
        sizes.append(drift.shape[0])
        return real_flow(drift, drive, init, grid)

    monkeypatch.setattr(solvers, "_covariance_flow", spy_flow)
    return sizes


def test_propagate_steps_the_truth_at_its_own_size(case1, monkeypatch):
    # Every node estimates the same true state, so the joint flow is that of
    # [e; x], of size nN + n, after the nN nominal flow; no flow of the
    # error and N copies of x (size 2nN) is stepped.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    assert not fr.mismatch_is_zero
    sizes = spy_flow_sizes(monkeypatch)
    solvers.propagate(fr, ts, np.linspace(0.0, 1.0, 3))
    q_dim = ts.n * ts.sensor_count
    assert sizes == [q_dim, q_dim + ts.n]


@pytest.mark.parametrize("preset", ["baseline", "case2", "case3"])
def test_propagate_steps_no_truth_with_zero_feedthrough(preset, monkeypatch, request):
    # As in steady_state, the true state enters the error only through the
    # mismatch feedthrough: without it, exactly two nN flows run on the
    # closed loop, nominal and error.
    sc = request.getfixturevalue(preset)
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    fr = build_filter(nm, ts, topo, float(sc.resolve_gammas()[0]))
    assert fr.mismatch_is_zero
    sizes = spy_flow_sizes(monkeypatch)
    solvers.propagate(fr, ts, np.linspace(0.0, 1.0, 3), init=sc.initial_state())
    assert sizes == [ts.n * ts.sensor_count] * 2


def test_propagate_truth_moments_start_from_x0_and_sigma0(case1, case3):
    # With nonzero feedthrough (case1's filter) the truth's initial moments
    # feed the error.  case3's initial state overrides error_cov, but the
    # truth's moments are those of unbiased initial estimates independent of
    # x(0): E[e x'] = sigma0 in every block and E[x x'] = sigma0 + x0 x0'.
    # The closed-form flow of the joint system from exactly these moments
    # matches the error block; a zero cross moment or sigma0 alone for
    # E[x x'] moves it by several percent.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    assert not fr.mismatch_is_zero and np.any(ts.x0)
    init = case3.initial_state()
    np.testing.assert_array_equal(init.error_cov, np.eye(24))
    grid = np.linspace(0.0, 2.0, 11)
    traj = solvers.propagate(fr, ts, grid, init=init)
    np.testing.assert_array_equal(traj.error_cov[0], np.eye(24))
    drift, drive, _ = joint_system(fr, ts, init)
    cross = np.kron(np.ones((ts.sensor_count, 1)), ts.sigma0)
    start = np.block([[init.error_cov, cross], [cross.T, ts.sigma0 + np.outer(ts.x0, ts.x0)]])
    want = closed_form_flow(drift, drive, start, grid)[:, :24, :24]
    assert np.max(np.abs(traj.error_cov - want)) <= 1e-8 * np.max(np.abs(want))


def test_propagate_steps_a_truth_that_grows_inside_the_hurwitz_band(case1):
    # A true eigenvalue of +1e-7 lies inside the Hurwitz band of diag(-1000, ...)
    # (1e-6), yet makes the joint step grow by 5e-8 per 0.5: more than the
    # growth check's 1e-8 share, and right.  The flow is stepped, and over
    # t <= 10 it stays within 1e-6 of the truth whose eigenvalue is -1e-7.
    nm, topo = case1.nominal, case1.topology
    grid = np.linspace(0.0, 10.0, 21)
    traces = []
    for slow in (1e-7, -1e-7):
        ts = dataclasses.replace(case1.true_system, a=np.diag([-1000.0, slow, -1.0, -2.0]))
        fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
        assert not fr.mismatch_is_zero
        traces.append(np.einsum("kii->k", solvers.propagate(fr, ts, grid).error_cov))
    np.testing.assert_allclose(traces[0], traces[1], rtol=1e-6)


@pytest.mark.parametrize("scale, rtol", [(1.05, 1e-9), (10.0, 5e-9)])
def test_propagate_reaches_steady_state_on_a_25_node_network(scale, rtol):
    # At t = 400 the error block of the exact flow has settled onto the
    # steady-state solve.  What is left is the rounding that Phi's squarings
    # amplify: at most 3.8e-10 relative at 1.05x and 1.3e-9 at 10x, for this
    # flow and for the 2nN flow of [e; 1 x x] alike.
    fr, ts, nm = ring_chord_filter(25, scale)
    ss = solvers.steady_state(fr, ts, nm)
    traj = solvers.propagate(fr, ts, np.linspace(0.0, 400.0, 101))
    assert_close(traj.error_cov[-1], ss.error_cov, rtol)


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
    # stays finite and fast, and matches the closed-form oracle.  Both drifts
    # are Hurwitz: the closed loop above the threshold, and the joint drift,
    # whose truth block is case1's true A (eigenvalue -0.1).
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    gammas = case1.resolve_gammas()
    fr = build_filter(nm, ts, topo, float(gammas[-1]))
    assert fr.gamma == pytest.approx(100.0 * fr.gamma_min, rel=1e-9)
    grid = np.linspace(0.0, 2.0, 21)
    init = case1.initial_state()
    start = time.perf_counter()
    traj = solvers.propagate(fr, ts, grid, init=init)
    assert time.perf_counter() - start < 1.0
    q_dim = fr.closed_loop.shape[0]
    w_nom = fr.gain_diag @ nm.r_diag @ fr.gain_diag.T + nm.q_network
    oracle = {
        "nominal_cov": closed_form_flow(fr.closed_loop, w_nom, init.nominal_cov, grid),
        "error_cov": closed_form_flow(*joint_system(fr, ts, init), grid)[:, :q_dim, :q_dim],
    }
    for field, want in oracle.items():
        got = getattr(traj, field)
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


@pytest.mark.parametrize("name", ["nominal_cov", "error_cov"])
def test_propagate_refuses_a_wrong_shaped_initial_covariance(baseline, name):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    init = dataclasses.replace(solvers.default_initial_state(ts), **{name: np.eye(4)})
    with pytest.raises(ValueError, match=f"^initial {name} must be 24x24, got"):
        solvers.propagate(fr, ts, np.linspace(0.0, 1.0, 3), init=init)


def test_default_initial_state_structure(baseline):
    ts = baseline.true_system
    init = solvers.default_initial_state(ts)
    block = init.error_cov[:4, :4]
    np.testing.assert_allclose(block, 0.1 * np.eye(4), atol=1e-14)
    np.testing.assert_allclose(init.error_cov[:4, 4:8], 0.1 * np.eye(4), atol=1e-14)

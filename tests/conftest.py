# dckf goes first: importing it defaults OPENBLAS_NUM_THREADS to 1, and
# OpenBLAS reads that only when numpy loads it, so a numpy imported earlier
# would run the suite with a second BLAS thread.
import dckf  # noqa: F401

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from dckf.scenario import load_scenario


@pytest.fixture(scope="session")
def baseline():
    return load_scenario("baseline")


@pytest.fixture(scope="session")
def case1():
    return load_scenario("case1")


@pytest.fixture(scope="session")
def case2():
    return load_scenario("case2")


@pytest.fixture(scope="session")
def case3():
    return load_scenario("case3")


def random_spd(rng, n, floor=0.3):
    m = rng.standard_normal((n, n))
    return m @ m.T + floor * np.eye(n)


def random_connected_topology(rng, n):
    from dckf.graph import Topology, is_connected

    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):  # random spanning tree
        adj[a, b] = adj[b, a] = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                adj[i, j] = adj[j, i] = 1.0
    topo = Topology(adj)
    assert is_connected(topo)
    return topo


def random_assumption2_setup(rng):
    """Random nominal model + connected graph with the structural conditions."""
    from dckf.model import NominalModel, Sensor

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


@st.composite
def mismatched_networks(draw, noise_only=False):
    """A valid mismatched network and a consensus gain: ``(ts, nm, topo, gamma)``.

    The nominal model and topology come from ``random_assumption2_setup``
    (n from 2 to 4, N from 2 to 5 connected sensors, an observable nominal
    pair).  The truth deviates at a drawn scale ``eps``: its A and each C by
    ``eps`` times a standard normal, each R and Q by ``eps`` times a random
    PSD matrix.  With ``noise_only`` only R and Q deviate.  Both state
    matrices are then shifted by ``-(max(0, alpha) + 0.2) I``, with ``alpha``
    the true A's spectral abscissa, so the true A is Hurwitz; a shift keeps
    observability and controllability.  ``gamma`` is 1.05 to 300 times the
    Hurwitz threshold, log-uniform.
    """
    from dckf.filtering import gamma_threshold
    from dckf.model import NominalModel, Sensor, TrueSystem

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = draw(st.sampled_from([0.0, 1e-3, 1e-2, 1e-1, 0.3]))
    nm, topo = random_assumption2_setup(rng)
    n = nm.n
    a_true = nm.a if noise_only else nm.a + eps * rng.standard_normal((n, n))
    shift = (max(0.0, float(np.linalg.eigvals(a_true).real.max())) + 0.2) * np.eye(n)
    nm = NominalModel(a=nm.a - shift, q=nm.q, sensors=nm.sensors)
    sensors = [
        Sensor(
            c=s.c if noise_only else s.c + eps * rng.standard_normal(s.c.shape),
            r=s.r + eps * random_spd(rng, s.m, floor=0.0),
        )
        for s in nm.sensors
    ]
    ts = TrueSystem(
        a=a_true - shift,
        q=nm.q + eps * random_spd(rng, n, floor=0.0),
        sensors=sensors,
        x0=np.zeros(n),
        sigma0=np.eye(n),
    )
    gamma = np.exp(draw(st.floats(np.log(1.05), np.log(300.0)))) * gamma_threshold(nm, topo)
    return ts, nm, topo, float(gamma)


def ring_chord_document(nodes, seed=0):
    """The scenario document of ``ring_chord_network(nodes, seed)``."""
    from dckf.scenario import preset_dict

    doc = preset_dict("case1")
    for block in ("true_system", "nominal"):
        sensors = doc[block]["sensors"]
        doc[block]["sensors"] = [sensors[k % len(sensors)] for k in range(nodes)]
    rng = np.random.default_rng((seed, nodes))
    edges = {tuple(sorted((i, (i + 1) % nodes))) for i in range(nodes)}
    target = len(edges) + nodes // 4
    while len(edges) < target:
        edges.add(tuple(sorted(int(v) for v in rng.choice(nodes, size=2, replace=False))))
    doc["name"] = f"ring-chord-{nodes}"
    doc["topology"] = {"nodes": nodes, "edges": [list(e) for e in sorted(edges)]}
    return doc


def ring_chord_network(nodes, seed=0):
    """case1's sensors cycled over a ring of ``nodes`` sensors plus ``nodes // 4`` random chords.

    The stacked dimension is 4 * nodes, and the Hurwitz threshold of such a
    network is large (2e5 at 25 nodes, 2e6 at 50), so ``||closed_loop||_2``
    reaches 1e7 to 7e7 at 100 times the threshold.
    """
    from dckf.scenario import parse_scenario

    return parse_scenario(ring_chord_document(nodes, seed))


def rk4_propagate(fr, ts, nm, grid, dt=1e-3, init=None):
    """Reference integrator: fixed-step classical RK4 on the four coupled blocks.

    This is the direct formulation (nominal, error, cross and state blocks
    integrated side by side at the full stacked size), independent of the
    exact joint flow in ``dckf.solvers``.  The cross and state blocks start
    from the moments of filters whose initial estimates are unbiased and
    independent of ``x(0)``: ``kron(11', sigma0)`` and
    ``kron(11', sigma0 + x0 x0')``.  Substeps are at most ``dt`` and are
    capped at ``1.25 / ||closed_loop||_2`` so stiff closed loops stay inside
    the RK4 stability region.  Returns a ``CovarianceTrajectory``.
    """
    from dckf import matkit
    from dckf.model import stack
    from dckf.solvers import CovarianceTrajectory, default_initial_state

    grid = np.asarray(grid, dtype=float)
    if init is None:
        init = default_initial_state(ts)
    st = stack(ts, nm)
    acl = fr.closed_loop
    f = fr.mismatch_diag
    a_d = st.a_diag
    ones = np.ones((ts.sensor_count, ts.sensor_count))
    u_q = np.kron(ones, ts.q)
    w_nom = fr.gain_diag @ st.r_diag_nom @ fr.gain_diag.T + np.kron(ones, nm.q)
    w_err = fr.gain_diag @ st.r_diag @ fr.gain_diag.T + u_q
    dt = min(dt, 1.25 / float(np.linalg.norm(acl, 2)))

    def rhs(su, se, s, x):
        dsu = acl @ su + su @ acl.T + w_nom
        dse = acl @ se + se @ acl.T + f @ s.T + s @ f.T + w_err
        ds = acl @ s + s @ a_d.T + f @ x + u_q
        dx = a_d @ x + x @ a_d.T + u_q
        return dsu, dse, ds, dx

    cross0 = np.kron(ones, ts.sigma0)
    state0 = np.kron(ones, ts.sigma0 + np.outer(ts.x0, ts.x0))
    state = tuple(
        np.asarray(m, dtype=float).copy()
        for m in (init.nominal_cov, init.error_cov, cross0, state0)
    )
    out = [np.empty((grid.size,) + acl.shape) for _ in range(4)]
    for o, v in zip(out, state):
        o[0] = v
    for k in range(grid.size - 1):
        span = grid[k + 1] - grid[k]
        n_sub = max(1, int(np.ceil(span / dt - 1e-12)))
        h = span / n_sub
        for _ in range(n_sub):
            d1 = rhs(*state)
            d2 = rhs(*(v + 0.5 * h * d for v, d in zip(state, d1)))
            d3 = rhs(*(v + 0.5 * h * d for v, d in zip(state, d2)))
            d4 = rhs(*(v + h * d for v, d in zip(state, d3)))
            su, se, s, x = (
                v + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                for v, a, b, c, d in zip(state, d1, d2, d3, d4)
            )
            state = (matkit.symmetrize(su), matkit.symmetrize(se), s, matkit.symmetrize(x))
        for o, v in zip(out, state):
            o[k + 1] = v
    traces = np.einsum("kii->k", out[1])
    return CovarianceTrajectory(
        time=grid,
        nominal_cov=out[0],
        error_cov=out[1],
        cross_cov=out[2],
        state_cov=out[3],
        error_trace_rate=np.gradient(traces, grid),
    )


def kron_sylvester(a, b, c):
    """Reference solve of ``a x + x b = c``: the dense Kronecker system on column-major vectors.

    Independent of the Schur path in ``dckf.solvers``; its cost grows as the
    sixth power of the size, so it serves small problems only.
    """
    n, m = a.shape[0], b.shape[0]
    coef = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(n))
    return np.linalg.solve(coef, c.reshape(-1, order="F")).reshape((n, m), order="F")


def closed_form_gap(fr, rel):
    """Reference gap trajectory of a ``RelationReport``, evaluated per grid point.

    With Z solving ``acl Z + Z acl' + drive = 0`` (``drive`` is
    ``rel.mismatch_drive``), the gap starting from ``rel.gap[0]`` is
    ``e^{acl dt} (gap0 - Z) e^{acl' dt} + Z``: one Lyapunov solve and one
    matrix exponential per grid point, independent of the stepped flow in
    ``dckf.solvers``.
    """
    from dckf import matkit
    from dckf.solvers import solve_lyapunov

    z_inf = solve_lyapunov(fr.closed_loop_schur, rel.mismatch_drive)
    out = np.empty_like(rel.gap)
    for k, t in enumerate(rel.time):
        phi = scipy.linalg.expm(fr.closed_loop * (t - rel.time[0]))
        out[k] = matkit.symmetrize(phi @ (rel.gap[0] - z_inf) @ phi.T + z_inf)
    return out


def stepwise_monte_carlo(ts, fr, cfg, trials=None, keep_trajectories=False):
    """Reference Monte Carlo: one Python iteration per time step.

    This is the step-by-step recursion the fused engine in ``dckf.sim``
    replaced, kept independent of it: the truth takes an Euler-Maruyama step,
    the filter its zero-order-hold step, and the noise of trial ``l`` comes
    from ``default_rng((seed, l))`` in 2048-row slabs (after one vector for the
    initial state).  ``trials`` defaults to all of ``cfg.trials``.

    Returns an ``MseSeries``; with ``keep_trajectories`` it returns
    ``(series, states, estimates, overflow)`` instead, where ``states`` is
    (trials, records, n), ``estimates`` (trials, records, sensors, n) and
    ``overflow`` the per-trial overflow step (-1 when finite).
    """
    from dckf import matkit
    from dckf.sim import MseSeries

    if trials is None:
        trials = range(cfg.trials)
    n, n_sensors = ts.n, ts.sensor_count
    c_stack_t = np.vstack([s.c for s in ts.sensors]).T
    m_total = c_stack_t.shape[1]
    q_half_t = matkit.sqrtm_psd(ts.q).T
    r_half_t = scipy.linalg.block_diag(*[matkit.sqrtm_psd(s.r) for s in ts.sensors]).T
    sigma0_half_t = matkit.sqrtm_psd(ts.sigma0).T
    q_dim = fr.closed_loop.shape[0]
    aug = np.zeros((q_dim + m_total, q_dim + m_total))
    aug[:q_dim, :q_dim] = fr.closed_loop * cfg.dt
    aug[:q_dim, q_dim:] = fr.gain_diag * cfg.dt
    exp_aug = matkit.expm(aug)
    step_t = exp_aug[:q_dim, :q_dim].T
    input_t = exp_aug[:q_dim, q_dim:].T

    batch = len(trials)
    rngs = [np.random.default_rng((cfg.seed, int(l))) for l in trials]
    dt = cfg.dt
    sqrt_dt = np.sqrt(dt)
    inv_sqrt_dt = 1.0 / sqrt_dt
    x = ts.x0 + np.stack([r.standard_normal(n) for r in rngs]) @ sigma0_half_t
    est = np.tile(ts.x0, (batch, n_sensors))
    record_steps = cfg.record_steps()
    times = record_steps * dt
    n_records = record_steps.size
    sensor_sse = np.full((batch, n_records, n_sensors), np.nan)
    overflow = np.full(batch, -1, dtype=int)
    traj_x = np.empty((batch, n_records, n))
    traj_e = np.empty((batch, n_records, n_sensors, n))
    slab, cols, record_ptr = 2048, n + m_total, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.step_count + 1):
            if record_ptr < n_records and k == record_steps[record_ptr]:
                est_blocks = est.reshape(batch, n_sensors, n)
                err = est_blocks - x[:, None, :]
                sse = np.einsum("bij,bij->bi", err, err)
                finite = np.isfinite(sse).all(axis=1)
                overflow[~finite & (overflow < 0)] = k
                ok = overflow < 0
                sensor_sse[ok, record_ptr, :] = sse[ok]
                traj_x[:, record_ptr] = x
                traj_e[:, record_ptr] = est_blocks
                record_ptr += 1
            if k == cfg.step_count:
                break
            if k % slab == 0:
                noise = np.stack([r.standard_normal((slab, cols)) for r in rngs])
            z = noise[:, k % slab, :n]
            w = noise[:, k % slab, n:]
            y = x @ c_stack_t + (w @ r_half_t) * inv_sqrt_dt
            est = est @ step_t + y @ input_t
            x = x + dt * (x @ ts.a.T) + sqrt_dt * (z @ q_half_t)

    good = overflow < 0
    used = int(np.sum(good))
    # Every mean is taken of the errors scaled by 2**-64 and scaled back,
    # which is exact, so finite errors near the top of the double range
    # cannot overflow it.
    scaled_sse = np.ldexp(sensor_sse[good], -64)
    scaled = scaled_sse.mean(axis=0)
    per_sensor = np.ldexp(scaled, 64)
    per_trial = scaled_sse.mean(axis=2)
    window = times >= 0.8 * cfg.horizon
    if not window.any():
        window[-1] = True
    steady_per_trial = per_trial[:, window].mean(axis=1)
    # The spread is taken relative to the largest trial, so squaring trial
    # MSEs near the top of the double range cannot overflow.
    top = float(np.max(steady_per_trial, initial=0.0)) or 1.0
    series = MseSeries(
        time=times,
        mse=np.ldexp(scaled.mean(axis=1), 64),
        per_sensor_mse=per_sensor,
        trials_used=used,
        steady_mse=float(np.ldexp(steady_per_trial.mean(), 64)) if used else float("nan"),
        steady_se=(
            float(np.ldexp((steady_per_trial / top).std(ddof=1) * top / np.sqrt(used), 64))
            if used > 1
            else float("nan")
        ),
        overflow_trials=tuple(
            (int(l), int(step)) for l, step in zip(trials, overflow) if step >= 0
        ),
    )
    if keep_trajectories:
        return series, traj_x, traj_e, overflow
    return series

import numpy as np
import pytest

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


def ring_chord_network(nodes, seed=0):
    """case1's sensors cycled over a ring of ``nodes`` sensors plus ``nodes // 4`` random chords.

    The stacked dimension is 4 * nodes, and the Hurwitz threshold of such a
    network is large (2e5 at 25 nodes, 2e6 at 50), so ``||closed_loop||_2``
    reaches 1e7 to 7e7 at 100 times the threshold.
    """
    from dckf.scenario import parse_scenario, preset_dict

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
    return parse_scenario(doc)


def rk4_propagate(fr, ts, nm, grid, dt=1e-3, init=None):
    """Reference integrator: fixed-step classical RK4 on the four coupled blocks.

    This is the direct formulation (nominal, error, cross and state blocks
    integrated side by side), independent of the exact joint flow in
    ``dckf.solvers``.  Substeps are at most ``dt`` and are capped at
    ``1.25 / ||closed_loop||_2`` so stiff closed loops stay inside the RK4
    stability region.  Returns a ``CovarianceTrajectory``.
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
    ones = matkit.ones_matrix(ts.sensor_count)
    u_q = matkit.kron(ones, ts.q)
    w_nom = fr.gain_diag @ st.r_diag_nom @ fr.gain_diag.T + matkit.kron(ones, nm.q)
    w_err = fr.gain_diag @ st.r_diag @ fr.gain_diag.T + u_q
    dt = min(dt, 1.25 / float(np.linalg.norm(acl, 2)))

    def rhs(su, se, s, x):
        dsu = acl @ su + su @ acl.T + w_nom
        dse = acl @ se + se @ acl.T + f @ s.T + s @ f.T + w_err
        ds = acl @ s + s @ a_d.T + f @ x + u_q
        dx = a_d @ x + x @ a_d.T + u_q
        return dsu, dse, ds, dx

    state = tuple(
        np.asarray(m, dtype=float).copy()
        for m in (init.nominal_cov, init.error_cov, init.cross_cov, init.state_cov)
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
    r_half_t = matkit.block_diag([matkit.sqrtm_psd(s.r) for s in ts.sensors]).T
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
    per_sensor = sensor_sse[good].mean(axis=0)
    per_trial = sensor_sse[good].mean(axis=2)
    window = times >= 0.8 * cfg.horizon
    if not window.any():
        window[-1] = True
    steady_per_trial = per_trial[:, window].mean(axis=1)
    # The spread is taken relative to the largest trial, so squaring trial
    # MSEs near the top of the double range cannot overflow.
    top = float(np.max(steady_per_trial, initial=0.0)) or 1.0
    series = MseSeries(
        time=times,
        mse=per_sensor.mean(axis=1),
        per_sensor_mse=per_sensor,
        trials_used=used,
        steady_mse=float(steady_per_trial.mean()) if used else float("nan"),
        steady_se=(
            float((steady_per_trial / top).std(ddof=1) * top / np.sqrt(used))
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

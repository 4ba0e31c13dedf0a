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

"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run with ``-s`` to
see them live) and checks its stated runtime budget.  Expensive shared
computations are cached at module scope so later criteria reuse them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dckf import solvers
from dckf.analysis import (
    asymptotic_fit,
    deviation_gap,
    divergence_test,
    relation_analysis,
    trace_bounds,
)
from dckf.filtering import build_filter, gamma_threshold
from dckf.model import deviations
from dckf.scenario import load_scenario
from dckf.sim import monte_carlo_mse, monte_carlo_sweep
from conftest import (
    closed_form_gap, kron_sylvester, random_assumption2_setup, random_spd, rk4_propagate,
)
from test_filtering import as_true
from test_solvers import random_care_instance

_CACHE: dict = {}


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} [{label}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num} [{label}]: PASS ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget"


def weakly_decreasing(values, rtol=1e-12):
    values = np.asarray(values, dtype=float)
    scale = np.maximum(np.abs(values[:-1]), 1.0)
    return bool(np.all(np.diff(values) <= rtol * scale))


def case1_sweep_rows():
    """Per-gain analysis of the case1 preset, Monte Carlo column included."""
    if "case1_sweep" in _CACHE:
        return _CACHE["case1_sweep"]
    sc = load_scenario("case1")
    ts, nm, topo = sc.true_system, sc.nominal, sc.topology
    dev = deviations(ts, nm)
    gammas = sc.resolve_gammas()
    fr = build_filter(nm, ts, topo, float(gammas[-1]))
    fit = asymptotic_fit(fr)
    realizations = [fr.with_gamma(float(g)) for g in gammas]
    # One shared set of trials drives every gain (common random numbers).
    mc = monte_carlo_sweep(ts, realizations, sc.sim_config())
    rows = []
    for g, frg, series in zip(gammas, realizations, mc):
        ss = solvers.steady_state(frg, ts, nm)
        rep = trace_bounds(frg, ss, dev)
        plain_fit = math.sqrt(max(fit.a1 + fit.b1 / g + fit.c1 / g**2, 0.0))
        weighted_fit = math.sqrt(max(fit.a2 + fit.b2 / g + fit.c2 / g**2, 0.0))
        upper2 = rep.tr_nominal + deviation_gap(frg, dev, plain_fit, weighted_fit)
        rows.append(
            {
                "gamma": float(g),
                "tr_nominal": rep.tr_nominal,
                "tr_error": rep.tr_error,
                "gap": rep.gap,
                "lower": rep.lower,
                "upper1": rep.upper,
                "upper2": upper2,
                "floor": rep.tr_nominal_floor,
                "mse": series.steady_mse,
            }
        )
    _CACHE["case1_sweep"] = rows
    return rows


def test_criterion_1_solver_fidelity():
    with criterion(1, "solver fidelity", 10.0):
        rng = np.random.default_rng(1001)
        for _ in range(100):
            a, c, r, q = random_care_instance(rng)
            p = solvers.solve_care(a, c, r, q)
            gram = c.T @ np.linalg.solve(r, c)
            residual = np.linalg.norm(a @ p + p @ a.T + q - p @ gram @ p)
            assert residual <= 1e-8 * (1.0 + np.linalg.norm(p) ** 2)

            n = int(rng.integers(1, 13))
            m_mat = rng.standard_normal((n, n)) - (n + 2) * np.eye(n)
            w = random_spd(rng, n, floor=0.2)
            x = solvers.solve_lyapunov(m_mat, w)
            expected = kron_sylvester(m_mat, m_mat.T, -w)
            err = np.linalg.norm(x - expected) / max(np.linalg.norm(expected), 1.0)
            assert err <= 1e-10

            rows, cols = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            sa = rng.standard_normal((rows, rows)) - (rows + 2) * np.eye(rows)
            sb = rng.standard_normal((cols, cols)) - (cols + 2) * np.eye(cols)
            sc_mat = rng.standard_normal((rows, cols))
            x = solvers.solve_sylvester(sa, sb, sc_mat)
            expected = kron_sylvester(sa, sb, sc_mat)
            err = np.linalg.norm(x - expected) / max(np.linalg.norm(expected), 1.0)
            assert err <= 1e-10


def test_criterion_2_gain_threshold_soundness():
    with criterion(2, "consensus-gain threshold", 30.0):
        rng = np.random.default_rng(2002)
        for _ in range(50):
            nm, topo = random_assumption2_setup(rng)
            thr = gamma_threshold(nm, topo)
            fr = build_filter(nm, as_true(nm), topo, gamma=1.01 * thr)
            assert np.linalg.eigvals(fr.closed_loop).real.max() < 0


def test_criterion_3_trace_sandwich_sweep():
    with criterion(3, "steady trace sandwich and monotone indices", 120.0):
        rows = case1_sweep_rows()
        assert len(rows) == 20
        for row in rows:
            assert row["lower"] <= row["tr_error"] <= row["upper1"]
            assert row["lower"] == max(0.0, row["tr_nominal"] - row["gap"])
        for key in ("mse", "tr_error", "upper1", "upper2", "floor"):
            assert weakly_decreasing([row[key] for row in rows]), key


def test_criterion_4_asymptotic_decay():
    with criterion(4, "asymptotic gain decay", 30.0):
        sc = load_scenario("case1")
        thr = gamma_threshold(sc.nominal, sc.topology)
        fr = build_filter(sc.nominal, sc.true_system, sc.topology, 2 * thr)
        fit = asymptotic_fit(fr)
        assert fit.fit_residual <= 1e-3
        assert fit.a1 > 0 and fit.b1 > 0


def test_criterion_5_nominal_trace_floor():
    with criterion(5, "nominal trace floor", 60.0):
        rows = case1_sweep_rows()
        for row in rows:
            assert row["floor"] <= row["tr_nominal"] + 1e-12
        assert rows[-1]["floor"] < 0.10 * rows[0]["floor"]


def test_criterion_6_divergence_certificate():
    with criterion(6, "divergence under blind process noise", 120.0):
        sc = load_scenario("case2")
        ts, nm, topo = sc.true_system, sc.nominal, sc.topology
        gamma = float(sc.resolve_gammas()[0])
        fr = build_filter(nm, ts, topo, gamma)
        certs = divergence_test(fr, ts)
        assert len(certs) == 1
        cert = certs[0]
        assert cert.freq == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(cert.vector.real, [1.0, 0.0, 0.0, 0.0], atol=1e-10)
        assert cert.aug_residual <= 1e-10
        assert cert.will_diverge

        grid = sc.ode.grid()
        traj = solvers.propagate(fr, ts, grid, init=sc.initial_state())
        v = np.kron(np.ones(6), cert.vector.real)
        proj_err = np.array([v @ m @ v for m in traj.error_cov])
        proj_nom = np.array([v @ m @ v for m in traj.nominal_cov])
        window = grid >= 10.0
        slope = np.polyfit(grid[window], proj_err[window], 1)[0]
        assert slope == pytest.approx(36 * 0.03, rel=0.05)
        assert np.max(np.abs(proj_nom - proj_nom[0])) <= 1e-8

        series = monte_carlo_mse(ts, fr, sc.sim_config())
        late = series.mse[series.time >= 0.5 * sc.sim_config().horizon]
        assert np.all(np.diff(late) > 0)


def test_criterion_7_index_ordering():
    with criterion(7, "nominal index ordering and gap bound", 60.0):
        sc = load_scenario("case3")
        ts, nm, topo = sc.true_system, sc.nominal, sc.topology
        dev = deviations(ts, nm)
        fr = build_filter(nm, ts, topo, float(sc.resolve_gammas()[0]))
        init = sc.initial_state()
        gap0 = init.nominal_cov - init.error_cov
        assert np.linalg.norm(gap0) == 0.0
        rel = relation_analysis(fr, dev, gap0, sc.ode.grid())
        assert rel.drive_sign == "psd"
        assert np.all(rel.gap_min_eig >= -1e-8)
        assert np.all(rel.gap_norm <= rel.gap_norm_bound * (1 + 1e-9) + 1e-12)
        assert np.max(np.abs(rel.gap - closed_form_gap(fr, rel))) <= 1e-8


def test_criterion_8_simulation_matches_theory():
    with criterion(8, "Monte Carlo vs analytic steady state", 300.0):
        sc = load_scenario("baseline")
        ts, nm, topo = sc.true_system, sc.nominal, sc.topology
        fr = build_filter(nm, ts, topo, float(sc.resolve_gammas()[0]))
        target = float(np.trace(solvers.steady_state(fr, ts, nm).error_cov)) / 6.0
        small = monte_carlo_mse(ts, fr, sc.sim_config(trials=200))
        assert abs(small.steady_mse - target) <= 3.0 * small.steady_se
        large = monte_carlo_mse(ts, fr, sc.sim_config(trials=1000))
        assert abs(large.steady_mse - target) <= 0.10 * target


def test_criterion_9_joint_system_cross_check():
    with criterion(9, "direct vs joint covariance propagation", 30.0):
        sc = load_scenario("baseline")
        ts, nm, topo = sc.true_system, sc.nominal, sc.topology
        fr = build_filter(nm, ts, topo, float(sc.resolve_gammas()[0]))
        grid = sc.ode.grid()
        traj = rk4_propagate(fr, ts, nm, grid, dt=sc.ode.dt)
        joint = solvers.propagate(fr, ts, grid)
        assert np.max(np.abs(joint.error_cov - traj.error_cov)) <= 1e-8
        assert np.max(np.abs(joint.cross_cov - traj.cross_cov)) <= 1e-8
        scale = 1.0 + np.max(np.abs(traj.state_cov))
        assert np.max(np.abs(joint.state_cov - traj.state_cov)) <= 1e-8 * scale

import dataclasses
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import dckf
from dckf import matkit, sim
from dckf.filtering import build_filter
from dckf.graph import Topology
from dckf.model import NominalModel, Sensor, TrueSystem
from dckf.solvers import propagate, steady_state

from conftest import complete, stepwise_monte_carlo


def quick_pair():
    ts = TrueSystem(
        a=[[-0.8, 0.2], [0.0, -1.2]],
        q=0.2 * np.eye(2),
        sensors=[Sensor(c=[[1.0, 0.0]], r=[[0.3]]), Sensor(c=[[0.0, 1.0]], r=[[0.2]])],
        x0=[0.4, -0.2],
        sigma0=0.5 * np.eye(2),
    )
    nm = NominalModel(a=ts.a, q=ts.q, sensors=ts.sensors)
    return ts, nm, complete(2)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        sim.SimConfig(dt=0.0, horizon=1.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        sim.SimConfig(dt=0.1, horizon=0.05, trials=10, seed=0)
    with pytest.raises(ValueError):
        sim.SimConfig(dt=0.01, horizon=1.0, trials=0, seed=0)
    with pytest.raises(ValueError):
        sim.SimConfig(dt=0.01, horizon=1.0, trials=10**7, seed=0)
    with pytest.raises(ValueError):
        sim.SimConfig(dt=0.01, horizon=1.0, trials=10, seed=-1)
    with pytest.raises(ValueError):
        sim.SimConfig(dt=1e-300, horizon=1.0, trials=10, seed=0, record_stride=10**300)
    with pytest.raises(ValueError):
        sim.SimConfig(dt=1e-4, horizon=2.0, trials=10, seed=0, record_stride=1)


@pytest.mark.parametrize(
    "counts",
    [{"trials": True}, {"trials": 2.0}, {"seed": 1.5}, {"seed": True}, {"record_stride": 2.5}],
    ids=["trials-bool", "trials-float", "seed-float", "seed-bool", "record_stride-float"],
)
def test_sim_config_refuses_non_integer_counts(counts):
    # A float or bool count would otherwise fail inside the run, or run as seed 1.
    with pytest.raises(ValueError, match="must be an integer"):
        sim.SimConfig(**{"dt": 0.01, "horizon": 1.0, "trials": 4, "seed": 0, **counts})


def test_sim_config_accepts_numpy_integers():
    cfg = sim.SimConfig(dt=0.01, horizon=1.0, trials=np.int64(4), seed=np.uint32(3),
                        record_stride=np.int32(10))
    assert cfg.record_steps().tolist() == list(range(0, 101, 10))


def test_record_steps_include_endpoints():
    cfg = sim.SimConfig(dt=0.01, horizon=1.0, trials=1, seed=0, record_stride=30)
    steps = cfg.record_steps()
    assert steps[0] == 0 and steps[-1] == cfg.step_count
    assert np.all(np.diff(steps) > 0)


def one_trial(ts, fr, cfg, trial):
    """The engine's records of one trial: truth (records, n) and estimates (records, sensors, n)."""
    z = np.concatenate(list(sim._Engine(ts, [fr], cfg).run([trial])), axis=1)[0]
    return z[:, : ts.n], z[:, ts.n :].reshape(-1, ts.sensor_count, ts.n)


def test_trial_determinism_and_stream_separation():
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=0.5, trials=4, seed=99, record_stride=50)
    first = one_trial(ts, fr, cfg, 3)
    second = one_trial(ts, fr, cfg, 3)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    other = one_trial(ts, fr, cfg, 4)
    assert not np.array_equal(first[0], other[0])


def test_monte_carlo_deterministic():
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=1.0, trials=16, seed=7, record_stride=100)
    a = sim.monte_carlo_mse(ts, fr, cfg)
    b = sim.monte_carlo_mse(ts, fr, cfg)
    assert np.array_equal(a.mse, b.mse)
    assert a.steady_mse == b.steady_mse


def test_noise_free_truth_follows_exponential():
    ts = TrueSystem(
        a=[[0.0, 1.0], [-1.0, 0.0]],
        q=np.zeros((2, 2)),
        sensors=[Sensor(c=[[1.0, 0.0]], r=[[1e-10]])],
        x0=[1.0, 0.0],
        sigma0=np.zeros((2, 2)),
    )
    nm = NominalModel(a=ts.a, q=np.eye(2), sensors=ts.sensors)
    fr = build_filter(nm, ts, Topology(np.zeros((1, 1))), gamma=1.0)
    cfg = sim.SimConfig(dt=1e-4, horizon=1.0, trials=1, seed=0, record_stride=10000)
    states, _ = one_trial(ts, fr, cfg, 0)
    expected = matkit.expm(ts.a * 1.0) @ ts.x0
    np.testing.assert_allclose(states[-1], expected, atol=2e-4)


def test_mse_definition_single_trial():
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=0.2, trials=1, seed=5, record_stride=100)
    series = sim.monte_carlo_mse(ts, fr, cfg)
    states, estimates = one_trial(ts, fr, cfg, 0)
    err = estimates - states[:, None, :]
    per_sensor = np.sum(err**2, axis=2)
    np.testing.assert_allclose(series.per_sensor_mse, per_sensor, atol=1e-14)
    np.testing.assert_allclose(series.mse, per_sensor.mean(axis=1), atol=1e-14)
    assert np.isnan(series.steady_se)


def test_mse_matches_per_sensor_mean():
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=0.5, trials=8, seed=3, record_stride=100)
    series = sim.monte_carlo_mse(ts, fr, cfg)
    np.testing.assert_allclose(series.mse, series.per_sensor_mse.mean(axis=1), atol=1e-14)


def test_ensemble_second_moment_matches_state_covariance(baseline):
    # The recorded truth ensemble reproduces the analytic second moment of
    # the replicated state (upper-left block of the joint propagation).  The
    # ensemble comes from the fused engine, which the tests below tie to the
    # step-by-step reference.
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    cfg = sim.SimConfig(dt=5e-3, horizon=2.0, trials=1, seed=11, record_stride=100)
    engine = sim._Engine(ts, [fr], cfg)
    states = []
    for start in range(0, 10000, 1250):
        trials = range(start, start + 1250)
        states.append(np.concatenate([z[:, :, : ts.n] for z in engine.run(trials)], axis=1))
    states = np.concatenate(states, axis=0)
    times = cfg.record_steps() * cfg.dt
    traj = propagate(fr, ts, times)
    for k in (1, 2):  # skip t=0 (exact by construction)
        moment = np.einsum("bi,bj->ij", states[:, k], states[:, k]) / states.shape[0]
        analytic = traj.state_cov[k][:4, :4]
        assert np.linalg.norm(moment - analytic) <= 0.05 * np.linalg.norm(analytic)


def test_standard_error_scales_inverse_sqrt_trials():
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    small = sim.SimConfig(dt=2e-3, horizon=4.0, trials=75, seed=21, record_stride=100)
    large = sim.SimConfig(dt=2e-3, horizon=4.0, trials=300, seed=22, record_stride=100)
    se_small = sim.monte_carlo_mse(ts, fr, small).steady_se
    se_large = sim.monte_carlo_mse(ts, fr, large).steady_se
    assert 1.2 <= se_small / se_large <= 3.2  # target ratio 2


def test_steady_mse_matches_theory(baseline):
    ts, nm, topo = baseline.true_system, baseline.nominal, baseline.topology
    fr = build_filter(nm, ts, topo, float(baseline.resolve_gammas()[0]))
    cfg = sim.SimConfig(dt=1e-3, horizon=10.0, trials=200, seed=20260808, record_stride=100)
    series = sim.monte_carlo_mse(ts, fr, cfg)
    target = float(np.trace(steady_state(fr, ts, nm).error_cov)) / 6.0
    assert abs(series.steady_mse - target) <= 3.0 * series.steady_se


def test_steady_mse_matches_theory_with_mismatch(case1):
    # Same agreement on a scenario whose model is wrong in every parameter.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    fr = build_filter(nm, ts, topo, float(case1.resolve_gammas()[0]))
    series = sim.monte_carlo_mse(ts, fr, case1.sim_config())
    target = float(np.trace(steady_state(fr, ts, nm).error_cov)) / 6.0
    assert abs(series.steady_mse - target) <= 3.0 * series.steady_se


def test_dt_refinement_within_monte_carlo_resolution():
    # Halving the step moves the steady MSE by less than the Monte Carlo
    # resolution.  The two runs draw independent noise, so the difference is
    # compared against 2.5 standard deviations of its own sampling error.
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    coarse = sim.SimConfig(dt=2e-3, horizon=8.0, trials=2000, seed=31, record_stride=100)
    fine = sim.SimConfig(dt=1e-3, horizon=8.0, trials=2000, seed=31, record_stride=200)
    a = sim.monte_carlo_mse(ts, fr, coarse)
    b = sim.monte_carlo_mse(ts, fr, fine)
    tol = 2.5 * np.hypot(a.steady_se, b.steady_se)
    assert abs(a.steady_mse - b.steady_mse) <= tol


def test_overflow_detection_and_reporting():
    ts = TrueSystem(
        a=[[5.0]],
        q=[[1.0]],
        sensors=[Sensor(c=[[1.0]], r=[[0.1]])],
        x0=[1.0],
        sigma0=[[0.1]],
    )
    nm = NominalModel(a=[[-1.0]], q=[[1.0]], sensors=ts.sensors)
    fr = build_filter(nm, ts, Topology(np.zeros((1, 1))), gamma=1.0)
    cfg = sim.SimConfig(dt=1e-2, horizon=160.0, trials=2, seed=13, record_stride=100)
    engine = sim._Engine(ts, [fr], cfg)
    assert not all(np.isfinite(engine.squared_errors(z)).all() for z in engine.run([0]))
    with pytest.raises(RuntimeError):
        sim.monte_carlo_mse(ts, fr, cfg)  # every trial blows up


# ---------------------------------------------------------------------------
# The fused, blocked, gain-batched engine against the step-by-step reference.
# Both draw the same (seed, l) streams, so they differ only by rounding.
# ---------------------------------------------------------------------------

EQUIVALENCE_RTOL = 1e-12


def assert_series_match(got, ref):
    assert got.overflow_trials == ref.overflow_trials
    assert got.trials_used == ref.trials_used
    np.testing.assert_array_equal(got.time, ref.time)
    for key in ("mse", "per_sensor_mse", "steady_mse", "steady_se"):
        np.testing.assert_allclose(
            getattr(got, key), getattr(ref, key), rtol=EQUIVALENCE_RTOL, atol=0, err_msg=key
        )


def test_sweep_matches_stepwise_across_case1_gains(case1):
    # Lowest, middle and top (100x threshold) gain of the case1 sweep, run
    # together on one set of trials and each against its own reference run.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    gammas = np.sort(case1.resolve_gammas())
    base = build_filter(nm, ts, topo, float(gammas[-1]))
    assert gammas[-1] == pytest.approx(100.0 * base.gamma_min)
    frs = [base.with_gamma(float(gammas[k])) for k in (0, gammas.size // 2, gammas.size - 1)]
    cfg = case1.sim_config(trials=6, seed=3)
    swept = sim.monte_carlo_sweep(ts, frs, cfg)
    for fr, series in zip(frs, swept):
        assert_series_match(series, stepwise_monte_carlo(ts, fr, cfg))
        assert_series_match(sim.monte_carlo_mse(ts, fr, cfg), series)


@pytest.mark.parametrize(
    "horizon, stride",
    [
        (0.3, 1),  # one step per record
        (3.1, 300),  # a stride straddles the reference's 2048-row noise slab; 100-step tail
        (6.0, 2500),  # strides longer than a slab; 1000-step tail
    ],
)
def test_blocked_strides_match_stepwise(horizon, stride):
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=horizon, trials=5, seed=17, record_stride=stride)
    assert_series_match(sim.monte_carlo_mse(ts, fr, cfg), stepwise_monte_carlo(ts, fr, cfg))


def test_simulate_trial_matches_stepwise_trajectory():
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=3.1, trials=1, seed=17, record_stride=300)
    got_states, got_estimates = one_trial(ts, fr, cfg, 3)
    _, states, estimates, _ = stepwise_monte_carlo(ts, fr, cfg, [3], keep_trajectories=True)
    scale = np.max(np.abs(states))
    np.testing.assert_allclose(got_states, states[0], rtol=EQUIVALENCE_RTOL, atol=1e-14 * scale)
    np.testing.assert_allclose(
        got_estimates, estimates[0], rtol=EQUIVALENCE_RTOL, atol=1e-14 * scale
    )
    assert np.isfinite(got_estimates).all()


def unstable_scalar_pair():
    ts = TrueSystem(
        a=[[5.0]],
        q=[[1.0]],
        sensors=[Sensor(c=[[1.0]], r=[[0.1]])],
        x0=[0.0],
        sigma0=[[1.0]],
    )
    nm = NominalModel(a=[[-1.0]], q=[[1.0]], sensors=ts.sensors)
    return ts, build_filter(nm, ts, Topology(np.zeros((1, 1))), gamma=1.0)


def test_mixed_overflow_matches_stepwise():
    # The squared error of each trial leaves the double range at a record
    # that depends on the trial, so only some of the trials overflow.
    ts, fr = unstable_scalar_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=73.0, trials=24, seed=14, record_stride=10)
    with np.errstate(over="ignore", invalid="ignore"):
        got = sim.monte_carlo_mse(ts, fr, cfg)
        ref = stepwise_monte_carlo(ts, fr, cfg)
    assert 0 < len(ref.overflow_trials) < cfg.trials
    assert np.isfinite(got.steady_mse)
    assert np.all(np.isfinite(got.mse))
    assert_series_match(got, ref)


@pytest.mark.parametrize("seed", [15, 16, 17])
def test_steady_mse_of_huge_finite_trials(seed):
    # The trials that stay finite end near the top of the double range, so an
    # unscaled mean over the steady window would reach inf.
    ts, fr = unstable_scalar_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=73.0, trials=24, seed=seed, record_stride=10)
    got = sim.monte_carlo_mse(ts, fr, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = stepwise_monte_carlo(ts, fr, cfg)
    assert 0 < got.trials_used < cfg.trials
    assert np.isfinite(got.steady_mse) and np.isfinite(got.steady_se)
    assert_series_match(got, ref)


@pytest.fixture
def run_calls(monkeypatch):
    """The trial range of every ``_Engine.run`` call."""
    calls = []
    real = sim._Engine.run

    def spy(self, trials):
        calls.append(trials)
        return real(self, trials)

    monkeypatch.setattr(sim._Engine, "run", spy)
    return calls


def test_case1_sweep_runs_as_one_batch(case1, run_calls):
    # A chunk reduces its records a block at a time, so case1's trials run as
    # two chunks of half the trials, each once, and the memory does not grow
    # with the trial count.
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    frs = [build_filter(nm, ts, topo, float(g)) for g in np.sort(case1.resolve_gammas())]
    peaks = []
    for trials in (20, 200):
        cfg = case1.sim_config(trials=trials, seed=3)
        half = trials // 2
        assert sim._Engine(ts, frs, cfg).chunk_size() == half
        # A tenth of the horizon keeps the pieces and cuts the records to 51.
        short = dataclasses.replace(cfg, horizon=cfg.horizon / 10)
        run_calls.clear()
        tracemalloc.start()
        try:
            sim.monte_carlo_sweep(ts, frs, short)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # Chunks on two workers may start in either order.
        assert sorted(run_calls, key=lambda r: r.start) == [range(half), range(half, trials)]
    assert peaks[1] <= 1.5 * peaks[0]
    assert peaks[1] <= peaks[0] + 2**20


def test_only_chunks_with_an_overflow_run_twice(run_calls, monkeypatch):
    ts, fr = unstable_scalar_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=73.0, trials=24, seed=14, record_stride=10)
    (whole,) = sim.monte_carlo_sweep(ts, [fr], cfg)
    overflowed = {l for l, _ in whole.overflow_trials}
    assert 0 < len(overflowed) < cfg.trials
    halves = [range(12), range(12, 24)]
    expected = [half for half in halves for _ in range(1 + bool(overflowed & set(half)))]
    assert sorted(run_calls, key=lambda r: r.start) == expected
    run_calls.clear()
    monkeypatch.setattr(sim._Engine, "chunk_size", lambda self: 1)
    (single,) = sim.monte_carlo_sweep(ts, [fr], cfg)
    assert sorted(run_calls, key=lambda r: r.start) == [
        range(l, l + 1) for l in range(24) for _ in range(1 + (l in overflowed))
    ]
    assert_series_match(single, whole)


def unexcited_unstable_pair():
    """A state that grows by 1.05 per step at dt = 1e-2 but starts at zero and gets no noise."""
    ts = TrueSystem(
        a=np.diag([5.0, -1.0]),
        q=np.diag([0.0, 1.0]),
        sensors=[Sensor(c=[[0.0, 1.0]], r=[[0.1]])],
        x0=[0.0, 1.0],
        sigma0=np.diag([0.0, 0.1]),
    )
    nm = NominalModel(a=-np.eye(2), q=np.eye(2), sensors=ts.sensors)
    fr = build_filter(nm, ts, Topology(np.zeros((1, 1))), gamma=1.0)
    return ts, fr


def test_long_stride_with_unexcited_unstable_mode_stays_finite():
    # One 16000-step stride would need 1.05**16000, which is not a double; the
    # engine splits it, so no trial is reported as overflowed.
    ts, fr = unexcited_unstable_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=160.0, trials=3, seed=13, record_stride=16000)
    engine = sim._Engine(ts, [fr], cfg)
    # The first block ends no record, so the engine yields nothing for it.
    assert [ends for _, ends in engine.schedule(cfg.trials)] == [[False] * 3, [True]]
    assert [records.shape for records in engine.run(range(3))] == [(3, 1, 4)] * 2
    got = sim.monte_carlo_mse(ts, fr, cfg)
    assert got.overflow_trials == ()
    assert np.all(np.isfinite(got.mse))
    assert_series_match(got, stepwise_monte_carlo(ts, fr, cfg))


# ---------------------------------------------------------------------------
# Blocks: consecutive pieces that share operators have their noise rows drawn
# and multiplied together, within a memory budget.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("edge", ["ragged", "split", "tail"])
def test_block_edges_match_stepwise(edge):
    if edge == "split":
        # Each 9438-step stride is two 4719-step pieces (the powers of M cap
        # them), and the 6562-step tail is one of them and a shorter piece.
        ts, fr = unexcited_unstable_pair()
        cfg = sim.SimConfig(dt=1e-2, horizon=160.0, trials=3, seed=13, record_stride=9438)
    else:
        ts, nm, topo = quick_pair()
        fr = build_filter(nm, ts, topo, gamma=2.0)
        horizon, stride = (10.0, 100) if edge == "ragged" else (3.1, 300)
        cfg = sim.SimConfig(dt=1e-3, horizon=horizon, trials=5, seed=17, record_stride=stride)
    engine = sim._Engine(ts, [fr], cfg)
    blocks = [(ops.length, ends) for ops, ends in engine.schedule(cfg.trials)]
    k = engine.block_size(engine.plan[cfg.record_stride][0], cfg.trials)
    # One array per block, after the initial state's, holding the records it ends.
    sizes = [records.shape[1] for records in engine.run(range(cfg.trials))]
    assert sizes == [1] + [sum(ends) for _, ends in blocks]
    if edge == "ragged":
        # 100 one-piece records in blocks of k, which does not divide 100.
        assert 100 % k != 0
        assert blocks == [(100, [True] * k)] * (100 // k) + [(100, [True] * (100 % k))]
    elif edge == "split":
        assert k == 3
        assert blocks == [(4719, [False, True, False]), (1843, [True])]
    else:
        # Ten 300-step records, then a 100-step tail with operators of its own.
        assert blocks == [(300, [True] * 10), (100, [True])]
    assert_series_match(sim.monte_carlo_mse(ts, fr, cfg), stepwise_monte_carlo(ts, fr, cfg))


@pytest.mark.parametrize("preset, trials", [("case1", 20), ("case1", 200), ("case2", None)])
def test_blocks_stay_within_the_memory_budget(preset, trials, request):
    scenario = request.getfixturevalue(preset)
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    frs = [build_filter(nm, ts, topo, float(g)) for g in scenario.resolve_gammas()]
    cfg = scenario.sim_config(trials=trials)
    engine = sim._Engine(ts, frs, cfg)
    batch = engine.chunk_size()
    blocks = list(engine.schedule(batch))
    for (ops, ends), (after, _) in zip(blocks, blocks[1:] + [(None, None)]):
        piece_bytes = batch * (ops.length * engine.cols + engine.width) * 8
        assert len(ends) * piece_bytes <= sim._BLOCK_BYTES or len(ends) == 1
        # A block ends at the budget, at a change of operators, or at the last record.
        assert after is not ops or len(ends) == engine.block_size(ops, batch)
    assert sum(ops.length * len(ends) for ops, ends in blocks) == cfg.step_count
    assert sum(sum(ends) for _, ends in blocks) == cfg.record_steps().size - 1


def test_a_lone_piece_over_the_budget_stays_within_it(case2):
    # case2's one 1250-step piece holds about 2 MB of noise rows for a chunk
    # of 20 trials, so it is drawn in segments of the chunk's one buffer.
    ts = case2.true_system
    fr = build_filter(case2.nominal, ts, case2.topology, float(case2.resolve_gammas()[0]))
    engine = sim._Engine(ts, [fr], case2.sim_config())
    batch = engine.chunk_size()
    assert batch == 20
    assert batch * engine.longest_piece * engine.cols * 8 > 1.5 * sim._BLOCK_BYTES
    products = batch * engine.width * 8
    tracemalloc.start()
    try:
        for _ in engine.run(range(batch)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The buffer, the block's products, and 64 KiB for the generators, the
    # state and the stepping temporaries (about 38 KB on case2).
    assert peak <= sim._BLOCK_BYTES + products + 64 * 2**10


def test_segmented_pieces_keep_every_stream(blas_env, pool_calls, monkeypatch):
    # A 3600-byte buffer holds 150 noise rows for each of a 3-trial chunk's
    # trials, so every 400-row piece is drawn as 150 + 150 + 100 rows (and as
    # 225 + 175 in the 2-trial chunk).
    monkeypatch.setattr(sim, "_BLOCK_BYTES", 3600)
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=1.0, trials=5, seed=17, record_stride=100)
    engine = sim._Engine(ts, [fr], cfg)
    assert engine.chunk_size() == 3
    segment = sim._BLOCK_BYTES // 8 // 3
    rows = engine.longest_piece * engine.cols
    assert rows > 2 * segment and rows % segment
    assert all(len(ends) == 1 for _, ends in engine.schedule(3))
    (one,), (two,) = sweep_with_workers(blas_env, pool_calls, ts, [fr], cfg)
    assert_series_identical(two, one)
    assert_series_match(one, stepwise_monte_carlo(ts, fr, cfg))


# ---------------------------------------------------------------------------
# Trial chunks on a thread pool.  The worker count follows the BLAS thread
# variables and the usable cores; the outputs must not.
# ---------------------------------------------------------------------------


@pytest.fixture
def blas_env(monkeypatch):
    """Set the BLAS thread variable (None unsets all three) on a box with ``cores`` cores."""

    def set_env(threads, cores=2):
        for var in dckf._BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "0")  # recorded, so the teardown restores the original
            monkeypatch.delenv(var)
        if threads is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)

    return set_env


@pytest.fixture
def pool_calls(monkeypatch):
    """(chunks, workers) of every ``_in_order`` call."""
    calls = []
    real = sim._in_order

    def spy(work, items, workers):
        calls.append((len(items), workers))
        return real(work, items, workers)

    monkeypatch.setattr(sim, "_in_order", spy)
    return calls


def test_worker_count_rule(blas_env):
    blas_env(None)
    assert sim._worker_count(10) == 1  # BLAS already fills every core
    blas_env("2")
    assert sim._worker_count(10) == 1
    blas_env("1")
    assert sim._worker_count(10) == 2
    assert sim._worker_count(1) == 1  # never more workers than chunks
    blas_env("1", cores=4)
    assert sim._worker_count(10) == 4
    blas_env("junk", cores=4)
    assert sim._worker_count(10) == 1
    blas_env("0", cores=4)
    os.environ["OMP_NUM_THREADS"] = "2"  # read after the OpenBLAS and GotoBLAS variables
    assert sim._worker_count(10) == 2


def test_in_order_keeps_order_and_raises():
    ran = {}

    def work(k, failing=None):
        ran[k] = threading.current_thread()
        time.sleep(0.05 * (k % 2 == 0))
        if k == failing:
            raise ValueError(k)
        return k

    assert list(sim._in_order(work, list(range(5)), 3)) == list(range(5))
    # On two workers the pool thread takes the slow even items and the
    # calling thread runs each odd one meanwhile, so item 4 fails on the pool
    # thread and item 5 on the caller; either surfaces after every earlier result.
    for failing in (4, 5):
        got = []
        with pytest.raises(ValueError):
            for value in sim._in_order(lambda k: work(k, failing), list(range(8)), 2):
                got.append(value)
        assert got == list(range(failing))
        on_caller = [k for k in range(failing + 1) if ran[k] is threading.current_thread()]
        assert on_caller == list(range(1, failing + 1, 2))


def test_in_order_with_one_worker_runs_on_the_calling_thread():
    before = set(threading.enumerate())
    calls = []

    def work(k):
        calls.append((threading.current_thread(), set(threading.enumerate())))
        return k * k

    for k, value in enumerate(sim._in_order(work, list(range(4)), 1)):
        assert value == k * k and len(calls) == k + 1  # each result before the next call
    assert calls == [(threading.current_thread(), before)] * 4
    assert set(threading.enumerate()) == before


def assert_series_identical(got, ref):
    assert got.overflow_trials == ref.overflow_trials
    assert got.trials_used == ref.trials_used
    for key in ("time", "mse", "per_sensor_mse", "steady_mse", "steady_se"):
        np.testing.assert_array_equal(getattr(got, key), getattr(ref, key), err_msg=key)


def sweep_with_workers(blas_env, pool_calls, ts, frs, cfg):
    """``monte_carlo_sweep`` on one worker, then on two; both results."""
    runs = []
    for threads, workers in (("2", 1), ("1", 2)):
        blas_env(threads)
        runs.append(sim.monte_carlo_sweep(ts, frs, cfg))
        chunks, used = pool_calls[-1]
        assert chunks >= 2 and used == workers
    return runs


def small_chunks(monkeypatch, size):
    """Cut the trials into chunks of ``size``."""
    monkeypatch.setattr(sim._Engine, "chunk_size", lambda self: size)


def test_pool_is_bitwise_independent_of_workers_case1(case1, blas_env, pool_calls, monkeypatch):
    ts, nm, topo = case1.true_system, case1.nominal, case1.topology
    gammas = np.sort(case1.resolve_gammas())
    base = build_filter(nm, ts, topo, float(gammas[-1]))
    frs = [base.with_gamma(float(gammas[k])) for k in (0, gammas.size // 2, gammas.size - 1)]
    small_chunks(monkeypatch, 2)
    one, two = sweep_with_workers(blas_env, pool_calls, ts, frs, case1.sim_config(trials=6, seed=3))
    for a, b in zip(one, two):
        assert_series_identical(b, a)


def test_pool_is_bitwise_independent_of_workers_mixed_overflow(blas_env, pool_calls, monkeypatch):
    ts, fr = unstable_scalar_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=73.0, trials=24, seed=14, record_stride=10)
    small_chunks(monkeypatch, 5)
    (one,), (two,) = sweep_with_workers(blas_env, pool_calls, ts, [fr], cfg)
    assert 0 < len(one.overflow_trials) < cfg.trials
    assert_series_identical(two, one)


def test_pool_stress_more_workers_than_cores(blas_env, pool_calls, monkeypatch):
    # Eight workers on a two-core box, with the interpreter switching threads
    # as often as it can: a chunk that read or wrote another's state would
    # change the bits.
    ts, fr = unstable_scalar_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=73.0, trials=24, seed=14, record_stride=10)
    small_chunks(monkeypatch, 1)
    blas_env("2")
    (one,) = sim.monte_carlo_sweep(ts, [fr], cfg)
    blas_env("1", cores=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (many,) = sim.monte_carlo_sweep(ts, [fr], cfg)
    finally:
        sys.setswitchinterval(interval)
    assert pool_calls == [(24, 1), (24, 8)]
    assert_series_identical(many, one)


def test_pool_is_bitwise_independent_of_workers_split_stride(blas_env, pool_calls, monkeypatch):
    ts, fr = unexcited_unstable_pair()
    cfg = sim.SimConfig(dt=1e-2, horizon=160.0, trials=3, seed=13, record_stride=16000)
    small_chunks(monkeypatch, 1)
    (one,), (two,) = sweep_with_workers(blas_env, pool_calls, ts, [fr], cfg)
    assert_series_identical(two, one)


def test_pool_is_bitwise_independent_of_workers_case2(case2, blas_env, pool_calls):
    # No knob turned: case2's trials split into chunks on their own.
    ts = case2.true_system
    fr = build_filter(case2.nominal, ts, case2.topology, float(case2.resolve_gammas()[0]))
    (one,), (two,) = sweep_with_workers(blas_env, pool_calls, ts, [fr], case2.sim_config())
    assert_series_identical(two, one)


def test_no_helper_thread_outlives_its_run(blas_env, pool_calls):
    # A normal run, a run that raises, and generators closed early all leave
    # the thread set as they found it.
    blas_env("1")
    before = set(threading.enumerate())
    ts, nm, topo = quick_pair()
    fr = build_filter(nm, ts, topo, gamma=2.0)
    cfg = sim.SimConfig(dt=1e-3, horizon=1.0, trials=8, seed=7, record_stride=10)
    sim.monte_carlo_sweep(ts, [fr], cfg)
    assert set(threading.enumerate()) == before

    unstable_ts, unstable_fr = unstable_scalar_pair()
    doomed = sim.SimConfig(dt=1e-2, horizon=160.0, trials=2, seed=13, record_stride=100)
    with pytest.raises(sim.SimulationOverflowError):
        sim.monte_carlo_sweep(unstable_ts, [unstable_fr], doomed)
    assert set(threading.enumerate()) == before
    assert pool_calls == [(2, 2), (2, 2)]

    engine = sim._Engine(ts, [fr], cfg)
    for records in (1, 2):
        run = engine.run(range(4))
        for _ in range(records):
            next(run)
        run.close()
        assert set(threading.enumerate()) == before
    # A pool closed with chunks still in flight joins its threads.
    chunks = [range(k, k + 2) for k in range(0, 8, 2)]
    results = sim._in_order(lambda trials: list(engine.run(trials)), chunks, 2)
    next(results)
    results.close()
    assert set(threading.enumerate()) == before


def test_standard_error_of_huge_trial_mses():
    # Finite per-trial MSEs whose squares overflow a double.
    values = np.array([1.0e300, 3.0e300, 2.0e300, 4.0e300])
    mean, se = sim._mean_and_se(values)
    assert mean == 2.5e300
    scaled = values / 1e300
    assert se == pytest.approx(1e300 * scaled.std(ddof=1) / 2.0, rel=1e-15)
    ordinary = np.random.default_rng(0).random(50) * 7.3
    assert sim._mean_and_se(ordinary) == (
        float(ordinary.mean()),
        float(ordinary.std(ddof=1) / np.sqrt(ordinary.size)),
    )
    mean, se = sim._mean_and_se(np.array([5.0]))
    assert mean == 5.0 and np.isnan(se)

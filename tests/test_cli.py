import copy
import gc
import importlib.util
import json
import os
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dckf import cli, sim, solvers
from dckf.cli import main
from dckf.filtering import build_filter
from dckf.scenario import load_scenario, parse_scenario, preset_dict, preset_names
from conftest import ring_chord_document


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_doc():
    return {
        "name": "tiny",
        "true_system": {
            "a": [[-0.8, 0.2], [0.0, -1.2]],
            "q": [[0.2, 0.0], [0.0, 0.2]],
            "sensors": [
                {"c": [[1.0, 0.0]], "r": [[0.3]]},
                {"c": [[0.0, 1.0]], "r": [[0.2]]},
            ],
            "x0": [0.4, -0.2],
            "sigma0": [[0.5, 0.0], [0.0, 0.5]],
        },
        "nominal": {
            "a": [[-0.8, 0.2], [0.0, -1.2]],
            "q": [[0.2, 0.0], [0.0, 0.2]],
            "sensors": [
                {"c": [[1.0, 0.0]], "r": [[0.3]]},
                {"c": [[0.0, 1.0]], "r": [[0.2]]},
            ],
        },
        "topology": {"nodes": 2, "edges": [[0, 1]]},
        "gamma": {"value": 2.0},
        "sim": {"dt": 1e-3, "horizon": 2.0, "trials": 8, "seed": 5, "record_stride": 200},
        "ode": {"dt": 1e-3, "horizon": 2.0, "record_every": 0.2},
    }


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_presets_parse_and_have_stable_names():
    assert preset_names() == ("baseline", "case1", "case2", "case3")
    for name in preset_names():
        sc = load_scenario(name)
        assert sc.name == name
        assert sc.true_system.sensor_count == 6


def test_validate_case1_passes(tmp_path):
    assert main(["validate", "--scenario", "case1", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "case1_validate_meta.json").read_text())
    assert meta["all_ok"] is True
    assert meta["scenario_hash"] == load_scenario("case1").semantic_hash()


def test_validate_case2_fails_controllability(tmp_path, capsys):
    code = main(["validate", "--scenario", "case2", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "controllable" in captured.out + captured.err
    meta = json.loads((tmp_path / "case2_validate_meta.json").read_text())
    assert meta["controllable"] is False


def blind_nominal_doc():
    """Two scalar sensors of an unstable truth (a = 1) that the nominal model thinks are blind."""
    true_sensor = {"c": [[1.0]], "r": [[1.0]]}
    nominal_sensor = {"c": [[0.0]], "r": [[1.0]]}
    return {
        "name": "scalar",
        "true_system": {
            "a": [[1.0]], "q": [[1.0]], "sensors": [true_sensor] * 2, "x0": [0.0], "sigma0": [[1.0]],
        },
        "nominal": {"a": [[1.0]], "q": [[1.0]], "sensors": [nominal_sensor] * 2},
        "topology": {"adjacency": [[0, 1], [1, 0]]},
        "gamma": {"value": 1},
    }


def test_validate_reports_verdicts_without_a_riccati_solution(tmp_path, capsys):
    # A blind nominal sensor (c = 0) leaves the unstable mode unobservable, so the
    # nominal Riccati equation has no solution and the filter gains do not exist.
    path = write_scenario(tmp_path, blind_nominal_doc())
    assert main(["validate", "--scenario", path, "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "FAIL  nominal pair observable" in out
    # C deviates and the true A is not Hurwitz: the unknown feedthrough counts as nonzero.
    assert "FAIL  mismatch feedthrough zero or true state matrix Hurwitz" in out
    meta = json.loads((tmp_path / "scalar_validate_meta.json").read_text())
    assert meta["mismatch_zero"] is False and meta["observable"] is False
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("solver failure: ")


def test_validate_truncated_file(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"true_system": {"a": [[1.0')
    assert main(["validate", "--scenario", str(bad), "--out", str(tmp_path)]) == 1


def test_unknown_preset_is_parse_error(tmp_path):
    assert main(["validate", "--scenario", "nonexistent", "--out", str(tmp_path)]) == 1


def test_sweep_case1_schema_and_bounds(tmp_path):
    assert main(["sweep", "--scenario", "case1", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "case1_sweep.csv")
    assert header == [
        "gamma",
        "gamma_threshold",
        "tr_nominal",
        "tr_error",
        "gap",
        "upper1",
        "upper2",
        "tr_nominal_floor",
        "mse",
        "status",
    ]
    assert len(rows) == 20
    assert all(row[-1] == "ok" for row in rows)
    assert all(row[8] == "" for row in rows)  # mse column empty without --simulate
    tr_error = np.array([float(r[3]) for r in rows])
    upper1 = np.array([float(r[5]) for r in rows])
    assert np.all(tr_error <= upper1 + 1e-12)


def test_sweep_single_gamma_row(tmp_path):
    doc = tiny_doc()
    path = write_scenario(tmp_path, doc)
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "tiny_sweep.csv")
    assert len(rows) == 1


def test_sweep_gamma_override_list(tmp_path):
    path = write_scenario(tmp_path, tiny_doc())
    assert main(
        ["sweep", "--scenario", path, "--out", str(tmp_path), "--gamma", "2.0,3.0,4.0"]
    ) == 0
    _, rows = read_csv(tmp_path / "tiny_sweep.csv")
    assert [float(r[0]) for r in rows] == [2.0, 3.0, 4.0]


def test_sweep_with_simulation_column(tmp_path):
    path = write_scenario(tmp_path, tiny_doc())
    assert main(
        ["sweep", "--scenario", path, "--out", str(tmp_path), "--simulate", "--trials", "4"]
    ) == 0
    header, rows = read_csv(tmp_path / "tiny_sweep.csv")
    assert header[8] == "mse"  # same schema with and without --simulate
    assert float(rows[0][8]) > 0


def test_sweep_runs_on_a_stiff_50_node_network(tmp_path):
    # At 100 times the threshold ||closed_loop||_2 is about 7e7; the fit's
    # solves over 2x-200x and every row's steady state meet the
    # scale-relative solver contract.
    path = write_scenario(tmp_path, ring_chord_document(50))
    argv = ["sweep", "--scenario", path, "--out", str(tmp_path)]
    assert main(argv + ["--gamma", "log:1.05:100:3:threshold"]) == 0
    _, rows = read_csv(tmp_path / "ring-chord-50_sweep.csv")
    assert len(rows) == 3
    for row in rows:
        tr_nominal, tr_error, gap, upper1 = (float(row[k]) for k in (2, 3, 4, 5))
        assert row[-1] == "ok"
        assert max(0.0, tr_nominal - gap) <= tr_error <= upper1


def test_sweep_case2_has_no_threshold(tmp_path, capsys):
    assert main(["sweep", "--scenario", "case2", "--out", str(tmp_path)]) == 2
    assert "threshold" in capsys.readouterr().err


def test_sweep_flags_below_threshold_rows(tmp_path):
    path = write_scenario(tmp_path, tiny_doc())
    assert main(
        ["sweep", "--scenario", path, "--out", str(tmp_path), "--gamma", "log:0.02:4.0:4"]
    ) == 0
    _, rows = read_csv(tmp_path / "tiny_sweep.csv")
    statuses = [r[-1] for r in rows]
    assert "ok" in statuses
    # Tiny gains sit below the reference gain and are flagged, not dropped.
    assert any(s != "ok" for s in statuses)
    flagged = [r for r in rows if r[-1] != "ok"]
    assert all(r[2] == "" for r in flagged)


def test_divergence_case2_certificate_and_projection(tmp_path):
    doc = preset_dict("case2")
    doc["ode"] = {"dt": 2e-3, "horizon": 6.0, "record_every": 0.5}
    path = write_scenario(tmp_path, doc, "case2_short.json")
    assert main(["divergence", "--scenario", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "case2_divergence_meta.json").read_text())
    assert len(meta["certificates"]) == 1
    cert = meta["certificates"][0]
    assert cert["freq"] == 0.0
    assert cert["will_diverge"] is True
    assert cert["growth_rate"] == pytest.approx(1.08)
    header, rows = read_csv(tmp_path / "case2_divergence.csv")
    proj = np.array([float(r[header.index("error_proj")]) for r in rows])
    time = np.array([float(r[0]) for r in rows])
    slope = np.polyfit(time[4:], proj[4:], 1)[0]
    assert slope == pytest.approx(1.08, rel=1e-3)
    nominal_proj = np.array([float(r[header.index("nominal_proj")]) for r in rows])
    assert np.max(np.abs(nominal_proj - nominal_proj[0])) <= 1e-8


def test_divergence_case1_no_certificates(tmp_path):
    doc = preset_dict("case1")
    doc["gamma"] = {"value": 700.0}
    doc["ode"] = {"dt": 2e-3, "horizon": 1.0, "record_every": 0.5}
    path = write_scenario(tmp_path, doc, "case1_short.json")
    assert main(["divergence", "--scenario", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "case1_divergence_meta.json").read_text())
    assert meta["certificates"] == []
    header, rows = read_csv(tmp_path / "case1_divergence.csv")
    assert all(r[header.index("error_proj")] == "" for r in rows)


def test_divergence_holds_no_flow_while_it_simulates(tmp_path, monkeypatch):
    # The covariance trajectory is only read for the CSV rows, so it is freed
    # before the Monte Carlo starts.
    flows = []
    alive = []
    real_propagate, real_monte_carlo = cli.propagate, sim.monte_carlo_mse

    def recording_propagate(*args, **kwargs):
        traj = real_propagate(*args, **kwargs)
        flows.append(weakref.ref(traj))
        return traj

    def checking_monte_carlo(*args, **kwargs):
        gc.collect()
        alive.append([flow() is not None for flow in flows])
        return real_monte_carlo(*args, **kwargs)

    monkeypatch.setattr(cli, "propagate", recording_propagate)
    monkeypatch.setattr(sim, "monte_carlo_mse", checking_monte_carlo)
    argv = ["divergence", "--scenario", "case2", "--simulate", "--trials", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert alive == [[False]]


def test_relations_case3_verdict(tmp_path):
    doc = preset_dict("case3")
    doc["ode"] = {"dt": 1e-3, "horizon": 2.0, "record_every": 0.2}
    path = write_scenario(tmp_path, doc, "case3_short.json")
    assert main(["relations", "--scenario", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "case3_relations_meta.json").read_text())
    assert meta["drive_sign"] == "psd"
    assert meta["ordering"] == "nominal_upper"
    header, rows = read_csv(tmp_path / "case3_relations.csv")
    min_eig = np.array([float(r[header.index("gap_min_eig")]) for r in rows])
    assert np.all(min_eig >= -1e-8)
    tr_nom = np.array([float(r[header.index("tr_nominal")]) for r in rows])
    tr_err = np.array([float(r[header.index("tr_error")]) for r in rows])
    assert np.all(tr_nom >= tr_err - 1e-9)


def column(header, rows, name):
    """A CSV column as floats, with empty (NaN) cells read as NaN."""
    return np.array([float(r[header.index(name)] or "nan") for r in rows])


@pytest.mark.parametrize("command", ["divergence", "relations"])
def test_exactly_modelled_unstable_plant_reads_a_finite_error_trace(tmp_path, command):
    # case3 with 5 I added to both state matrices.  The truth overflows, but
    # with zero feedthrough it does not feed the error, whose covariance
    # settles on the steady-state solve.
    doc = preset_dict("case3")
    for block in ("true_system", "nominal"):
        doc[block]["a"] = (np.array(doc[block]["a"]) + 5.0 * np.eye(4)).tolist()
    doc["ode"] = {"dt": 1e-3, "horizon": 100.0, "record_every": 0.5}
    path = write_scenario(tmp_path, doc, "case3_unstable.json")
    assert main([command, "--scenario", path, "--out", str(tmp_path)]) == 0
    tr_error = column(*read_csv(tmp_path / f"case3_{command}.csv"), "tr_error")
    sc = parse_scenario(doc)
    fr = build_filter(sc.nominal, sc.true_system, sc.topology, float(sc.resolve_gammas()[0]))
    assert fr.mismatch_is_zero
    steady = np.trace(solvers.steady_state(fr, sc.true_system, sc.nominal).error_cov)
    assert np.all(np.isfinite(tr_error))
    assert abs(tr_error[-1] - steady) <= 1e-6


@pytest.mark.parametrize("shift", [9.0, 10.0])
def test_divergence_reads_a_diverging_flow_without_a_warning(tmp_path, shift):
    # case2's true state matrix shifted by shift * I: the error flow overflows
    # within the preset's 50 s.  Its cells read inf or empty, and no numpy
    # warning is raised (the suite turns warnings into errors).
    doc = preset_dict("case2")
    doc["true_system"]["a"] = (np.array(doc["true_system"]["a"]) + shift * np.eye(4)).tolist()
    path = write_scenario(tmp_path, doc, "case2_shifted.json")
    assert main(["divergence", "--scenario", path, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "case2_divergence.csv")
    tr_error = column(header, rows, "tr_error")
    assert np.isfinite(tr_error[0]) and not np.isfinite(tr_error[-1])
    assert np.all(np.isfinite(column(header, rows, "tr_nominal")))


def load_benchmark_checks():
    """``perfbench/checks.py``, loaded by path: the benchmark's own output checks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_without_monte_carlo_match_the_benchmark_references(tmp_path):
    # The benchmark's recorded answers for the flow op's deterministic files,
    # checked here so that output drift shows up without a benchmark run.
    checks = load_benchmark_checks()
    assert main(["relations", "--scenario", "case3", "--out", str(tmp_path)]) == 0
    assert main(["divergence", "--scenario", "case2", "--out", str(tmp_path)]) == 0
    refs = sorted((checks.REFERENCE / "flow" / "common").iterdir())
    assert [r.name for r in refs] == [
        "case2_divergence.csv", "case3_relations.csv", "case3_relations_meta.json"
    ]
    problems = []
    for ref in refs:
        got = tmp_path / ref.name
        if ref.suffix == ".csv":
            problems += checks.compare_csv(got, ref)
        else:
            doc, ref_doc = (json.loads(f.read_text()) for f in (got, ref))
            problems += checks.compare_json(doc, ref_doc, ref.name)
    assert problems + checks.paper_checks(tmp_path) == []
    # Both benchmark ops in full, Monte Carlo included, for one recorded seed.
    ops = {
        "sweep-mc": [["sweep", "--scenario", "case1", "--simulate", "--seed", "5", "--trials", "20"]],
        "flow": [
            ["divergence", "--scenario", "case2", "--simulate", "--seed", "5"],
            ["relations", "--scenario", "case3"],
        ],
    }
    for workload, commands in ops.items():
        out = tmp_path / workload
        for argv in commands:
            assert main([*argv, "--out", str(out)]) == 0
        assert checks.check_cli_outputs(workload, 5, out) == []


def test_relations_accepts_rounded_nominal_state_matrix(tmp_path):
    # A nominal state matrix that differs from the true one only by
    # floating-point round-off still counts as exact.
    doc = preset_dict("case3")
    doc["nominal"]["a"] = (np.asarray(doc["true_system"]["a"]) + 1e-17).tolist()
    doc["ode"] = {"dt": 1e-3, "horizon": 2.0, "record_every": 0.2}
    path = write_scenario(tmp_path, doc, "case3_rounded.json")
    assert main(["relations", "--scenario", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "case3_relations_meta.json").read_text())
    assert meta["ordering"] == "nominal_upper"


def test_ode_record_every_must_divide_horizon(tmp_path, capsys):
    doc = tiny_doc()
    doc["ode"] = {"dt": 1e-3, "horizon": 2.0, "record_every": 0.3}
    path = write_scenario(tmp_path, doc)
    assert main(["validate", "--scenario", path, "--out", str(tmp_path)]) == 1
    assert "record_every" in capsys.readouterr().err


def test_relations_rejects_case1(tmp_path, capsys):
    assert main(["relations", "--scenario", "case1", "--out", str(tmp_path)]) == 2
    assert "exact state" in capsys.readouterr().err


def test_simulate_reproducible_bit_for_bit(tmp_path):
    path = write_scenario(tmp_path, tiny_doc())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--scenario", path, "--out", str(out1), "--trials", "1"]) == 0
    assert main(["simulate", "--scenario", path, "--out", str(out2), "--trials", "1"]) == 0
    assert (out1 / "tiny_simulate.csv").read_text() == (out2 / "tiny_simulate.csv").read_text()


def test_simulate_seed_override_changes_output(tmp_path):
    path = write_scenario(tmp_path, tiny_doc())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--scenario", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", path, "--out", str(out2), "--seed", "77"]) == 0
    assert (out1 / "tiny_simulate.csv").read_text() != (out2 / "tiny_simulate.csv").read_text()
    meta = json.loads((out2 / "tiny_simulate_meta.json").read_text())
    assert meta["seed"] == 77


def test_meta_json_writes_non_finite_values_as_null(tmp_path):
    # One trial has no standard error.  RFC 8259 has no NaN, so a strict
    # parser reads the meta only if that value is null, as the CSV's empty cell.
    assert main(["simulate", "--scenario", "case3", "--trials", "1", "--out", str(tmp_path)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    meta = json.loads((tmp_path / "case3_simulate_meta.json").read_text(), parse_constant=refuse)
    assert meta["steady_se"] is None
    assert np.isfinite(meta["steady_mse"])


def test_simulate_ignores_the_init_block(tmp_path):
    # The Monte Carlo starts every filter at x0, so the analytic curve next
    # to it starts from the default initial state whatever `init` says.
    doc = tiny_doc()
    plain = write_scenario(tmp_path, doc, "plain.json")
    doc["init"] = {"error_cov": "identity"}
    overridden = write_scenario(tmp_path, doc, "overridden.json")
    out1, out2 = tmp_path / "plain", tmp_path / "overridden"
    assert main(["simulate", "--scenario", plain, "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", overridden, "--out", str(out2)]) == 0
    table = (out2 / "tiny_simulate.csv").read_text()
    assert table == (out1 / "tiny_simulate.csv").read_text()
    header, rows = read_csv(out2 / "tiny_simulate.csv")
    # Row 0 is tr(sigma0): every block of the initial error covariance is sigma0.
    assert float(rows[0][header.index("tr_error_over_sensors")]) == pytest.approx(1.0, rel=1e-12)


def test_scenario_hash_semantics():
    doc = tiny_doc()
    base = parse_scenario(doc).semantic_hash()
    renamed = dict(doc, name="other", description="changed words only")
    assert parse_scenario(renamed).semantic_hash() == base
    perturbed = json.loads(json.dumps(doc))
    perturbed["true_system"]["q"][0][0] = 0.21
    assert parse_scenario(perturbed).semantic_hash() != base


def test_scenario_missing_block_is_error(tmp_path):
    doc = tiny_doc()
    del doc["gamma"]
    path = write_scenario(tmp_path, doc)
    assert main(["validate", "--scenario", path, "--out", str(tmp_path)]) == 1


def test_scenario_init_override_identity():
    doc = tiny_doc()
    doc["init"] = {"error_cov": "identity", "nominal_cov": "identity"}
    sc = parse_scenario(doc)
    init = sc.initial_state()
    np.testing.assert_array_equal(init.error_cov, np.eye(4))
    np.testing.assert_array_equal(init.nominal_cov, np.eye(4))


def short_baseline():
    doc = preset_dict("baseline")
    doc["sim"].update(horizon=1.0, trials=4)
    doc["ode"].update(horizon=1.0)
    return doc


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


RING6 = [[i, (i + 1) % 6] for i in range(6)]

# Malformed or oversized inputs that once ended in a Python traceback or an
# unbounded allocation, with the exit code each must give on validate, sweep
# and simulate.
MALFORMED = {
    "sensor_not_an_object": (_set(["true_system", "sensors", 0], 5), (1, 1, 1)),
    "gamma_not_an_object": (_set(["gamma"], 3), (1, 1, 1)),
    "gamma_value_not_a_number": (_set(["gamma"], {"value": "abc"}), (1, 1, 1)),
    "gamma_value_negative": (_set(["gamma"], {"value": -1.0}), (1, 1, 1)),
    "gamma_log_range_too_many_points": (
        _set(["gamma"], {"log_range": {"lo": 1.0, "hi": 2.0, "points": 10**9}}),
        (1, 1, 1),
    ),
    "matrix_entry_not_finite": (_set(["nominal", "a", 0, 0], float("nan")), (1, 1, 1)),
    "topology_disconnected": (
        _set(["topology"], {"nodes": 6, "edges": [[0, 1], [2, 3], [4, 5]]}),
        (2, 2, 2),
    ),
    "sim_seed_negative": (_set(["sim", "seed"], -3), (1, 1, 1)),
    "sim_trials_too_many": (_set(["sim", "trials"], 10**12), (1, 1, 1)),
    "sim_steps_too_many": (_set(["sim", "horizon"], 1e7), (1, 1, 1)),
    "sim_records_too_many": (
        _set(["sim"], {"dt": 1e-4, "horizon": 2.0, "trials": 4, "seed": 5, "record_stride": 1}),
        (1, 1, 1),
    ),
    "ode_records_too_many": (_set(["ode", "horizon"], 1e7), (1, 1, 1)),
    # Non-integral topology entries were truncated to another graph.
    "topology_nodes_not_integral": (_set(["topology"], {"nodes": 6.9, "edges": RING6}), (1, 1, 1)),
    "topology_nodes_infinite": (
        _set(["topology"], {"nodes": float("inf"), "edges": RING6}), (1, 1, 1)
    ),
    "topology_edge_not_integral": (
        _set(["topology"], {"nodes": 6, "edges": [[0, 1.7], *RING6[1:]]}), (1, 1, 1)
    ),
    # Non-integral counts were truncated to other counts.
    "gamma_log_range_points_not_integral": (
        _set(["gamma"], {"log_range": {"lo": 1.05, "hi": 100.0, "points": 5.7, "scale": "threshold"}}),
        (1, 1, 1),
    ),
    "sim_trials_not_integral": (_set(["sim", "trials"], 3.9), (1, 1, 1)),
    "sim_seed_not_integral": (_set(["sim", "seed"], 7.2), (1, 1, 1)),
    "sim_record_stride_not_integral": (_set(["sim", "record_stride"], 100.5), (1, 1, 1)),
    # JSON strings and booleans were read as numbers.
    "sim_trials_a_string": (_set(["sim", "trials"], "3"), (1, 1, 1)),
    "sim_seed_a_boolean": (_set(["sim", "seed"], True), (1, 1, 1)),
    "sim_dt_a_string": (_set(["sim", "dt"], "0.001"), (1, 1, 1)),
    "topology_nodes_a_string": (_set(["topology"], {"nodes": "6", "edges": RING6}), (1, 1, 1)),
    "gamma_log_range_points_a_string": (
        _set(["gamma"], {"log_range": {"lo": 1.05, "hi": 100.0, "points": "7", "scale": "threshold"}}),
        (1, 1, 1),
    ),
    "gamma_value_a_string": (_set(["gamma"], {"value": "2"}), (1, 1, 1)),
    "ode_horizon_a_boolean": (_set(["ode", "horizon"], True), (1, 1, 1)),
    "matrix_entry_a_string": (_set(["true_system", "q", 0, 0], "0.03"), (1, 1, 1)),
    # The init block was read only by the commands that propagate.
    "init_matrix_not_numeric": (_set(["init"], {"error_cov": "bogus"}), (1, 1, 1)),
    "init_field_unknown": (_set(["init"], {"bogus": "identity"}), (1, 1, 1)),
    # The truth's moments follow from x0 and sigma0; they are not init fields.
    "init_cross_cov": (_set(["init"], {"cross_cov": "identity"}), (1, 1, 1)),
    "init_state_cov": (_set(["init"], {"state_cov": "default"}), (1, 1, 1)),
}


def test_integral_floats_are_accepted_as_counts():
    doc = short_baseline()
    doc["sim"].update(trials=200.0, seed=7.0, record_stride=100.0)
    doc["gamma"] = {"log_range": {"lo": 1.0, "hi": 2.0, "points": 5.0}}
    sc = parse_scenario(doc)
    assert sc.sim_config() == sim.SimConfig(
        dt=1e-3, horizon=1.0, trials=200, seed=7, record_stride=100
    )
    assert sc.resolve_gammas().size == 5


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_scenario_exit_codes(tmp_path, capsys, name):
    mutate, codes = MALFORMED[name]
    doc = short_baseline()
    mutate(doc)
    path = write_scenario(tmp_path, doc)
    for command, code in zip(("validate", "sweep", "simulate"), codes):
        assert main([command, "--scenario", path, "--out", str(tmp_path)]) == code, command
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["-3", "log:5:1:3", "log:1.05:100:5:treshold"])
@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_malformed_gamma_override_is_exit_1(tmp_path, capsys, command, gamma):
    assert main([command, "--scenario", "case1", "--out", str(tmp_path), f"--gamma={gamma}"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def one_sensor_doc():
    doc = short_baseline()
    sensor = {"c": np.eye(4).tolist(), "r": (0.2 * np.eye(4)).tolist()}
    for block in ("true_system", "nominal"):
        doc[block]["sensors"] = [sensor]
    doc["topology"] = {"adjacency": [[0]]}
    return doc


@pytest.mark.parametrize("command", ["sweep", "divergence", "relations", "simulate"])
def test_one_sensor_threshold_relative_gain_is_exit_2(tmp_path, capsys, command):
    # One node is connected, but it has no algebraic connectivity and so no threshold.
    path = write_scenario(tmp_path, one_sensor_doc())
    assert main([command, "--scenario", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypothesis violation: ") and "Traceback" not in err
    # An absolute gain needs no threshold, except in the sweep, whose fit reads it.
    code = main([command, "--scenario", path, "--out", str(tmp_path), "--gamma", "2.0"])
    err = capsys.readouterr().err
    if command == "sweep":
        assert code == 2
        assert err == (
            "hypothesis violation: the consensus-gain threshold needs a connected network "
            "of at least two nodes\n"
        )
    else:
        assert code == 0


def test_one_sensor_validate_fails_the_network_check(tmp_path, capsys):
    # The network check asks for what the gain threshold needs: two or more connected nodes.
    path = write_scenario(tmp_path, one_sensor_doc())
    assert main(["validate", "--scenario", path, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "FAIL  network connected\n" in out.splitlines(keepends=True)
    assert err == "violation: network is not connected or has fewer than two nodes\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--scenario", "case1", "--trials", "abc"], 1),
        (["no-such-command"], 1),
        (["validate", "--scenario", "case1", "--seed", "3"], 1),
        (["relations", "--scenario", "case3", "--trials", "2"], 1),
        (["--help"], 0),
        (["--version"], 0),
    ],
    ids=["bad-value", "unknown-command", "validate-seed", "relations-trials", "help", "version"],
)
def test_usage_error_is_exit_1_and_help_is_exit_0(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert "Traceback" not in capsys.readouterr().err


def test_relations_hypothesis_violation_is_exit_2(tmp_path, capsys):
    # case2's closed loop keeps a neutral mode at every gain, so it is never Hurwitz.
    argv = ["relations", "--scenario", "case2", "--out", str(tmp_path), "--gamma", "0.001"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "hypothesis violation: relation analysis requires a Hurwitz closed-loop matrix\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "case1"],
        ["divergence", "--scenario", "case2"],
        ["relations", "--scenario", "case3"],
        ["simulate", "--scenario", "baseline", "--trials", "2"],
        ["validate", "--scenario", "case1"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_command_solves_the_nominal_riccati_equation_once(tmp_path, monkeypatch, argv):
    calls = []
    solve_care = solvers.solve_care

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_care(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_care", counting)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def overflowing_doc():
    """A scalar truth with a = 5 under a filter built for a = -1.

    The truth grows like e^{5 t}, so over 160 s every Monte Carlo trial
    overflows and no mean squared error exists.
    """
    sensor = {"c": [[1.0]], "r": [[0.3]]}
    return {
        "name": "overflowing",
        "true_system": {
            "a": [[5.0]], "q": [[0.2]], "sensors": [sensor, sensor], "x0": [0.4], "sigma0": [[0.5]],
        },
        "nominal": {"a": [[-1.0]], "q": [[0.2]], "sensors": [sensor, sensor]},
        "topology": {"nodes": 2, "edges": [[0, 1]]},
        "gamma": {"value": 2.0},
        "sim": {"dt": 1e-2, "horizon": 160.0, "trials": 4, "seed": 5, "record_stride": 100},
        "ode": {"dt": 1e-2, "horizon": 160.0, "record_every": 16.0},
    }


@pytest.mark.parametrize("command", [["simulate"], ["divergence", "--simulate"]])
def test_every_trial_overflowing_is_exit_2(tmp_path, capsys, command):
    path = write_scenario(tmp_path, overflowing_doc())
    assert main([*command, "--scenario", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "simulation failure: every trial overflowed; nothing to average\n"
    # A failed command writes nothing next to its scenario file.
    assert [f.name for f in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("command", [["simulate"], ["divergence", "--simulate"]])
def test_every_trial_overflowing_on_two_workers_is_exit_2(tmp_path, capsys, monkeypatch, command):
    # One trial per chunk, two chunks in flight.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sim._Engine, "chunk_size", lambda self: 1)
    workers = []
    real = sim._worker_count

    def recording(chunks):
        workers.append(real(chunks))
        return workers[-1]

    monkeypatch.setattr(sim, "_worker_count", recording)
    path = write_scenario(tmp_path, overflowing_doc())
    assert main([*command, "--scenario", path, "--out", str(tmp_path)]) == 2
    assert workers == [2]
    err = capsys.readouterr().err
    assert err == "simulation failure: every trial overflowed; nothing to average\n"


HOSTILE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    st.just([[1.0, 0.0], [0.0, 1.0]]),
)


@st.composite
def mutated_presets(draw):
    """A preset document with one to three fields replaced or deleted."""
    doc = preset_dict(draw(st.sampled_from(preset_names())))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = copy.deepcopy(draw(HOSTILE_VALUES))  # later rounds may edit it
            break
    return doc


# Hostile magnitudes (entries near 1e308, unstable truths over long horizons)
# overflow numpy kernels on purpose; these tests check the exit codes, so the
# RuntimeWarnings they provoke are not failures here, as in the overflow test above.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=mutated_presets())
def test_validate_never_raises_on_mutated_presets(doc):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "fuzz.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path), "--out", out]) in (0, 1, 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=mutated_presets())
def test_commands_never_raise_on_mutated_presets(doc):
    # relations runs no Monte Carlo, so it takes no trial count.
    commands = (
        ["sweep", "--simulate", "--trials", "2"],
        ["divergence", "--simulate", "--trials", "2"],
        ["relations"],
        ["simulate", "--trials", "2"],
    )
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "fuzz.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            argv = [*command, "--scenario", str(path), "--out", out]
            assert main(argv) in (0, 1, 2), command

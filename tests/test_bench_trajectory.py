import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)


def write_run(directory, workload, seed, commit, op_p50_s, failed=0):
    records = [{"ok": k >= failed, "problems": []} for k in range(4)]
    result = {
        "metrics": {"op_p50_s": op_p50_s, "ok_frac": 1.0 - failed / 4},
        "units": {"op_p50_s": "s", "ok_frac": "frac"},
        "records": records,
        "stamp": {"git_commit": commit, "seed": seed, "workload": workload, "nproc": 2},
    }
    directory.mkdir(exist_ok=True)
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(result))


def test_pairs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, old, new in [(1, 0.40, 0.30), (2, 0.20, 0.25), (3, 0.30, 0.28), (4, 0.50, 0.31)]:
        write_run(parent, "sweep-mc", seed, "aaa", old)
        write_run(change, "sweep-mc", seed, "bbb", new, failed=seed == 2)
    write_run(parent, "sweep-mc", 9, "aaa", 9.0)  # no partner: left out
    write_run(change, "scale", 1, "bbb", 1.0)  # a workload on one side only
    (parent / "sweep-mc-seed5-trace1.json").write_text("{}")  # traced runs are not read
    junit = tmp_path / "tier1.xml"
    junit.write_text(
        '<testsuites><testsuite name="pytest" errors="0" failures="1" skipped="0" tests="3" '
        'time="12.5"><testcase classname="tests.test_a" name="test_x" time="0.5"/>'
        '<testcase classname="tests.test_a" name="test_y" time="7.0"/>'
        '<testcase classname="tests.test_b" name="test_z" time="2.0"><failure/></testcase>'
        "</testsuite></testsuites>"
    )
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--junit", str(junit), "--out", str(out)]
    assert bench_trajectory.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["commits"] == {"parent": ["aaa"], "change": ["bbb"]}
    assert list(record["workloads"]) == ["sweep-mc"]
    sweep = record["workloads"]["sweep-mc"]
    assert sweep["pairs"] == 4 and sweep["seeds"] == [1, 2, 3, 4]
    p50 = sweep["metrics"]["op_p50_s"]
    assert p50["unit"] == "s" and p50["lower_on_change"] == 3
    assert p50["parent"]["runs"] == [0.40, 0.20, 0.30, 0.50]
    assert p50["parent"]["median"] == pytest.approx(0.35)
    assert p50["parent"]["iqr"] == pytest.approx(0.425 - 0.275)
    assert sweep["ops"]["change"] == {"attempted": 16, "failed": 1, "wrong": 0}
    assert sweep["stamp"]["parent"] == {"git_commit": "aaa", "workload": "sweep-mc", "nproc": 2}
    assert record["tier1"]["wall_s"] == 12.5 and record["tier1"]["failures"] == 1
    assert [t["test"] for t in record["tier1"]["slowest"]] == [
        "tests.test_a::test_y",
        "tests.test_b::test_z",
        "tests.test_a::test_x",
    ]


def test_refuses_results_with_no_pairs(tmp_path):
    write_run(tmp_path / "parent", "flow", 1, "aaa", 0.5)
    write_run(tmp_path / "change", "flow", 2, "bbb", 0.5)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert bench_trajectory.main([*argv, "--out", str(tmp_path / "out.json")]) == 1
    assert not (tmp_path / "out.json").exists()

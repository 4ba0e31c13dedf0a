import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("preset_outputs", ROOT / "tools" / "preset_outputs.py")
preset_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(preset_outputs)


def test_matrix_covers_every_preset_command_and_seed():
    runs = preset_outputs.matrix()
    names = [name for name, _ in runs]
    assert len(runs) == 4 * (4 + 3 * 3) == len(set(names))
    assert ("case2-validate", ["validate", "--scenario", "case2"]) in runs
    assert (
        "case1-sweep-simulate-seed7",
        ["sweep", "--simulate", "--scenario", "case1", "--seed", "7"],
    ) in runs
    assert ("case3-simulate-seed2", ["simulate", "--scenario", "case3", "--seed", "2"]) in runs
    assert all("--out" not in args for _, args in runs)


def test_normalize_writes_the_output_directory_as_a_placeholder(tmp_path):
    out = tmp_path / "case1-sweep"
    text = f"wrote {out}/case1_sweep.csv\nthreshold 543.867\n"
    assert preset_outputs.normalize(text, out) == "wrote <out>/case1_sweep.csv\nthreshold 543.867\n"


def test_one_run_saves_its_tables_streams_and_exit_code(tmp_path):
    out = tmp_path / "case2-validate"
    assert preset_outputs.run(ROOT, ["validate", "--scenario", "case2"], out) == 2
    assert sorted(p.name for p in out.iterdir()) == ["case2_validate_meta.json", "exit", "stderr", "stdout"]
    assert (out / "exit").read_text() == "2\n"
    assert "violation: nominal pair (A, Q^(1/2)) is not controllable" in (out / "stderr").read_text()
    assert "FAIL  nominal noise pair controllable" in (out / "stdout").read_text()


def write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return str(root)


def test_compare_prints_column_differences_and_verbatim_text(tmp_path, capsys):
    same = {"run/exit": "0\n", "run/stdout": "threshold 1\n"}
    a = write_tree(tmp_path / "a", {
        **same,
        "run/t.csv": "time,x,y,z\n0,-4.0,2.0,1\n1,2.0,,1\n",
        "run/rows.csv": "time,x\n0,1.0\n",
        "run/stderr": "warned\n",
        "gone/exit": "2\n",
    })
    b = write_tree(tmp_path / "b", {
        **same,
        "run/t.csv": "time,x,y,z\n0,-4.0,2.0,1.0\n1,2.000000001,3.0,1\n",
        "run/rows.csv": "time,x\n0,1.0\n1,2.0\n",
        "run/stderr": "\n",
    })
    assert preset_outputs.main(["--compare", a, a]) == 0
    assert capsys.readouterr().out == "identical\n"
    assert preset_outputs.main(["--compare", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"gone/exit: only in {a}"
    # Added rows and changed text are printed as a unified diff.
    rows = out.index("run/rows.csv:")
    assert "  +1,2.0" in out[rows:out.index("run/stderr:")]
    assert "  -warned" in out[out.index("run/stderr:"):]
    # x moved by 1e-9 at 2.0, against a column whose largest magnitude is 4.0;
    # y gained a number where it was empty; z changed only in its spelling.
    table = out[out.index("run/t.csv:") + 1:]
    assert table == [
        "  x: largest difference 1e-09, 5e-10 of the values, 2.5e-10 of the column's largest magnitude",
        "  y: largest difference inf, inf of the values, inf of the column's largest magnitude",
        "  z: largest difference 0, 0 of the values, 0 of the column's largest magnitude",
    ]

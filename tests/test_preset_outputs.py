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

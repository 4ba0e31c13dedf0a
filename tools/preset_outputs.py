"""Run the preset output matrix of one source tree and save every output for a diff.

    python tools/preset_outputs.py TREE OUT
    python tools/preset_outputs.py --compare OUT_A OUT_B

``TREE`` is a checkout of dckf; each run is ``python -m dckf`` with
``TREE/src`` first on ``PYTHONPATH``.  The matrix is ``validate``, ``sweep``,
``relations`` and ``divergence`` on the four presets, and ``sweep
--simulate``, ``divergence --simulate`` and ``simulate`` on the four presets
at seeds 1, 2 and 7.  Each run gets a directory ``OUT/<run>`` holding the CSV
tables and meta JSON the command wrote, its ``stdout``, its ``stderr`` and
its ``exit`` code.  The run's output directory is written as ``<out>`` in
stdout and stderr, so the outputs of two trees compare with one diff:

    python tools/preset_outputs.py parent-checkout /tmp/parent
    python tools/preset_outputs.py . /tmp/change
    diff -r /tmp/parent /tmp/change

``OUT`` must not exist yet, so no file of an earlier run is left in it.

``--compare`` prints each file that differs between two output trees.  For a
CSV table with the same header and row count it prints, per column that
differs, the largest difference, both relative to the two values and relative
to the column's largest magnitude; an empty cell (NaN) against a number counts
as an infinite difference.  Every other difference (another header or row
count, a meta JSON, a stream, an exit code, a file in one tree only) is
printed verbatim.  It exits 0 when the trees are identical and 1 otherwise.
"""

from __future__ import annotations

import csv
import difflib
import io
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

PRESETS = ("baseline", "case1", "case2", "case3")
SEEDS = (1, 2, 7)
PLAIN = (["validate"], ["sweep"], ["relations"], ["divergence"])
SIMULATING = (["sweep", "--simulate"], ["divergence", "--simulate"], ["simulate"])


def matrix() -> list[tuple[str, list[str]]]:
    """(run name, dckf arguments without ``--out``) of every run, in run order."""
    runs = []
    for preset in PRESETS:
        for command in PLAIN:
            runs.append((f"{preset}-{command[0]}", [*command, "--scenario", preset]))
        for seed in SEEDS:
            for command in SIMULATING:
                name = "-".join([preset, *(word.lstrip("-") for word in command), f"seed{seed}"])
                runs.append((name, [*command, "--scenario", preset, "--seed", str(seed)]))
    return runs


def normalize(text: str, out: Path) -> str:
    """``text`` with the run's output directory written as ``<out>``."""
    return text.replace(str(out), "<out>")


def run(tree: Path, args: list[str], out: Path) -> int:
    """Run ``dckf`` of ``tree`` with ``args`` into ``out``; save its streams and exit code there."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "dckf", *args, "--out", str(out)],
        cwd=out, env=env, capture_output=True, text=True,
    )
    (out / "stdout").write_text(normalize(done.stdout, out))
    (out / "stderr").write_text(normalize(done.stderr, out))
    (out / "exit").write_text(f"{done.returncode}\n")
    return done.returncode


def _cell(text: str) -> float:
    return float(text) if text else math.nan


def compare_csv(a: str, b: str) -> list[str] | None:
    """Per-column differences of two CSV tables, or None when their shapes or texts differ."""
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return None
    if any(len(row) != len(rows_a[0]) for row in rows_a + rows_b):
        return None
    lines = []
    for j, name in enumerate(rows_a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        if all(x == y for x, y in pairs):
            continue
        try:
            values = [(_cell(x), _cell(y)) for x, y in pairs]
        except ValueError:
            return None
        worst = worst_rel = 0.0
        for x, y in values:
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            if math.isfinite(x) and math.isfinite(y):
                worst = max(worst, abs(x - y))
                worst_rel = max(worst_rel, abs(x - y) / max(abs(x), abs(y)))
            else:
                worst = worst_rel = math.inf
        scale = max((abs(v) for pair in values for v in pair if math.isfinite(v)), default=0.0)
        of_column = worst / scale if scale else math.inf
        lines.append(
            f"  {name}: largest difference {worst:.3g}, {worst_rel:.3g} of the values, "
            f"{of_column:.3g} of the column's largest magnitude"
        )
    return lines


def compare(a: Path, b: Path) -> list[str]:
    """Report lines for every file that differs between output trees ``a`` and ``b``."""
    names = sorted(
        {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
        | {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    )
    report = []
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.is_file() and fb.is_file()):
            report.append(f"{name}: only in {a if fa.is_file() else b}")
            continue
        ta, tb = fa.read_text(), fb.read_text()
        if ta == tb:
            continue
        report.append(f"{name}:")
        lines = compare_csv(ta, tb) if name.suffix == ".csv" else None
        if lines is None:
            diff = difflib.unified_diff(ta.splitlines(), tb.splitlines(), str(fa), str(fb), lineterm="")
            lines = [f"  {line}" for line in diff]
        report += lines
    return report


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        report = compare(Path(argv[1]), Path(argv[2]))
        print("\n".join(report) if report else "identical")
        return 1 if report else 0
    if len(argv) != 2:
        print(
            "usage: python tools/preset_outputs.py TREE OUT\n"
            "       python tools/preset_outputs.py --compare OUT_A OUT_B",
            file=sys.stderr,
        )
        return 1
    tree, out = Path(argv[0]), Path(argv[1]).resolve()
    out.mkdir(parents=True)
    codes = Counter(run(tree, args, out / name) for name, args in matrix())
    summary = ", ".join(f"{count} exited {code}" for code, count in sorted(codes.items()))
    print(f"{sum(codes.values())} runs into {out}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

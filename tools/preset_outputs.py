"""Run the preset output matrix of one source tree and save every output for a diff.

    python tools/preset_outputs.py TREE OUT

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
"""

from __future__ import annotations

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


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/preset_outputs.py TREE OUT", file=sys.stderr)
        return 1
    tree, out = Path(argv[0]), Path(argv[1]).resolve()
    out.mkdir(parents=True)
    codes = Counter(run(tree, args, out / name) for name, args in matrix())
    summary = ", ".join(f"{count} exited {code}" for code, count in sorted(codes.items()))
    print(f"{sum(codes.values())} runs into {out}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

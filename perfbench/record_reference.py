"""Record the reference outputs that the command-line ops are checked against.

Run from the repository root, at the commit whose answers are taken as right:

    python3 perfbench/record_reference.py

For each command-line workload and each Monte Carlo seed in
``workloads.MC_SEEDS`` it runs the op's ``dckf`` commands and keeps their
CSV/JSON outputs under ``perfbench/reference/<workload>/seed<k>/``.  Files
that come out byte-identical for every seed move to ``common/``.  Ops run
one per available core.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"


def _record(workload: str, mc: int) -> None:
    out = REFERENCE / workload / f"seed{mc}"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in workloads.cli_commands(workload, mc):
        subprocess.run(
            [sys.executable, "-m", "dckf", *argv, "--out", str(out)],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )


def _factor_common(workload: str) -> None:
    folders = [REFERENCE / workload / f"seed{mc}" for mc in workloads.MC_SEEDS]
    common = REFERENCE / workload / "common"
    common.mkdir(exist_ok=True)
    for name in sorted(p.name for p in folders[0].iterdir()):
        payloads = {(f / name).read_bytes() for f in folders}
        if len(payloads) == 1:
            shutil.move(folders[0] / name, common / name)
            for f in folders[1:]:
                (f / name).unlink()


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    if REFERENCE.exists():
        shutil.rmtree(REFERENCE)
    jobs = [(w, mc) for w in ("sweep-mc", "flow") for mc in workloads.MC_SEEDS]
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for future in [pool.submit(_record, w, mc) for w, mc in jobs]:
            future.result()
    for workload in ("sweep-mc", "flow"):
        _factor_common(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Condense benchmark runs of a parent commit and a change into one trajectory record.

    python tools/bench_trajectory.py --parent DIR --change DIR [--junit FILE] --out BENCH_<n>.json

Each ``DIR`` holds the ``<workload>-seed<N>-trace0.json`` files that
``perfbench/run.py`` writes under ``perfbench/results/``, copied there from a
checkout of one commit after each run.  Runs of the two commits pair up by
workload and seed; a run without a partner is left out.  For every workload
the record holds:

- each end-to-end metric's median and interquartile range on both sides, every
  run's value, and how many pairs read lower on the change;
- the number of pairs, their seeds, and the failed and wrong ops of each side;
- both commits and both sides' ``stamp`` (the comparability record ``run.py``
  writes), with the fields that vary between runs, such as the seed, left out.

``--junit`` adds the tier-1 suite's wall time and its ten slowest tests, read
from the report of ``pytest --junitxml=FILE``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """Untraced results in ``directory``, keyed by (workload, seed)."""
    runs = {}
    for path in sorted(directory.iterdir()):
        match = RESULT_NAME.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of ``values``, with the values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def common_stamp(results: list[dict]) -> dict:
    """The stamp fields on which every run agrees."""
    stamps = [r["stamp"] for r in results]
    return {k: v for k, v in stamps[0].items() if all(s.get(k) == v for s in stamps)}


def ops_summary(results: list[dict]) -> dict:
    records = [rec for r in results for rec in r["records"]]
    return {
        "attempted": len(records),
        "failed": sum(not rec["ok"] for rec in records),
        "wrong": sum(bool(rec["problems"]) for rec in records),
    }


def condense(parent: dict, change: dict) -> dict:
    """Per-workload comparison of the runs that both sides made."""
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        if not seeds:
            continue
        before = [parent[workload, s] for s in seeds]
        after = [change[workload, s] for s in seeds]
        metrics = {}
        for name, unit in before[0]["units"].items():
            old = [r["metrics"][name] for r in before]
            new = [r["metrics"][name] for r in after]
            metrics[name] = {
                "unit": unit,
                "parent": spread(old),
                "change": spread(new),
                "lower_on_change": sum(b < a for a, b in zip(old, new)),
            }
        workloads[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "metrics": metrics,
            "ops": {"parent": ops_summary(before), "change": ops_summary(after)},
            "stamp": {"parent": common_stamp(before), "change": common_stamp(after)},
        }
    return workloads


def tier1(junit: Path) -> dict:
    """Wall time, counts and the ten slowest tests of a ``pytest --junitxml`` report."""
    root = ET.parse(junit).getroot()
    suite = root if root.tag == "testsuite" else root.find("testsuite")
    cases = [
        (f"{case.get('classname')}::{case.get('name')}", float(case.get("time", 0.0)))
        for case in suite.iter("testcase")
    ]
    cases.sort(key=lambda item: -item[1])
    return {
        "tests": int(suite.get("tests")),
        "failures": int(suite.get("failures")),
        "errors": int(suite.get("errors")),
        "skipped": int(suite.get("skipped")),
        "wall_s": float(suite.get("time")),
        "slowest": [{"test": name, "s": seconds} for name, seconds in cases[:10]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's results")
    parser.add_argument("--change", type=Path, required=True, help="the change's results")
    parser.add_argument("--junit", type=Path, help="pytest --junitxml report of the tier-1 suite")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    workloads = condense(load_runs(args.parent), load_runs(args.change))
    if not workloads:
        print("no workload has runs on both sides", file=sys.stderr)
        return 1
    record = {
        "commits": {
            side: sorted({w["stamp"][side].get("git_commit") or "unknown" for w in workloads.values()})
            for side in ("parent", "change")
        },
        "workloads": workloads,
    }
    if args.junit:
        record["tier1"] = tier1(args.junit)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

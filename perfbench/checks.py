"""Output checks for the command-line workloads.

Every file an op writes is compared with the file recorded for the same
command and Monte Carlo seed at a known-good commit (``reference/``), and the
paper-level results are checked on their own:

- each sweep row is analyzed and satisfies ``lower <= tr_error <= upper1``;
- ``case2`` yields a divergence certificate with ``will_diverge``;
- ``case3`` yields the ordering ``nominal_upper``.

Numbers match when ``|got - ref| <= RTOL * max(|got|, |ref|) + atol``.  In a
CSV file ``atol`` is ``COLUMN_ATOL`` times the largest magnitude in the
reference column, or in the column named by ``SCALE_COLUMNS`` for a column
whose values are zero up to rounding; in a JSON file it is ``JSON_ATOL``.  An
exact covariance flow in place of RK4 moves outputs by about 1e-9 relative and
a reordered Monte Carlo recursion by about 2e-14, both well inside; a wrong
answer moves them by far more.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6
COLUMN_ATOL = 1e-7
JSON_ATOL = 1e-12
# The gap's smallest eigenvalue is zero up to rounding (about 1e-12), so it is
# judged against the size of the gap itself.
SCALE_COLUMNS = {"gap_min_eig": "gap_norm"}
# Meta fields that name the tool rather than describe a result.
IGNORED_META_KEYS = frozenset({"version"})


def reference_files(workload: str, mc: int) -> dict[str, Path]:
    """Reference outputs for one op: seed-specific files override the shared ones."""
    files = {}
    for sub in ("common", f"seed{mc}"):
        folder = REFERENCE / workload / sub
        if folder.is_dir():
            files.update({p.name: p for p in sorted(folder.iterdir()) if p.is_file()})
    if not files:
        raise FileNotFoundError(f"no reference outputs for {workload} at seed {mc}")
    return files


def _close(got: float, ref: float, atol: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(got - ref) <= RTOL * max(abs(got), abs(ref)) + atol


def _number(text: str) -> float | None:
    if text == "":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(got: Path, ref: Path) -> list[str]:
    with got.open(newline="") as f:
        got_rows = list(csv.reader(f))
    with ref.open(newline="") as f:
        ref_rows = list(csv.reader(f))
    if not got_rows or got_rows[0] != ref_rows[0]:
        return [f"{got.name}: header differs from the reference"]
    if len(got_rows) != len(ref_rows):
        return [f"{got.name}: {len(got_rows) - 1} rows, reference has {len(ref_rows) - 1}"]
    header, got_rows, ref_rows = ref_rows[0], got_rows[1:], ref_rows[1:]

    columns = {name: [_number(r[col]) for r in ref_rows] for col, name in enumerate(header)}
    problems = []
    for col, name in enumerate(header):
        ref_vals = columns[name]
        numeric = all(v is not None for v in ref_vals)
        scale_vals = columns.get(SCALE_COLUMNS.get(name, name), ref_vals)
        atol = COLUMN_ATOL * max(
            (abs(v) for v in scale_vals if v is not None and not math.isnan(v)), default=0.0
        )
        for k, (g_row, r_row) in enumerate(zip(got_rows, ref_rows)):
            g = g_row[col] if col < len(g_row) else None
            if numeric:
                gv = _number(g) if g is not None else None
                ok = gv is not None and _close(gv, ref_vals[k], atol)
            else:
                ok = g == r_row[col]
            if not ok:
                problems.append(f"{got.name} row {k + 1} {name}: {g!r} vs reference {r_row[col]!r}")
                break
    return problems


def compare_json(got, ref, where: str) -> list[str]:
    """Every reference field must be present and match; extra fields are allowed."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key in IGNORED_META_KEYS:
                continue
            if key not in got:
                problems.append(f"{where}.{key}: missing")
            else:
                problems += compare_json(got[key], value, f"{where}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: list differs in length"]
        return [p for g, r in zip(got, ref) for p in compare_json(g, r, where)]
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref else [f"{where}: {got!r} vs reference {ref!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} is not a number"]
    return [] if _close(float(got), float(ref), JSON_ATOL) else [
        f"{where}: {got!r} vs reference {ref!r}"
    ]


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def paper_checks(out: Path) -> list[str]:
    """The paper-level results, read from whichever command outputs are present."""
    problems = []
    sweep = out / "case1_sweep.csv"
    if sweep.exists():
        for k, row in enumerate(_read_csv(sweep), start=1):
            if row["status"] != "ok":
                problems.append(f"sweep row {k}: status {row['status']!r}")
                continue
            tr_nominal, gap = float(row["tr_nominal"]), float(row["gap"])
            lower = max(0.0, tr_nominal - gap)
            tr_error, upper = float(row["tr_error"]), float(row["upper1"])
            if not lower <= tr_error <= upper:
                problems.append(f"sweep row {k}: {lower!r} <= {tr_error!r} <= {upper!r} fails")
            if not math.isfinite(float(row["mse"] or "nan")):
                problems.append(f"sweep row {k}: no Monte Carlo MSE")
    divergence = out / "case2_divergence_meta.json"
    if divergence.exists():
        certs = json.loads(divergence.read_text()).get("certificates", [])
        if not any(c.get("will_diverge") for c in certs):
            problems.append("case2: no certificate with will_diverge")
    relations = out / "case3_relations_meta.json"
    if relations.exists():
        ordering = json.loads(relations.read_text()).get("ordering")
        if ordering != "nominal_upper":
            problems.append(f"case3: ordering {ordering!r}, expected 'nominal_upper'")
    return problems


def check_cli_outputs(workload: str, mc: int, out: Path) -> list[str]:
    """All problems with one command-line op's outputs; empty when they are correct."""
    problems = []
    for name, ref in reference_files(workload, mc).items():
        got = out / name
        if not got.is_file():
            problems.append(f"{name}: not written")
        elif name.endswith(".csv"):
            problems += compare_csv(got, ref)
        else:
            try:
                doc = json.loads(got.read_text())
            except json.JSONDecodeError as exc:
                problems.append(f"{name}: invalid JSON ({exc})")
                continue
            problems += compare_json(doc, json.loads(ref.read_text()), name)
    return problems + paper_checks(out)

"""The dckf benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload {sweep-mc,flow,scale} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports ``dckf`` from ``src/`` and exits
with code 2, printing no result, when that is missing.  One run measures ops
one at a time, in one process, checks every op's outputs, and prints one
metric per line followed by a JSON result as its last line.  Command-line
workloads run ops for about ``--seconds`` (always at least one); ``scale``
runs a fixed set of generated networks, so that every commit runs the same ops.
Everything it measured, stamped with the code and machine it ran on, goes to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.

``--trace 0`` reports the end-to-end metrics.  Command-line ops run ``python3
-m dckf`` as a child process, so each pays interpreter start-up and imports
as a user's run does; ``scale`` ops are library calls in this process.

``--trace 1`` runs every op twice in this process, untraced and then traced
(command-line ops through ``dckf.cli.main``), and reports per-layer metrics
per traced op, the tracing overhead, and the N-scaling report.  See NOTES.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from itertools import count
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
# Children are killed at this point of a run, so a hung op cannot keep the
# run past the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# Stand-in for a median of +inf (more than half the ops failed): JSON has no
# infinity.
INF_STANDIN = 1e6

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_cpu_s": "s",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in (
        "sim.monte_carlo_mse", "solvers.propagate", "solvers.solve_sylvester",
        "solvers.steady_state", "solvers.solve_care", "analysis.trace_bounds",
        "analysis.asymptotic_fit", "analysis.divergence_test", "filtering.build_filter",
        "filtering.gamma_threshold", "model.stack", "model.deviations", "matkit.expm",
        "scenario.load_scenario",
    ):
        units[f"{name}.s"] = "s"
    for name in (
        "sim.monte_carlo_mse", "solvers.propagate", "solvers.solve_sylvester",
        "solvers.solve_lyapunov", "solvers.steady_state", "solvers.solve_care",
        "filtering.build_filter", "filtering.gamma_threshold", "model.stack", "matkit.expm",
    ):
        units[f"{name}.calls"] = "count"
    for name in ("solvers.solve_sylvester", "analysis.relation_analysis", "cli.main"):
        units[f"{name}.self_s"] = "s"
    units.update({
        "sim.trial_steps": "count",
        "sim.ns_per_trial_step": "ns",
        "sim.overflow_trials": "count",
        "solvers.propagate.s_per_sim_s": "s/s",
        "analysis.relation_analysis.s_per_sim_s": "s/s",
        "solvers.steady_state.max_residual": "1",
        "solvers.solve_care.newton_steps": "count",
        "cli.bytes_written": "bytes",
        "trace.overhead_frac": "frac",
        "trace.top_span_coverage": "frac",
        "ops.failed_frac": "frac",
    })
    for n in workloads.SCALING_NODES:
        units[f"solvers.steady_state.s.n{n}"] = "s"
        units[f"solvers.solve_sylvester.s.n{n}"] = "s"
        units[f"analysis.trace_bounds.s.n{n}"] = "s"
        units[f"failed_frac.n{n}"] = "frac"
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# Running things
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run: its seed, work directory, deadline and child environment."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self._dirs = count()

    def fresh_dir(self) -> Path:
        path = self.work / f"op{next(self._dirs)}"
        path.mkdir()
        return path

    def spawn(self, cmd: list[str], log: Path) -> tuple[int, float, float, int]:
        """Run a child to completion: (exit code, wall s, user+sys CPU s, peak RSS KiB)."""
        with log.open("ab") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=sink, stderr=sink)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _record(op: str, wall: float, cpu: float, error: str | None, problems: list[str],
            **extra) -> dict:
    return {"op": op, "wall_s": wall, "cpu_s": cpu, "ok": error is None and not problems,
            "error": error, "problems": problems[:5], **extra}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cli_op_child(run: Run, op_index: int) -> dict:
    """One command-line op, each command in its own ``python3 -m dckf`` process."""
    mc = workloads.mc_seed(run.seed, op_index)
    work = run.fresh_dir()
    out = work / "out"
    wall = cpu = 0.0
    rss = 0
    error = None
    for argv in workloads.cli_commands(run.workload, mc):
        code, w, c, r = run.spawn(
            [sys.executable, "-m", "dckf", *argv, "--out", str(out)], work / "log.txt"
        )
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if code != 0:
            error = f"dckf {argv[0]} exited with {code}"
            break
    problems = [] if error else checks.check_cli_outputs(run.workload, mc, out)
    return _record(f"op{op_index}", wall, cpu, error, problems, mc_seed=mc, rss_kb=rss)


def cli_op_inprocess(run: Run, dckf, op_index: int, tracer) -> dict:
    """One command-line op through ``dckf.cli.main``, traced when ``tracer`` is given."""
    mc = workloads.mc_seed(run.seed, op_index)
    op = f"op{op_index}" + ("-traced" if tracer else "")
    out = run.fresh_dir() / "out"
    sink = io.StringIO()
    error = None
    start, cpu0 = time.perf_counter(), time.process_time()
    for argv in workloads.cli_commands(run.workload, mc):
        with redirect_stdout(sink), redirect_stderr(sink), (
            tracer.active(op) if tracer else nullcontext()
        ):
            try:
                code = dckf.cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op
                code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            error = f"dckf {argv[0]} returned {code}"
            break
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    problems = [] if error else checks.check_cli_outputs(run.workload, mc, out)
    return _record(op, wall, cpu, error, problems, mc_seed=mc, traced=bool(tracer),
                   pair=op_index, bytes=_dir_bytes(out) if out.exists() else 0)


def scale_round(run: Run, dckf, graph: int, tracer, nodes: int = workloads.SCALE_NODES,
                gains: int = workloads.SCALE_GAINS, tag: str = "") -> list[dict]:
    """One generated network: build its filter, then one op per gain."""
    prefix = f"{tag}g{graph}" + ("-traced" if tracer else "")

    def traced(op: str):
        return tracer.active(op) if tracer else nullcontext()

    try:
        with traced(f"{prefix}-prep"):
            case = workloads.scale_case(dckf, run.seed, graph, nodes, gains)
    except Exception as exc:  # a network that cannot be built fails all its ops
        error = f"{type(exc).__name__}: {exc}"
        return [_record(f"{prefix}-{k}", math.inf, math.inf, error, [], traced=bool(tracer),
                        pair=f"{tag}{graph}-{k}") for k in range(gains)]
    records = []
    for k, gamma in enumerate(case.gammas):
        op = f"{prefix}-{k}"
        error, problems = None, []
        start, cpu0 = time.perf_counter(), time.process_time()
        with traced(op):
            try:
                problems = workloads.scale_op(dckf, case, gamma)
            except Exception as exc:  # solver failures are failed ops
                error = f"{type(exc).__name__}: {str(exc)[:200]}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
        records.append(_record(op, wall, cpu, error, problems, gamma=gamma, nodes=nodes,
                               traced=bool(tracer), pair=f"{tag}{graph}-{k}"))
    return records


def timed_rounds(rounds, seconds: float) -> list[dict]:
    """Run rounds until the next one would end past ``seconds``; always at least one."""
    start = time.perf_counter()
    durations: list[float] = []
    records: list[dict] = []
    for run_round in rounds:
        if durations and time.perf_counter() - start + statistics.mean(durations) > seconds:
            break
        t = time.perf_counter()
        records += run_round()
        durations.append(time.perf_counter() - t)
    return records


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def _median_or_standin(values: list[float]) -> float:
    value = statistics.median(values)
    return value if math.isfinite(value) else INF_STANDIN


def untraced_run(run: Run, seconds: float) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = run.spawn(
            [sys.executable, str(HERE / "setup_probe.py"), run.workload, str(run.seed)],
            run.work / "setup.log",
        )
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}; see {run.work / 'setup.log'}")
        setup.append(wall)

    if run.workload == "scale":
        dckf = _import_dckf()
        records = [r for g in range(workloads.SCALE_NETWORKS)
                   for r in scale_round(run, dckf, g, None)]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        records = timed_rounds((lambda i=i: [cli_op_child(run, i)] for i in count()), seconds)
        peak_kb = max(r["rss_kb"] for r in records)

    ok = [r["ok"] for r in records]
    metrics = {
        "op_p50_s": _median_or_standin([r["wall_s"] if r["ok"] else math.inf for r in records]),
        "op_cpu_s": _median_or_standin([r["cpu_s"] if r["ok"] else math.inf for r in records]),
        "ok_frac": sum(ok) / len(ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "records": records,
            "setup_s": setup}


def traced_run(run: Run, seconds: float) -> dict:
    dckf = _import_dckf()
    tracer = tracing.Tracer(dckf)
    if run.workload == "scale":
        records = [r for g in range(workloads.SCALE_NETWORKS)
                   for r in scale_round(run, dckf, g, None) + scale_round(run, dckf, g, tracer)]
    else:
        records = timed_rounds(
            (lambda i=i: [cli_op_inprocess(run, dckf, i, None),
                          cli_op_inprocess(run, dckf, i, tracer)]
             for i in count()),
            seconds,
        )
    traced = [r for r in records if r["traced"]]
    plain = {r["pair"]: r for r in records if not r["traced"]}
    # Layer times are per successful op: a failed op stops early, so counting
    # it would make a layer look faster exactly when the defect shows.
    span_ops = {r["op"] for r in traced if r["ok"]}
    span_ops |= {s.op for s in tracer.spans if s.op and s.op.endswith("-prep")}
    metrics = tracing.layer_metrics(tracer.spans, span_ops, sum(r["ok"] for r in traced))
    metrics["trace.overhead_frac"] = statistics.median(
        r["wall_s"] / plain[r["pair"]]["wall_s"] for r in traced
    ) - 1.0
    metrics["trace.top_span_coverage"] = statistics.median(
        tracing.top_level_time(tracer.spans, r["op"]) / r["wall_s"] for r in traced
    )
    metrics["cli.bytes_written"] = statistics.mean(r.get("bytes", 0) for r in traced)
    metrics["ops.failed_frac"] = sum(not r["ok"] for r in records) / len(records)

    scaling = []
    for n in workloads.SCALING_NODES:
        scaled = scale_round(run, dckf, 0, tracer, nodes=n, gains=workloads.SCALING_GAINS,
                             tag=f"n{n}-")
        scaling += scaled
        ok = {r["op"] for r in scaled if r["ok"]}
        m = tracing.layer_metrics(tracer.spans, ok, len(ok))
        for key in ("solvers.steady_state.s", "solvers.solve_sylvester.s",
                    "analysis.trace_bounds.s"):
            # Over successful ops only; +inf (as op_p50_s) when none succeeded.
            metrics[f"{key}.n{n}"] = m.get(key, 0.0) if ok else INF_STANDIN
        metrics[f"failed_frac.n{n}"] = sum(r["error"] is not None for r in scaled) / len(scaled)

    absent = sorted(
        name for name in PER_LAYER_UNITS
        if any(name.startswith(t + ".") for t in tracer.absent)
    )
    reported = {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
    spans = [
        [s.name, s.start, s.end, s.parent, s.op, s.facts or None, s.error] for s in tracer.spans
    ]
    return {"metrics": reported, "units": PER_LAYER_UNITS, "records": records,
            "scaling_records": scaling, "all_layer_metrics": metrics, "absent_targets": tracer.absent,
            "absent_metrics": absent, "probe_errors": tracer.probe_errors, "spans": spans}


def _import_dckf():
    sys.path.insert(0, str(SRC))
    import dckf

    return dckf


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded, by library file name."""
    import ctypes

    threads = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = int(fn())
                break
    return threads


def environment_stamp(args) -> dict:
    """What makes results from two commits comparable: code, inputs, machine, libraries."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS, if it has its own)

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dckf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next((l.split(":", 1)[1].strip() for l in info
                              if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ},
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dckf benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dckf" / "__init__.py").is_file():
        print(f"perfbench: no dckf package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    run = Run(args.workload, args.seed, work)
    try:
        result = (traced_run if args.trace else untraced_run)(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    correct = not any(r["problems"] for r in records + result.get("scaling_records", []))
    failed = sum(not r["ok"] for r in records)
    result["stamp"] = environment_stamp(args)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(result, indent=1, default=float) + "\n")

    for r in records + result.get("scaling_records", []):
        if r["problems"]:
            print(f"wrong output in {r['op']}: {'; '.join(r['problems'])}")
    for name in result.get("absent_metrics", []):
        print(f"absent: {name} (its function does not exist at this commit)")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {result['units'][name]}")
    print(f"{len(records)} ops attempted, {failed} failed; details in {result_file}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

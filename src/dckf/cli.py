"""Command-line interface: validate, sweep, divergence, relations, simulate.

Every command reads one scenario (a shipped preset name or a JSON path),
prints a human-readable summary, and writes schema-stable CSV tables plus a
JSON metadata document to the output directory.  A command that fails writes
nothing, except ``validate``, which records its verdicts.  Exit codes: 0 on
success, 1 on parse/IO errors, 2 on assumption or hypothesis violations.

Each command that runs a Monte Carlo (``sweep --simulate``, ``divergence
--simulate`` and ``simulate``) imports ``dckf.sim`` where it runs it, so the
other commands start without the engine and its thread pool.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    asymptotic_fit,
    deviation_gap,
    divergence_test,
    relation_analysis,
    trace_bounds,
)
from .filtering import build_filter
from .model import HypothesisError, SimulationOverflowError, deviations, validate_assumptions
from .scenario import (
    Scenario, ScenarioError, _require_threshold_network, load_scenario, preset_names
)
from .solvers import SolverError, propagate, steady_state

__all__ = ["main"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _strict_json(value):
    """``value`` with each non-finite float, which strict JSON cannot hold, set to None (null)."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parse_gamma_override(text: str) -> dict:
    try:
        if text.startswith("log:"):
            parts = text.split(":")
            if len(parts) not in (4, 5):
                raise ScenarioError("gamma override: expected log:<lo>:<hi>:<points>[:threshold|absolute]")
            spec = {
                "lo": float(parts[1]),
                "hi": float(parts[2]),
                "points": int(parts[3]),
                "scale": parts[4] if len(parts) == 5 else "absolute",
            }
            return {"log_range": spec}
        if "," in text:
            return {"list": [float(v) for v in text.split(",")]}
        return {"value": float(text)}
    except ValueError as exc:
        raise ScenarioError(f"bad gamma override {text!r}: {exc}") from exc


def _first_gamma(scenario: Scenario) -> float:
    return float(scenario.resolve_gammas()[0])


# ---------------------------------------------------------------------------
# Commands
#
# Each command prints its summary and returns (exit code, meta fields or
# None, tables), where tables maps a file suffix to (header, rows) in write
# order; ``main`` writes them.
# ---------------------------------------------------------------------------


def cmd_validate(args, scenario: Scenario) -> tuple[int, dict | None, dict]:
    report = validate_assumptions(scenario.true_system, scenario.nominal, scenario.topology)
    checks = [
        ("network connected", report.connected),
        ("nominal pair observable", report.observable),
        ("nominal noise pair controllable", report.controllable),
        (
            "mismatch feedthrough zero or true state matrix Hurwitz",
            report.mismatch_ok,
        ),
    ]
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    meta = {**asdict(report), "all_ok": report.all_ok, "failures": report.failures()}
    if report.all_ok:
        print("all assumptions hold")
        return 0, meta, {}
    for line in report.failures():
        print(f"violation: {line}", file=sys.stderr)
    return 2, meta, {}


SWEEP_HEADER = [
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


def cmd_sweep(args, scenario: Scenario) -> tuple[int, dict | None, dict]:
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    dev = deviations(ts, nm)
    gammas = np.sort(scenario.resolve_gammas())
    base = build_filter(nm, ts, topo, float(gammas[-1]))
    if base.gamma_min is None:
        _require_threshold_network(topo)
        print("no consensus-gain threshold exists for this nominal model", file=sys.stderr)
        return 2, None, {}
    threshold = base.gamma_min
    fit = asymptotic_fit(base)
    cfg = scenario.sim_config(args.trials, args.seed) if args.simulate else None

    rows = []
    simulated = {}  # row index -> filter, for the gains analyzed without error
    for gamma in gammas:
        fr = base.with_gamma(float(gamma))
        tr_nominal = tr_error = gap = upper1 = upper2 = floor = float("nan")
        status = "ok"
        try:
            ss = steady_state(fr, ts, nm)
            rep = trace_bounds(fr, ss, dev)
            tr_nominal, tr_error, gap = rep.tr_nominal, rep.tr_error, rep.gap
            upper1 = rep.upper
            floor = rep.tr_nominal_floor
            g = float(gamma)
            plain_fit = math.sqrt(max(fit.a1 + fit.b1 / g + fit.c1 / g**2, 0.0))
            weighted_fit = math.sqrt(max(fit.a2 + fit.b2 / g + fit.c2 / g**2, 0.0))
            upper2 = tr_nominal + deviation_gap(fr, dev, plain_fit, weighted_fit)
        except (HypothesisError, SolverError) as exc:
            status = "below_threshold" if gamma < fr.gamma_ref else f"failed: {exc}"
        if status == "ok":
            simulated[len(rows)] = fr
        rows.append(
            [float(gamma), threshold, tr_nominal, tr_error, gap, upper1, upper2, floor, math.nan, status]
        )
    if cfg is not None and simulated:
        from .sim import monte_carlo_sweep

        # One shared set of trials drives every gain (common random numbers).
        series = monte_carlo_sweep(ts, list(simulated.values()), cfg)
        for k, mc in zip(simulated, series):
            rows[k][SWEEP_HEADER.index("mse")] = mc.steady_mse

    meta = {
        "gamma_threshold": threshold,
        "gamma_count": int(gammas.size),
        "simulated": bool(args.simulate),
        "trials": cfg.trials if cfg else None,
        "seed": cfg.seed if cfg else None,
        "fit": {
            "a1": fit.a1, "b1": fit.b1, "c1": fit.c1,
            "a2": fit.a2, "b2": fit.b2, "c2": fit.c2,
            "residual": fit.fit_residual,
        },
    }
    ok_rows = sum(1 for r in rows if r[-1] == "ok")
    print(f"sweep: {ok_rows}/{len(rows)} gains analyzed, threshold {threshold:.6g}")
    return 0, meta, {"sweep": (SWEEP_HEADER, rows)}


DIVERGENCE_HEADER = ["time", "error_proj", "nominal_proj", "tr_error", "tr_nominal", "tr_error_rate"]


def cmd_divergence(args, scenario: Scenario) -> tuple[int, dict | None, dict]:
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    gamma = _first_gamma(scenario)
    fr = build_filter(nm, ts, topo, gamma)
    certs = divergence_test(fr, ts)
    if certs:
        for cert in certs:
            direction = np.array2string(cert.vector.real, precision=6)
            print(
                f"certificate: freq {cert.freq:.6g}, direction {direction}, "
                f"eigen residual {cert.aug_residual:.2e}, "
                f"diverges: {'yes' if cert.will_diverge else 'no'}"
                + (f", growth rate {cert.growth_rate:.6g}/time" if cert.will_diverge else "")
            )
    else:
        print("no divergence certificates; the nominal noise model excites every neutral mode")

    grid = scenario.ode.grid()
    traj = propagate(fr, ts, grid, init=scenario.initial_state())
    rows = []
    proj_vec = None
    if certs:
        e = certs[0].vector
        proj_vec = np.kron(np.ones(ts.sensor_count), e.real)
        norm = np.linalg.norm(e.imag)
        if norm > 1e-9:
            print("note: certificate is complex; projecting on its real part")
    # A diverging flow's cells read inf or empty (NaN), as its trajectory does.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(grid):
            if proj_vec is not None:
                proj_e = float(proj_vec @ traj.error_cov[k] @ proj_vec)
                proj_u = float(proj_vec @ traj.nominal_cov[k] @ proj_vec)
            else:
                proj_e = proj_u = float("nan")
            rows.append(
                [
                    float(t),
                    proj_e,
                    proj_u,
                    float(np.trace(traj.error_cov[k])),
                    float(np.trace(traj.nominal_cov[k])),
                    float(traj.error_trace_rate[k]),
                ]
            )
    del traj  # nothing reads the flow after its rows: free it before the Monte Carlo
    tables = {"divergence": (DIVERGENCE_HEADER, rows)}
    meta = {
        "gamma": gamma,
        "mismatch_zero": fr.mismatch_is_zero,
        "certificates": [
            {
                "freq": c.freq,
                "vector_real": c.vector.real.tolist(),
                "vector_imag": c.vector.imag.tolist(),
                "aug_residual": c.aug_residual,
                "will_diverge": c.will_diverge,
                "growth_rate": c.growth_rate,
            }
            for c in certs
        ],
    }
    if args.simulate:
        from .sim import monte_carlo_mse

        cfg = scenario.sim_config(args.trials, args.seed)
        series = monte_carlo_mse(ts, fr, cfg)
        tables["divergence_mse"] = (
            ["time", "mse"],
            [[float(t), float(v)] for t, v in zip(series.time, series.mse)],
        )
        meta["trials"] = cfg.trials
        meta["seed"] = cfg.seed
        meta["overflow_trials"] = list(series.overflow_trials)
    return 0, meta, tables


RELATIONS_HEADER = ["time", "tr_nominal", "tr_error", "gap_min_eig", "gap_norm", "gap_norm_bound"]


def cmd_relations(args, scenario: Scenario) -> tuple[int, dict | None, dict]:
    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    dev = deviations(ts, nm)
    if not dev.state_matrix_exact:
        print(
            "relation analysis requires exact state and measurement matrices; "
            f"deviation norms are {dev.d_a_norm:.3g} (state) and "
            f"{max(dev.d_c_norms):.3g} (measurement)",
            file=sys.stderr,
        )
        return 2, None, {}
    gamma = _first_gamma(scenario)
    fr = build_filter(nm, ts, topo, gamma)
    init = scenario.initial_state()
    grid = scenario.ode.grid()
    rel = relation_analysis(fr, dev, init.nominal_cov - init.error_cov, grid)
    traj = propagate(fr, ts, grid, init=init)
    rows = [
        [
            float(t),
            float(np.trace(traj.nominal_cov[k])),
            float(np.trace(traj.error_cov[k])),
            float(rel.gap_min_eig[k]),
            float(rel.gap_norm[k]),
            float(rel.gap_norm_bound[k]),
        ]
        for k, t in enumerate(grid)
    ]
    verdict = {
        "nominal_upper": "nominal index upper-bounds the error covariance",
        "nominal_lower": "nominal index lower-bounds the error covariance",
        "violated": "claimed ordering violated numerically",
        "inconclusive": "mismatch drive is indefinite; no ordering claimed",
    }[rel.ordering]
    print(f"mismatch drive sign: {rel.drive_sign}; {verdict}")
    meta = {
        "gamma": gamma,
        "drive_sign": rel.drive_sign,
        "ordering": rel.ordering,
        "log_norm_rate": rel.log_norm_rate,
    }
    return 0, meta, {"relations": (RELATIONS_HEADER, rows)}


def cmd_simulate(args, scenario: Scenario) -> tuple[int, dict | None, dict]:
    from .sim import monte_carlo_mse

    ts, nm, topo = scenario.true_system, scenario.nominal, scenario.topology
    gamma = _first_gamma(scenario)
    fr = build_filter(nm, ts, topo, gamma)
    cfg = scenario.sim_config(args.trials, args.seed)
    series = monte_carlo_mse(ts, fr, cfg)
    # The engine starts every filter at x0, the default initial state.
    traj = propagate(fr, ts, series.time)
    n_sensors = ts.sensor_count
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging flow's cells read inf or empty
        rows = [
            [
                float(t),
                float(series.mse[k]),
                float(np.trace(traj.error_cov[k])) / n_sensors,
            ]
            for k, t in enumerate(series.time)
        ]
    meta = {
        "gamma": gamma,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "horizon": cfg.horizon,
        "steady_mse": series.steady_mse,
        "steady_se": series.steady_se,
        "overflow_trials": list(series.overflow_trials),
    }
    print(
        f"steady MSE {series.steady_mse:.6g} (se {series.steady_se:.2g}) over "
        f"{series.trials_used} trials"
    )
    return 0, meta, {"simulate": (["time", "mse", "tr_error_over_sensors"], rows)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own code, 2, here means an assumption violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_OPTIONS = {
    "--scenario": dict(
        required=True, help=f"scenario JSON path or preset name ({', '.join(preset_names())})"
    ),
    "--out": dict(default=".", help="output directory (default: current)"),
    "--seed": dict(type=int, default=None, help="override the scenario seed"),
    "--trials": dict(type=int, default=None, help="override the trial count"),
    "--gamma": dict(
        default=None,
        help="override the gain spec: VALUE | v1,v2,... | log:lo:hi:n[:threshold|absolute]",
    ),
    "--simulate": dict(action="store_true", help="add Monte Carlo columns"),
}
# Only the commands that run a Monte Carlo take its seed and trial count.
_PLAIN = ("--scenario", "--out", "--gamma")
_MONTE_CARLO = ("--scenario", "--out", "--seed", "--trials", "--gamma")
_SIMULATING = (*_MONTE_CARLO, "--simulate")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dckf",
        description=(
            "Distributed continuous-time Kalman filtering under model mismatch: "
            "assumption checks, steady-state bounds, divergence certificates, "
            "index ordering, and Monte Carlo validation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dckf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Handlers are read from the module globals at each call, so a patched
    # command runs in place of the original.
    commands = (
        ("validate", "check the structural assumptions", cmd_validate, _PLAIN),
        ("sweep", "steady-state bounds over the gain grid", cmd_sweep, _SIMULATING),
        ("divergence", "divergence certificates and projected variances", cmd_divergence, _SIMULATING),
        ("relations", "ordering of the nominal index vs the error covariance", cmd_relations, _PLAIN),
        ("simulate", "Monte Carlo MSE next to the analytic curve", cmd_simulate, _MONTE_CARLO),
    )
    for name, text, handler, options in commands:
        p = sub.add_parser(name, help=text)
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.gamma:
            scenario = replace(scenario, gamma_spec=_parse_gamma_override(args.gamma))
        code, meta, tables = args.handler(args, scenario)
        if meta is None:  # a command that writes tables always has meta
            return code
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths = [out / f"{scenario.name}_{suffix}.csv" for suffix in tables]
        for path, (header, rows) in zip(paths, tables.values()):
            _write_csv(path, header, rows)
        envelope = {
            "tool": "dckf",
            "version": __version__,
            "command": args.command,
            "scenario": scenario.name,
            "scenario_hash": scenario.semantic_hash(),
            **meta,
        }
        meta_path = out / f"{scenario.name}_{args.command}_meta.json"
        meta_path.write_text(json.dumps(_strict_json(envelope), indent=2, sort_keys=True) + "\n")
        if paths:
            print(f"wrote {paths[0]}")
        return code
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except SimulationOverflowError as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

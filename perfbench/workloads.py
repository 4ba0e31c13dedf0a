"""What one op of each workload runs, and how its inputs follow from the seed.

``sweep-mc`` and ``flow`` drive the ``dckf`` command line; ``scale`` calls the
documented library API on a generated network.  Every input is a function of
the benchmark seed alone.  The ``dckf`` package is passed in by the caller, so
this module imports nothing from the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("sweep-mc", "flow", "scale")

# Monte Carlo seeds whose outputs at a known-good commit are stored under
# reference/; op ``i`` of a run with benchmark seed ``S`` uses
# MC_SEEDS[(S + i) % len(MC_SEEDS)], so every op has a recorded answer.
MC_SEEDS = tuple(range(1, 17))

# Trials per gain in a sweep-mc op.  The current engine spends most of a sweep on
# per-step Python overhead, so 20 trials cost about 22 s against 31 s for 50
# on a 2-core x86 box, while a trial-proportional engine still has real work.
SWEEP_TRIALS = 20

SCALE_NODES = 25
SCALE_GAINS = 20
# Networks per scale run: a fixed set, so two commits run the same ops.
SCALE_NETWORKS = 3
SCALING_NODES = (6, 12, 25, 50)
SCALING_GAINS = 5

# Largest normwise backward error ||a x + x b - c||_F / ((||a||_F + ||b||_F) ||x||_F)
# a steady-state solve may leave.  Backward-stable solves leave about 1e-16 on
# the scale networks at every gain, so anything near this bound is a wrong answer.
BACKWARD_ERROR_TOL = 1e-12


def mc_seed(seed: int, op_index: int) -> int:
    return MC_SEEDS[(seed + op_index) % len(MC_SEEDS)]


def cli_commands(workload: str, mc: int) -> list[list[str]]:
    """The ``dckf`` argument lists that make up one op, run in order."""
    if workload == "sweep-mc":
        return [
            ["sweep", "--scenario", "case1", "--simulate", "--seed", str(mc),
             "--trials", str(SWEEP_TRIALS)],
        ]
    if workload == "flow":
        return [
            ["divergence", "--scenario", "case2", "--simulate", "--seed", str(mc)],
            ["relations", "--scenario", "case3"],
        ]
    raise ValueError(f"{workload!r} is not a command-line workload")


def scale_document(dckf, seed: int, graph: int, nodes: int, gains: int) -> dict:
    """A case1-style scenario on ``nodes`` sensors: a ring plus nodes // 4 chords.

    Sensors cycle through case1's six true/nominal sensor pairs, so the
    mismatch per sensor is case1's.  The chords are drawn from the stream
    ``(seed, nodes, graph)``; the gains are case1's log range, 1.05 to 100
    times the Hurwitz threshold, with ``gains`` points.
    """
    doc = dckf.preset_dict("case1")
    rng = np.random.default_rng((seed, nodes, graph))
    ring = {tuple(sorted((i, (i + 1) % nodes))) for i in range(nodes)}
    chords: set[tuple[int, int]] = set()
    while len(chords) < nodes // 4:
        i, j = sorted(int(v) for v in rng.choice(nodes, size=2, replace=False))
        if (i, j) not in ring:
            chords.add((i, j))
    for block in ("true_system", "nominal"):
        sensors = doc[block]["sensors"]
        doc[block]["sensors"] = [sensors[k % len(sensors)] for k in range(nodes)]
    doc["name"] = f"scale-n{nodes}-g{graph}"
    doc["topology"] = {"nodes": nodes, "edges": [list(e) for e in sorted(ring | chords)]}
    doc["gamma"] = {"log_range": {"lo": 1.05, "hi": 100.0, "points": gains, "scale": "threshold"}}
    return doc


@dataclass(frozen=True)
class ScaleCase:
    """One generated network, its base filter and its gain grid."""

    true_system: object
    nominal: object
    a_diag: np.ndarray
    base: object
    deviations: object
    gammas: tuple[float, ...]


def scale_case(dckf, seed: int, graph: int, nodes: int = SCALE_NODES,
               gains: int = SCALE_GAINS) -> ScaleCase:
    """Load a generated network and build its filter at the largest gain, as ``dckf sweep`` does."""
    sc = dckf.parse_scenario(scale_document(dckf, seed, graph, nodes, gains))
    ts, nm = sc.true_system, sc.nominal
    gammas = tuple(float(g) for g in np.sort(sc.resolve_gammas()))
    base = dckf.build_filter(nm, ts, sc.topology, gammas[-1])
    a_diag = dckf.stack(ts, nm).a_diag
    return ScaleCase(ts, nm, a_diag, base, dckf.deviations(ts, nm), gammas)


def scale_op(dckf, case: ScaleCase, gamma: float) -> list[str]:
    """One scale op; returns the output-check problems (empty when correct).

    Solver failures propagate as exceptions: they are failed ops, not wrong
    answers.  That includes a solve that misses dckf's own residual contract,
    which dckf raises on.  What is checked here is the sandwich and a backward
    error bound that scales with the equation's coefficients, which any
    correct solve meets however large ``||closed_loop||`` is.
    """
    fr = case.base.with_gamma(gamma)
    ss = dckf.steady_state(fr, case.true_system, case.nominal)
    report = dckf.trace_bounds(fr, ss, case.deviations)
    problems = []
    if not report.sandwich_holds:
        problems.append(
            f"gamma {gamma:.6g}: sandwich {report.lower!r} <= {report.tr_error!r} "
            f"<= {report.upper!r} fails"
        )
    acl = float(np.linalg.norm(fr.closed_loop))
    a_d = float(np.linalg.norm(case.a_diag))
    # ||a||_F + ||b||_F of each block's equation; the closed loop appears in all but one.
    coefficients = {"state_cov": 2.0 * a_d, "cross_cov": acl + a_d}
    for key, residual in ss.residuals.items():
        solution = float(np.linalg.norm(getattr(ss, key)))
        limit = BACKWARD_ERROR_TOL * coefficients.get(key, 2.0 * acl) * solution
        if not residual <= limit:
            problems.append(f"gamma {gamma:.6g}: {key} residual {residual:.3e} > {limit:.3e}")
    return problems


def setup(dckf, workload: str, seed: int) -> None:
    """What every run of a workload pays before its first op: load scenarios, build a filter."""
    if workload == "scale":
        scale_case(dckf, seed, 0)
        return
    names = {"sweep-mc": ("case1",), "flow": ("case2", "case3")}[workload]
    scenarios = [dckf.load_scenario(name) for name in names]
    sc = scenarios[0]
    gammas = sc.resolve_gammas()
    # ``dckf sweep`` builds at the largest gain, ``dckf divergence`` at the first.
    gamma = float(np.max(gammas)) if workload == "sweep-mc" else float(gammas[0])
    dckf.build_filter(sc.nominal, sc.true_system, sc.topology, gamma)

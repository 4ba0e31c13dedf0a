"""Scenario files: parsing, validation, presets, and semantic hashing.

A scenario is a single JSON document with matrix literals written as lists
of rows.  It carries the true system, the nominal model, the sensor
topology (adjacency matrix or edge list), the consensus-gain specification
(single value, explicit list, log-spaced range, or a multiple of the
Hurwitz threshold), a Monte Carlo block, and an ODE-propagation block.
The Monte Carlo block's validated form, :class:`SimConfig`, lives here next
to :class:`OdeConfig`, so that loading a scenario does not import the
simulator; ``dckf.sim`` runs it.

The shipped presets encode one six-sensor vehicle-tracking setup measured
by position sensors of two orientations, with three mismatch variants:
``case1`` (all parameters perturbed, for the steady trace bounds),
``case2`` (a process-noise intensity with a blind mode, for the divergence
certificate), ``case3`` (inflated noise intensities only, for the index
ordering), plus ``baseline`` (zero deviations).  The six-node communication
graph of the original experiment is not published; the presets use a ring
as a documented stand-in, overridable per scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .filtering import gamma_threshold
from .graph import Topology, is_connected, ring
from .model import HypothesisError, NominalModel, Sensor, TrueSystem
from .solvers import TrajectoryInit, default_initial_state

__all__ = [
    "ScenarioError",
    "Scenario",
    "SimConfig",
    "load_scenario",
    "parse_scenario",
    "preset_names",
    "preset_dict",
]

PRESET_SEED = 20260808


class ScenarioError(ValueError):
    """A scenario document is malformed or internally inconsistent."""


def _numeric(node: Any, field: str) -> np.ndarray:
    try:
        a = np.asarray(node)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"field {field!r} is not numeric: {exc}") from exc
    if a.dtype.kind not in "iuf":  # strings, booleans, objects
        raise ScenarioError(f"field {field!r} is not numeric: its entries must be JSON numbers")
    a = a.astype(float)
    if not np.all(np.isfinite(a)):
        raise ScenarioError(f"field {field!r} has a non-finite entry")
    return a


def _matrix(node: Any, field: str) -> np.ndarray:
    m = _numeric(node, field)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ScenarioError(f"field {field!r} must be a matrix (list of rows)")
    return m


def _vector(node: Any, field: str) -> np.ndarray:
    return _numeric(node, field).reshape(-1)


def _object(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    return node


def _require(block: Any, field: str, where: str) -> Any:
    if field not in _object(block, where):
        raise ScenarioError(f"missing field {field!r} in {where}")
    return block[field]


def _number(node: Any, field: str) -> float:
    if not isinstance(node, (bool, str)):  # float() would read both
        try:
            return float(node)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ScenarioError(f"{field} is not a number: {node!r}")


def _positive(node: Any, field: str) -> float:
    value = _number(node, field)
    if not (math.isfinite(value) and value > 0.0):
        raise ScenarioError(f"{field} must be positive and finite, got {node!r}")
    return value


def _integral(node: Any) -> int:
    if isinstance(node, (bool, str)) or (isinstance(node, float) and not node.is_integer()):
        raise ValueError(f"{node!r} is not an integer")
    return int(node)


# More gains than any sweep needs; larger grids are refused before allocation.
_MAX_GAINS = 10_000
# Far above any preset (at most 400 trials, 25,000 steps, and 500 records of
# either the covariance flow or the Monte Carlo); larger runs are refused
# before anything is allocated or stepped.
_MAX_TRIALS = 10**6
_MAX_STEPS = 10**7
_MAX_RECORDS = 10_000


def _gamma_values(spec: Any, threshold) -> np.ndarray:
    """Consensus gains of a gamma block; ``threshold()`` is called only for relative specs."""
    _object(spec, "gamma block")
    if "value" in spec:
        return np.asarray([_positive(spec["value"], "gamma.value")])
    if "list" in spec:
        items = spec["list"]
        if not isinstance(items, list) or not items:
            raise ScenarioError("gamma.list must be a non-empty list")
        if len(items) > _MAX_GAINS:
            raise ScenarioError(f"gamma.list has more than {_MAX_GAINS} gains")
        return np.asarray([_positive(v, f"gamma.list[{k}]") for k, v in enumerate(items)])
    if "threshold_scale" in spec:
        scale = _positive(spec["threshold_scale"], "gamma.threshold_scale")
        return np.asarray([scale * threshold()])
    if "log_range" in spec:
        rng = spec["log_range"]
        lo = _positive(_require(rng, "lo", "gamma.log_range"), "gamma.log_range.lo")
        hi = _positive(_require(rng, "hi", "gamma.log_range"), "gamma.log_range.hi")
        try:
            points = _integral(_require(rng, "points", "gamma.log_range"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"gamma.log_range.points is not an integer: {exc}") from exc
        if not (lo < hi) or not 1 <= points <= _MAX_GAINS:
            raise ScenarioError(
                f"gamma.log_range needs 0 < lo < hi and 1 <= points <= {_MAX_GAINS}"
            )
        scale = rng.get("scale", "absolute")
        if scale == "threshold":
            thr = threshold()
            lo, hi = lo * thr, hi * thr
        elif scale != "absolute":
            raise ScenarioError(f"unknown gamma scale {scale!r}")
        return np.logspace(np.log10(lo), np.log10(hi), points)
    raise ScenarioError(
        "gamma block must contain one of: value, list, threshold_scale, log_range"
    )


def _parse_sensors(node: Any, where: str) -> tuple[Sensor, ...]:
    if not isinstance(node, list) or not node:
        raise ScenarioError(f"{where}.sensors must be a non-empty list")
    out = []
    for k, item in enumerate(node):
        c = _matrix(_require(item, "c", f"{where}.sensors[{k}]"), f"{where}.sensors[{k}].c")
        r = _matrix(_require(item, "r", f"{where}.sensors[{k}]"), f"{where}.sensors[{k}].r")
        try:
            out.append(Sensor(c=c, r=r))
        except ValueError as exc:
            raise ScenarioError(f"{where}.sensors[{k}]: {exc}") from exc
    return tuple(out)


def _require_threshold_network(topo: Topology) -> None:
    if topo.node_count < 2 or not is_connected(topo):
        raise HypothesisError(
            "the consensus-gain threshold needs a connected network of at least two nodes"
        )


@dataclass(frozen=True)
class OdeConfig:
    """Recording grid for analytic covariance propagation.

    ``dt`` is parsed and must be positive, but the flows are exact, so it affects no output.
    """

    dt: float = 1e-3
    horizon: float = 10.0
    record_every: float = 0.1

    def grid(self) -> np.ndarray:
        count = int(round(self.horizon / self.record_every))
        return np.linspace(0.0, self.horizon, count + 1)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo step size, horizon, trial count, seed, and recording stride (in steps).

    ``trials``, ``seed`` and ``record_stride`` are integers (``bool`` is not).
    A run has at most ``10**6`` trials, ``10**7`` steps and ``10**4`` records.
    """

    dt: float
    horizon: float
    trials: int
    seed: int
    record_stride: int = 1

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "record_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (0 < self.dt < self.horizon < math.inf):
            raise ValueError("need 0 < dt < horizon < inf")
        if not 1 <= self.trials <= _MAX_TRIALS:
            raise ValueError(f"need 1 to {_MAX_TRIALS} trials")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not self.horizon / self.dt <= _MAX_STEPS:
            raise ValueError(f"horizon / dt exceeds {_MAX_STEPS} steps")
        if self.step_count // self.record_stride > _MAX_RECORDS:
            raise ValueError(f"more than {_MAX_RECORDS} records; raise record_stride")

    @property
    def step_count(self) -> int:
        return int(round(self.horizon / self.dt))

    def record_steps(self) -> np.ndarray:
        steps = list(range(0, self.step_count + 1, self.record_stride))
        if steps[-1] != self.step_count:
            steps.append(self.step_count)
        return np.asarray(steps, dtype=int)


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    description: str
    true_system: TrueSystem
    nominal: NominalModel
    topology: Topology
    gamma_spec: dict
    sim_spec: dict | None
    ode: OdeConfig
    init_spec: dict

    def __post_init__(self) -> None:
        # Fail early on spec errors that do not need the threshold value; this
        # also covers a spec swapped in later with ``dataclasses.replace``.
        _gamma_values(self.gamma_spec, lambda: 1.0)

    def resolve_gammas(self) -> np.ndarray:
        """Concrete consensus-gain values for this scenario."""
        return _gamma_values(self.gamma_spec, self._threshold)

    def _threshold(self) -> float:
        _require_threshold_network(self.topology)
        return gamma_threshold(self.nominal, self.topology)

    def sim_config(self, trials: int | None = None, seed: int | None = None) -> SimConfig:
        if self.sim_spec is None:
            raise ScenarioError(f"scenario {self.name!r} has no sim block")
        spec = dict(self.sim_spec)
        if trials is not None:
            spec["trials"] = trials
        if seed is not None:
            spec["seed"] = seed
        try:
            return SimConfig(
                dt=_number(spec["dt"], "dt"),
                horizon=_number(spec["horizon"], "horizon"),
                trials=_integral(spec["trials"]),
                seed=_integral(spec["seed"]),
                record_stride=_integral(spec.get("record_stride", 1)),
            )
        except KeyError as exc:
            raise ScenarioError(f"sim block is missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"sim block: {exc}") from exc

    def initial_state(self) -> TrajectoryInit:
        """Initial covariance matrices, with per-field keyword or matrix overrides."""
        values = asdict(default_initial_state(self.true_system))
        dim = self.true_system.n * self.true_system.sensor_count
        for key, spec in self.init_spec.items():
            if key not in values:
                raise ScenarioError(f"unknown init field {key!r}")
            if spec == "default":
                continue
            if spec == "identity":
                values[key] = np.eye(dim)
            else:
                m = _matrix(spec, f"init.{key}")
                if m.shape != (dim, dim):
                    raise ScenarioError(f"init.{key} must be {dim}x{dim}, got {m.shape}")
                values[key] = m
        return TrajectoryInit(**values)

    def semantic_dict(self) -> dict:
        """Canonical content that determines results (names/descriptions excluded)."""
        return {
            "true_system": {
                "a": self.true_system.a.tolist(),
                "q": self.true_system.q.tolist(),
                "sensors": [
                    {"c": s.c.tolist(), "r": s.r.tolist()} for s in self.true_system.sensors
                ],
                "x0": self.true_system.x0.tolist(),
                "sigma0": self.true_system.sigma0.tolist(),
            },
            "nominal": {
                "a": self.nominal.a.tolist(),
                "q": self.nominal.q.tolist(),
                "sensors": [{"c": s.c.tolist(), "r": s.r.tolist()} for s in self.nominal.sensors],
            },
            "topology": self.topology.adjacency.tolist(),
            "gamma": self.gamma_spec,
            "sim": self.sim_spec,
            "ode": {
                "dt": self.ode.dt,
                "horizon": self.ode.horizon,
                "record_every": self.ode.record_every,
            },
            "init": self.init_spec,
        }

    def semantic_hash(self) -> str:
        payload = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def parse_scenario(doc: dict, name_hint: str = "<inline>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    ts_block = _require(doc, "true_system", "scenario")
    nm_block = _require(doc, "nominal", "scenario")
    topo_block = _object(_require(doc, "topology", "scenario"), "topology")
    try:
        true_system = TrueSystem(
            a=_matrix(_require(ts_block, "a", "true_system"), "true_system.a"),
            q=_matrix(_require(ts_block, "q", "true_system"), "true_system.q"),
            sensors=_parse_sensors(_require(ts_block, "sensors", "true_system"), "true_system"),
            x0=_vector(_require(ts_block, "x0", "true_system"), "true_system.x0"),
            sigma0=_matrix(_require(ts_block, "sigma0", "true_system"), "true_system.sigma0"),
        )
        nominal = NominalModel(
            a=_matrix(_require(nm_block, "a", "nominal"), "nominal.a"),
            q=_matrix(_require(nm_block, "q", "nominal"), "nominal.q"),
            sensors=_parse_sensors(_require(nm_block, "sensors", "nominal"), "nominal"),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    try:
        if "adjacency" in topo_block:
            topology = Topology(_matrix(topo_block["adjacency"], "topology.adjacency"))
        elif "edges" in topo_block:
            edges = [tuple(_integral(v) for v in e) for e in topo_block["edges"]]
            topology = Topology.from_edges(_integral(_require(topo_block, "nodes", "topology")), edges)
        else:
            raise ScenarioError("topology needs either 'adjacency' or 'nodes'+'edges'")
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"topology: {exc}") from exc

    if (nominal.n, nominal.sensor_count) != (true_system.n, true_system.sensor_count):
        raise ScenarioError("true system and nominal model dimensions disagree")
    if topology.node_count != true_system.sensor_count:
        raise ScenarioError(
            f"topology has {topology.node_count} nodes, the system has "
            f"{true_system.sensor_count} sensors"
        )

    gamma_block = _object(_require(doc, "gamma", "scenario"), "gamma block")

    ode_block = _object(doc.get("ode", {}), "ode")
    ode = OdeConfig(
        dt=_positive(ode_block.get("dt", 1e-3), "ode.dt"),
        horizon=_positive(ode_block.get("horizon", 10.0), "ode.horizon"),
        record_every=_positive(ode_block.get("record_every", 0.1), "ode.record_every"),
    )
    records = round(ode.horizon / ode.record_every)
    if abs(records * ode.record_every - ode.horizon) > 1e-9 * ode.horizon:
        raise ScenarioError(
            f"ode.record_every {ode.record_every:g} does not divide ode.horizon {ode.horizon:g}"
        )
    if records > _MAX_RECORDS:
        raise ScenarioError(f"ode.horizon / ode.record_every exceeds {_MAX_RECORDS} records")

    scenario = Scenario(
        name=str(doc.get("name", name_hint)),
        description=str(doc.get("description", "")),
        true_system=true_system,
        nominal=nominal,
        topology=topology,
        gamma_spec=dict(gamma_block),
        sim_spec=dict(_object(doc["sim"], "sim")) if "sim" in doc else None,
        ode=ode,
        init_spec=dict(_object(doc.get("init", {}), "init")),
    )
    if scenario.sim_spec is not None:
        scenario.sim_config()  # fail early on a malformed sim block
    if scenario.init_spec:
        scenario.initial_state()  # and on a malformed init block
    return scenario


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario from a preset name or a JSON file path."""
    text = str(source)
    if text in preset_names():
        return parse_scenario(preset_dict(text), name_hint=text)
    path = Path(source)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scenario(doc, name_hint=path.stem)


# ---------------------------------------------------------------------------
# Shipped presets
# ---------------------------------------------------------------------------


def _identity(n: int, scale: float) -> list[list[float]]:
    return (scale * np.eye(n)).tolist()


def _vehicle_block(diag: float) -> np.ndarray:
    return np.array([[diag, 0.0], [1.0, diag]])


def _vehicle_a(diag: float = 0.0) -> list[list[float]]:
    block = _vehicle_block(diag)
    a = np.zeros((4, 4))
    a[:2, :2] = block
    a[2:, 2:] = block
    return a.tolist()


def _vehicle_sensors(gain_shift: float, r_values) -> list[dict]:
    rows = [
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 0.0],
        [0.0, 3.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 2.0],
        [0.0, 0.0, 0.0, 3.0],
    ]
    sensors = []
    for k, row in enumerate(rows):
        shifted = [v + gain_shift if v != 0.0 else 0.0 for v in row]
        sensors.append({"c": [shifted], "r": [[r_values[k]]]})
    return sensors


def _ring6() -> dict:
    return {"adjacency": ring(6).adjacency.tolist()}


def _true_block() -> dict:
    return {
        "a": _vehicle_a(0.0),
        "q": _identity(4, 0.03),
        "sensors": _vehicle_sensors(0.0, [0.2] * 6),
        "x0": [0.2, 1.0, 0.2, 1.0],
        "sigma0": _identity(4, 0.1),
    }


def _preset_baseline() -> dict:
    true_block = _true_block()
    return {
        "name": "baseline",
        "description": "Six-sensor vehicle tracking with an exact model (zero deviations).",
        "true_system": true_block,
        "nominal": {k: true_block[k] for k in ("a", "q", "sensors")},
        "topology": _ring6(),
        "gamma": {"threshold_scale": 1.5},
        "sim": {"dt": 1e-3, "horizon": 20.0, "trials": 200, "seed": PRESET_SEED, "record_stride": 100},
        "ode": {"dt": 1e-3, "horizon": 20.0, "record_every": 0.1},
    }


def _preset_case1() -> dict:
    true_block = dict(_true_block())
    true_block["a"] = _vehicle_a(-0.1)
    return {
        "name": "case1",
        "description": (
            "All nominal parameters perturbed: state matrix shifted by +0.1 I, "
            "measurement gains shifted by +0.1, inflated noise intensities.  "
            "Drives the steady trace-bound sweep over the consensus gain."
        ),
        "true_system": true_block,
        "nominal": {
            "a": _vehicle_a(0.0),  # true A + 0.1 I
            "q": _identity(4, 0.05),
            "sensors": _vehicle_sensors(0.1, [0.3] * 6),
        },
        "topology": _ring6(),
        "gamma": {"log_range": {"lo": 1.05, "hi": 100.0, "points": 20, "scale": "threshold"}},
        # The true state mixes on the 1/0.2 timescale, so steady-state reads
        # need a long horizon.
        "sim": {"dt": 2e-3, "horizon": 50.0, "trials": 200, "seed": PRESET_SEED, "record_stride": 50},
        "ode": {"dt": 1e-3, "horizon": 50.0, "record_every": 0.1},
    }


def _preset_case2() -> dict:
    true_block = _true_block()
    nominal = {k: true_block[k] for k in ("a", "sensors")}
    nominal["q"] = np.diag([0.0, 0.03, 0.03, 0.03]).tolist()
    return {
        "name": "case2",
        "description": (
            "Exact state and measurement matrices, but the nominal process noise "
            "is blind to the first velocity mode.  The error covariance diverges "
            "linearly along the replicated mode for every consensus gain."
        ),
        "true_system": true_block,
        "nominal": nominal,
        "topology": _ring6(),
        "gamma": {"value": 10.0},
        "sim": {"dt": 5e-3, "horizon": 50.0, "trials": 400, "seed": PRESET_SEED, "record_stride": 1250},
        "ode": {"dt": 1e-3, "horizon": 50.0, "record_every": 0.5},
    }


def _preset_case3() -> dict:
    true_block = _true_block()
    r_values = [0.3, 0.2, 0.2, 0.3, 0.2, 0.2]
    nominal = {
        "a": true_block["a"],
        "q": _identity(4, 0.1),
        "sensors": _vehicle_sensors(0.0, r_values),
    }
    return {
        "name": "case3",
        "description": (
            "Exact state and measurement matrices with inflated noise intensities "
            "(process 0.1 vs 0.03; measurement 0.3 vs 0.2 on sensors 1 and 4), so "
            "the nominal index upper-bounds the error covariance.  Both indices "
            "start from the identity matrix."
        ),
        "true_system": true_block,
        "nominal": nominal,
        "topology": _ring6(),
        "gamma": {"threshold_scale": 1.5},
        "sim": {"dt": 1e-3, "horizon": 10.0, "trials": 200, "seed": PRESET_SEED, "record_stride": 100},
        "ode": {"dt": 1e-3, "horizon": 10.0, "record_every": 0.1},
        "init": {"nominal_cov": "identity", "error_cov": "identity"},
    }


_PRESET_BUILDERS = {
    "baseline": _preset_baseline,
    "case1": _preset_case1,
    "case2": _preset_case2,
    "case3": _preset_case3,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESET_BUILDERS))


def preset_dict(name: str) -> dict:
    """The JSON-able document of a shipped preset."""
    try:
        return _PRESET_BUILDERS[name]()
    except KeyError:
        raise ScenarioError(f"unknown preset {name!r}; known: {', '.join(preset_names())}") from None

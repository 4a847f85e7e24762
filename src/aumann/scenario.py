"""Scenario files, reports, and the operations behind the CLI.

A scenario is a single JSON document: named worlds, one partition per agent,
a measure (classical weights, quantum DOVM atoms, a GPT cone with SVM atoms,
or a POVM-with-state pair produced by conversion), plus an optional
hypothesis, per-agent targets, and tolerance. Complex numbers serialize as
``[re, im]`` pairs. World names exist only at this boundary; the core works
on indices.

Everything that depends on the measure kind (reading and writing its
payload, building the measure, reading and printing targets and values, and
the agreement-pipeline adapter) sits in one table, ``_KINDS``.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .classical import ProbabilityMeasure, _classical_layer
from .errors import ScenarioError, ScenarioSyntaxError, ScenarioValidationError
from .knowledge import (
    Event,
    KnowledgeModel,
    Partition,
    common_knowledge,
    know,
    mutual_knowledge_chain,
)
from .tolerances import CANONICAL_UNIT_TOL, MATCH_TOL
from .verdicts import AgreementVerdict, VerdictStatus
from .verdicts import _agreement_event, _cell_conditionals, _check_tol, _verdict, _verify

if TYPE_CHECKING:
    from .generators import ScenarioBundle
    from .gpt import Svm
    from .quantum import Dovm

__all__ = [
    "ScenarioFile",
    "parse_scenario",
    "serialize_scenario",
    "scenario_from_bundle",
    "Report",
    "SearchStats",
    "verify_bundle",
    "run_agree",
    "run_analyze",
    "run_convert",
    "run_search",
    "run_gen",
]

SCENARIO_VERSION = 1


# ---------------------------------------------------------------------------
# layer modules, imported on first use so that a run loads only its own layer
# (absolute imports: ``python -X importtime`` lists them, ``from . import`` not)

def _quantum():
    import aumann.quantum as quantum

    return quantum


def _gpt():
    import aumann.gpt as gpt

    return gpt


# ---------------------------------------------------------------------------
# parsing helpers

def _expect(raw: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(raw, kind) or isinstance(raw, bool):
        raise ScenarioValidationError(f"expected {what}, got {type(raw).__name__}", path)
    return raw


def _number(raw: Any, path: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioValidationError(f"expected a number, got {type(raw).__name__}", path)
    value = float(raw)
    if not math.isfinite(value):  # a literal such as 1e999 overflows to infinity
        raise ScenarioValidationError(f"expected a finite number, got {value!r}", path)
    return value


def _reject_constant(token: str) -> None:
    raise ScenarioSyntaxError(f"non-finite number {token} is not valid JSON")


def _number_list(raw: Any, path: str) -> list[float]:
    items = _expect(raw, list, path, "a list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(items)]


def _complex_from_json(raw: Any, path: str) -> complex:
    pair = _expect(raw, list, path, "an [re, im] pair")
    if len(pair) != 2:
        raise ScenarioValidationError(f"expected an [re, im] pair, got {len(pair)} entries", path)
    return complex(_number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]"))


def _matrix_from_json(raw: Any, dim: int, path: str) -> np.ndarray:
    rows = _expect(raw, list, path, "a matrix (list of rows)")
    if len(rows) != dim:
        raise ScenarioValidationError(f"expected {dim} rows, got {len(rows)}", path)
    out = np.empty((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        entries = _expect(row, list, f"{path}[{r}]", "a row (list of [re, im] pairs)")
        if len(entries) != dim:
            raise ScenarioValidationError(f"expected {dim} entries, got {len(entries)}", f"{path}[{r}]")
        for c, entry in enumerate(entries):
            out[r, c] = _complex_from_json(entry, f"{path}[{r}][{c}]")
    return out


def _matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _vector(raw: Any, dim: int, path: str) -> list[float]:
    values = _number_list(raw, path)
    if len(values) != dim:
        raise ScenarioValidationError(f"expected {dim} entries, got {len(values)}", path)
    return values


def _positive_int(raw: Any, path: str, name: str) -> int:
    value = _expect(raw, int, path, "an integer")
    if value < 1:
        raise ScenarioValidationError(f"{name} must be positive", path)
    return value


def _reject_unknown(payload: dict, known: set, path: str) -> None:
    for key in payload:
        if key not in known:
            raise ScenarioValidationError(f"unknown field {key!r}", f"{path}.{key}")


# ---------------------------------------------------------------------------
# measure kinds

def _read_classical(payload: dict, n_worlds: int, path: str) -> dict:
    weights = _number_list(payload.get("weights"), f"{path}.weights")
    if len(weights) != n_worlds:
        raise ScenarioValidationError(f"expected {n_worlds} weights, got {len(weights)}", f"{path}.weights")
    _reject_unknown(payload, {"weights"}, path)
    return {"weights": weights}


def _matrices_reader(key: str, *single: str) -> Callable[[dict, int, str], dict]:
    """Reader of a payload with ``dim``, one matrix per world under ``key``,
    and one more matrix under each name in ``single``."""

    def read(payload: dict, n_worlds: int, path: str) -> dict:
        dim = _positive_int(payload.get("dim"), f"{path}.dim", "dim")
        mats_raw = _expect(payload.get(key), list, f"{path}.{key}", "a list of matrices")
        if len(mats_raw) != n_worlds:
            raise ScenarioValidationError(f"expected {n_worlds} matrices, got {len(mats_raw)}", f"{path}.{key}")
        out = {"dim": dim, key: [_matrix_to_json(_matrix_from_json(m, dim, f"{path}.{key}[{i}]"))
                                 for i, m in enumerate(mats_raw)]}
        for name in single:
            out[name] = _matrix_to_json(_matrix_from_json(payload.get(name), dim, f"{path}.{name}"))
        _reject_unknown(payload, set(out), path)
        return out

    return read


def _read_gpt(payload: dict, n_worlds: int, path: str) -> dict:
    cone_raw = _expect(payload.get("cone"), dict, f"{path}.cone", "an object")
    kind = _expect(cone_raw.get("kind"), str, f"{path}.cone.kind", "a string")
    if kind in ("simplex", "polyhedral"):
        dim = _positive_int(cone_raw.get("dim"), f"{path}.cone.dim", "dim")
        cone = {"kind": kind, "dim": dim}
        expected_unit = np.ones(dim) if kind == "simplex" else None
        if kind == "polyhedral":
            gens_raw = _expect(cone_raw.get("generators"), list, f"{path}.cone.generators", "a list of vectors")
            cone["generators"] = [_vector(g, dim, f"{path}.cone.generators[{i}]") for i, g in enumerate(gens_raw)]
    elif kind == "psd":
        k = _positive_int(cone_raw.get("matrix_dim"), f"{path}.cone.matrix_dim", "matrix_dim")
        dim = k * k
        cone = {"kind": "psd", "matrix_dim": k}
        expected_unit = _gpt().vectorize(np.eye(k))
    else:
        raise ScenarioValidationError(f"unknown cone kind {kind!r}", f"{path}.cone.kind")
    unit = _vector(payload.get("unit"), dim, f"{path}.unit")
    if expected_unit is not None and not np.allclose(unit, expected_unit, rtol=0, atol=CANONICAL_UNIT_TOL):
        raise ScenarioValidationError(f"unit must be the canonical {kind} unit functional", f"{path}.unit")
    atoms_raw = _expect(payload.get("atoms"), list, f"{path}.atoms", "a list of vectors")
    if len(atoms_raw) != n_worlds:
        raise ScenarioValidationError(f"expected {n_worlds} atoms, got {len(atoms_raw)}", f"{path}.atoms")
    atoms = [_vector(a, dim, f"{path}.atoms[{i}]") for i, a in enumerate(atoms_raw)]
    _reject_unknown(payload, {"cone", "unit", "atoms"}, path)
    return {"cone": cone, "unit": unit, "atoms": atoms}


def _matrix_stack(payload: dict, key: str, path: str) -> np.ndarray:
    dim = payload["dim"]
    return np.stack([_matrix_from_json(m, dim, f"{path}[{i}]") for i, m in enumerate(payload[key])])


# cone kind -> (cone from its spec and unit, spec fields of a cone)
_CONES: dict[str, tuple[Callable, Callable]] = {
    "simplex": (lambda spec, unit: _gpt().SimplexCone(spec["dim"]), lambda cone: {"dim": cone.dim}),
    "psd": (lambda spec, unit: _gpt().PsdCone(spec["matrix_dim"]), lambda cone: {"matrix_dim": cone.matrix_dim}),
    "polyhedral": (
        lambda spec, unit: _gpt().PolyhedralCone(np.asarray(spec["generators"], float), np.asarray(unit, float)),
        lambda cone: {"dim": cone.dim, "generators": [[float(x) for x in g] for g in cone.generators]},
    ),
}


def _build_gpt(payload: dict) -> Svm:
    spec = payload["cone"]
    try:
        cone = _CONES[spec["kind"]][0](spec, payload["unit"])
    except ValueError as exc:
        raise ScenarioValidationError(str(exc), "measure.gpt.cone") from exc
    return _gpt().Svm(cone, np.asarray(payload["atoms"], float))


def _write_quantum(rho: Dovm) -> dict:
    return {"dim": rho.dim, "atoms": [_matrix_to_json(a) for a in rho.atoms]}


def _write_gpt(svm: Svm) -> dict:
    cone = svm.cone
    return {
        "cone": {"kind": cone.kind, **_CONES[cone.kind][1](cone)},
        "unit": [float(x) for x in cone.unit],
        "atoms": [[float(x) for x in a] for a in svm.atoms],
    }


def _matrix_value_json(value) -> list:
    return _matrix_to_json(value.matrix if isinstance(value, _quantum().DensityOperator) else value)


def _matrix_target(raw: Any, payload: dict, path: str) -> np.ndarray:
    return _matrix_from_json(raw, payload["dim"], path)


@dataclass(frozen=True)
class _Kind:
    """How one measure kind is read (raw payload to canonical JSON), built,
    written, and verified; ``write`` and ``layer`` are ``None`` for povm.

    ``layer()`` imports the kind's layer module and returns its pipeline
    adapter, called as ``adapter(model, measure, hypothesis, targets)``.
    """

    read: Callable[[dict, int, str], dict]
    build: Callable[[dict], Any]
    target: Callable[[Any, dict, str], Any]
    to_json: Callable[[Any], Any]
    write: Callable[[Any], dict] | None = None
    layer: Callable[[], Callable[[KnowledgeModel, Any, Event | None, tuple], Any]] | None = None
    needs_hypothesis: bool = False


def _without_hypothesis(make_layer: Callable) -> Callable:
    """Pipeline adapter of a layer whose agreement event needs no hypothesis."""
    return lambda model, measure, h, targets: make_layer(model, measure, targets)


_KINDS: dict[str, _Kind] = {
    "classical": _Kind(
        read=_read_classical,
        build=lambda payload: ProbabilityMeasure(np.asarray(payload["weights"], float)),
        target=lambda raw, payload, path: _number(raw, path),
        to_json=float,
        write=lambda mu: {"weights": [float(x) for x in mu.weights]},
        layer=lambda: _classical_layer,
        needs_hypothesis=True,
    ),
    "quantum": _Kind(
        read=_matrices_reader("atoms"),
        build=lambda payload: _quantum().Dovm(_matrix_stack(payload, "atoms", "measure.quantum.atoms")),
        target=_matrix_target,
        to_json=_matrix_value_json,
        write=_write_quantum,
        layer=lambda: _without_hypothesis(_quantum()._quantum_layer),
    ),
    "gpt": _Kind(
        read=_read_gpt,
        build=_build_gpt,
        target=lambda raw, payload, path: np.asarray(_vector(raw, len(payload["unit"]), path), float),
        to_json=lambda value: [float(x) for x in (value.coords if isinstance(value, _gpt().GptState) else value)],
        write=_write_gpt,
        layer=lambda: _without_hypothesis(_gpt()._gpt_layer),
    ),
    "povm": _Kind(
        read=_matrices_reader("effects", "state"),
        build=lambda payload: (
            _quantum().Povm(_matrix_stack(payload, "effects", "measure.povm.effects")),
            _quantum().DensityOperator(_matrix_from_json(payload["state"], payload["dim"], "measure.povm.state")),
        ),
        target=_matrix_target,
        to_json=_matrix_value_json,
    ),
}


# ---------------------------------------------------------------------------
# scenario document

def _built_once(build: Callable) -> Callable:
    """Method that returns the object ``build`` made on the first call."""
    name = f"_{build.__name__}"

    @wraps(build)
    def method(self):
        if name not in self.__dict__:
            self.__dict__[name] = build(self)
        return self.__dict__[name]

    return method


@dataclass
class AgentSpec:
    name: str
    partition: list[list[str]]  # cells as lists of world names


@dataclass
class ScenarioFile:
    """Validated scenario document; holds plain data, builds core objects.

    Each of ``model()``, ``measure_object()``, ``hypothesis_event()`` and
    ``target_values()`` builds its object once and then returns it again;
    ``parse_scenario`` calls all four, so every check runs once, at parse.
    The kept objects do not follow later changes to the fields they read.
    """

    version: int
    worlds: list[str]
    agents: list[AgentSpec]
    measure: dict
    hypothesis: list[str] | None = None
    targets: list | None = None
    tolerance: float | None = None

    @property
    def layer(self) -> str:
        return next(iter(self.measure))

    @property
    def n_worlds(self) -> int:
        return len(self.worlds)

    @property
    def world_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.worlds)}

    def event_from_names(self, names: list[str], path: str = "event") -> Event:
        index = self.world_index
        worlds = []
        for k, name in enumerate(names):
            if name not in index:
                raise ScenarioValidationError(f"unknown world {name!r}", f"{path}[{k}]")
            worlds.append(index[name])
        return Event.from_worlds(worlds, self.n_worlds)

    @_built_once
    def model(self) -> KnowledgeModel:
        index = self.world_index
        partitions = []
        for a, agent in enumerate(self.agents):
            blocks = [[index[name] for name in cell] for cell in agent.partition]
            try:
                partitions.append(Partition.from_blocks(blocks, self.n_worlds))
            except ValueError as exc:
                raise ScenarioValidationError(str(exc), f"agents[{a}].partition") from exc
        try:
            return KnowledgeModel(self.n_worlds, tuple(partitions))
        except ValueError as exc:
            raise ScenarioValidationError(str(exc), "agents") from exc

    @_built_once
    def hypothesis_event(self) -> Event | None:
        return None if self.hypothesis is None else self.event_from_names(self.hypothesis, "hypothesis")

    @_built_once
    def measure_object(self):
        """The core measure: ProbabilityMeasure, Dovm, Svm, or (Povm, DensityOperator)."""
        layer = self.layer
        try:
            return _KINDS[layer].build(self.measure[layer])
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioValidationError(str(exc), f"measure.{layer}") from exc

    @_built_once
    def target_values(self) -> tuple | None:
        """Targets as floats (classical), matrices (quantum/povm), or vectors (gpt)."""
        if self.targets is None:
            return None
        kind, payload = _KINDS[self.layer], self.measure[self.layer]
        return tuple(kind.target(t, payload, f"targets[{i}]") for i, t in enumerate(self.targets))


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioSyntaxError` for malformed JSON and
    :class:`ScenarioValidationError` (with a field path) for structural
    problems, including core-object invariant violations.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(f"{exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    doc = _expect(raw, dict, "", "a JSON object")

    version = _expect(doc.get("version"), int, "version", "an integer")
    if version != SCENARIO_VERSION:
        raise ScenarioValidationError(f"unsupported version {version}", "version")

    worlds_raw = _expect(doc.get("worlds"), list, "worlds", "a list of world names")
    if not worlds_raw:
        raise ScenarioValidationError("at least one world is required", "worlds")
    worlds = [_expect(w, str, f"worlds[{i}]", "a string") for i, w in enumerate(worlds_raw)]
    if len(set(worlds)) != len(worlds):
        raise ScenarioValidationError("world names must be unique", "worlds")

    agents_raw = _expect(doc.get("agents"), list, "agents", "a list of agents")
    if not agents_raw:
        raise ScenarioValidationError("at least one agent is required", "agents")
    agents = []
    names_seen = set()
    world_set = set(worlds)
    for a, item in enumerate(agents_raw):
        obj = _expect(item, dict, f"agents[{a}]", "an object")
        name = _expect(obj.get("name"), str, f"agents[{a}].name", "a string")
        if name in names_seen:
            raise ScenarioValidationError(f"duplicate agent name {name!r}", f"agents[{a}].name")
        names_seen.add(name)
        partition_raw = _expect(obj.get("partition"), list, f"agents[{a}].partition", "a list of cells")
        partition = []
        for c, cell in enumerate(partition_raw):
            cell_names = _expect(cell, list, f"agents[{a}].partition[{c}]", "a list of world names")
            in_cell = set()
            for k, w in enumerate(cell_names):
                path = f"agents[{a}].partition[{c}][{k}]"
                _expect(w, str, path, "a string")
                if w not in world_set:
                    raise ScenarioValidationError(f"unknown world {w!r}", path)
                if w in in_cell:
                    raise ScenarioValidationError(f"world {w!r} is listed twice in cell {c}", path)
                in_cell.add(w)
            partition.append(list(cell_names))
        agents.append(AgentSpec(name, partition))

    measure_raw = _expect(doc.get("measure"), dict, "measure", "an object")
    if len(measure_raw) != 1 or next(iter(measure_raw)) not in _KINDS:
        raise ScenarioValidationError(f"measure must have exactly one of the keys {tuple(_KINDS)}", "measure")
    layer = next(iter(measure_raw))
    kind = _KINDS[layer]
    payload = _expect(measure_raw[layer], dict, f"measure.{layer}", "an object")
    measure = {layer: kind.read(payload, len(worlds), f"measure.{layer}")}

    hypothesis = None
    if doc.get("hypothesis") is not None:
        hyp_raw = _expect(doc["hypothesis"], list, "hypothesis", "a list of world names")
        hypothesis = [_expect(w, str, f"hypothesis[{i}]", "a string") for i, w in enumerate(hyp_raw)]

    targets = None
    if doc.get("targets") is not None:
        targets_raw = _expect(doc["targets"], list, "targets", "a list")
        if len(targets_raw) != len(agents):
            raise ScenarioValidationError(
                f"expected {len(agents)} targets (one per agent), got {len(targets_raw)}", "targets"
            )
        targets = [
            kind.to_json(kind.target(t, measure[layer], f"targets[{i}]")) for i, t in enumerate(targets_raw)
        ]

    tolerance = None
    if doc.get("tolerance") is not None:
        tolerance = _number(doc["tolerance"], "tolerance")
        if tolerance <= 0:
            raise ScenarioValidationError("tolerance must be positive", "tolerance")

    known = {"version", "worlds", "agents", "measure", "hypothesis", "targets", "tolerance"}
    for key in doc:
        if key not in known:
            raise ScenarioValidationError(f"unknown top-level field {key!r}", key)

    sf = ScenarioFile(version, worlds, agents, measure, hypothesis, targets, tolerance)
    # Building the core objects validates every module invariant up front.
    sf.model()
    sf.measure_object()
    sf.hypothesis_event()
    sf.target_values()
    return sf


def serialize_scenario(sf: ScenarioFile) -> str:
    """Render a scenario as canonical JSON; ``parse_scenario`` inverts this."""
    doc: dict[str, Any] = {
        "version": sf.version,
        "worlds": list(sf.worlds),
        "agents": [{"name": a.name, "partition": [list(c) for c in a.partition]} for a in sf.agents],
        "measure": sf.measure,
    }
    if sf.hypothesis is not None:
        doc["hypothesis"] = list(sf.hypothesis)
    if sf.targets is not None:
        doc["targets"] = sf.targets
    if sf.tolerance is not None:
        doc["tolerance"] = sf.tolerance
    return json.dumps(doc, indent=2) + "\n"


def scenario_from_bundle(bundle: ScenarioBundle) -> ScenarioFile:
    """Render a generated bundle as a scenario document (worlds ``w0..``)."""
    model = bundle.model
    worlds = [f"w{i}" for i in range(model.n_worlds)]
    agents = [
        AgentSpec(f"a{i + 1}", [[worlds[w] for w in cell] for cell in p.cells])
        for i, p in enumerate(model.partitions)
    ]
    kind = _KINDS[bundle.layer]
    payload = {bundle.layer: kind.write(bundle.measure)}
    targets = [kind.to_json(t) for t in bundle.targets]
    hypothesis = None if bundle.hypothesis is None else [worlds[w] for w in bundle.hypothesis]
    return ScenarioFile(SCENARIO_VERSION, worlds, agents, payload, hypothesis, targets)


# ---------------------------------------------------------------------------
# reports and runners

@dataclass
class Report:
    """Everything a run computed, plus wall-clock timings per phase."""

    layer: str
    worlds: list[str]
    verdict: AgreementVerdict | None
    event: Event | None = None
    knowledge: tuple[Event, ...] | None = None
    mutual_trace: tuple[Event, ...] | None = None
    common: Event | None = None
    posteriors_by_cell: list | None = None
    agent_names: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def _names(self, e: Event) -> list[str]:
        return [self.worlds[w] for w in e]

    def _value_json(self, value):
        return None if value is None else _KINDS[self.layer].to_json(value)

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"layer": self.layer}
        if self.event is not None:
            out["event"] = self._names(self.event)
        if self.knowledge is not None:
            out["knowledge"] = {
                name: self._names(k) for name, k in zip(self.agent_names, self.knowledge)
            }
        if self.mutual_trace is not None:
            out["mutual_trace"] = [self._names(m) for m in self.mutual_trace]
        if self.common is not None:
            out["common_knowledge"] = self._names(self.common)
        if self.posteriors_by_cell is not None:
            out["posteriors_by_cell"] = {
                name: [
                    {"cell": self._names(cell), "value": self._value_json(value)}
                    for cell, value in rows
                ]
                for name, rows in zip(self.agent_names, self.posteriors_by_cell)
            }
        if self.verdict is not None:
            out["verdict"] = {
                "status": self.verdict.status.value,
                "common_event": self._names(self.verdict.common_event),
                "posteriors": [self._value_json(p) for p in self.verdict.posteriors],
                "pooled_posterior": self._value_json(self.verdict.pooled_posterior),
            }
        out["timings"] = dict(self.timings)
        return out

    def to_text(self) -> str:
        doc = self.to_json_dict()
        lines = [f"layer: {self.layer}"]
        if "event" in doc:
            lines.append(f"event: {_names_text(doc['event'])}")
        for name, names in doc.get("knowledge", {}).items():
            lines.append(f"knowledge[{name}]: {_names_text(names)}")
        for level, names in enumerate(doc.get("mutual_trace", ()), start=1):
            lines.append(f"mutual[{level}]: {_names_text(names)}")
        if "common_knowledge" in doc:
            lines.append(f"common knowledge: {_names_text(doc['common_knowledge'])}")
        for name, rows in doc.get("posteriors_by_cell", {}).items():
            for row in rows:
                lines.append(f"conditional[{name} | {_names_text(row['cell'])}]: {_json_text(row['value'])}")
        if "verdict" in doc:
            verdict = doc["verdict"]
            lines.append(f"verdict: {verdict['status']}")
            lines.append(f"common event: {_names_text(verdict['common_event'])}")
            for name, p in zip(self.agent_names, verdict["posteriors"]):
                lines.append(f"posterior[{name}]: {_json_text(p)}")
            if verdict["pooled_posterior"] is not None:
                lines.append(f"pooled posterior: {_json_text(verdict['pooled_posterior'])}")
        lines.append("timings: " + " ".join(f"{k}={v:.3f}s" for k, v in self.timings.items()))
        return "\n".join(lines) + "\n"


def _names_text(names: list[str]) -> str:
    return "[" + ", ".join(sorted(names)) + "]"


def _json_text(doc) -> str:
    """Six-decimal text of a JSON value: a number, a vector, or a matrix of [re, im] pairs."""
    if doc is None:
        return "undefined"
    if isinstance(doc, float):
        return f"{doc:.6f}"
    if isinstance(doc[0], float):
        return "[" + ", ".join(f"{x:.6f}" for x in doc) + "]"
    return "[" + ", ".join("[" + ", ".join(f"{re:.6f}{im:+.6f}j" for re, im in row) + "]" for row in doc) + "]"


def verify_bundle(
    bundle: ScenarioBundle, tol: float = MATCH_TOL, *, max_iters: int | None = None
) -> AgreementVerdict:
    """Dispatch a generated bundle to its layer's verifier."""
    return _bundle_verifier(bundle.layer)(bundle, tol, max_iters)


def _bundle_verifier(layer: str) -> Callable[[ScenarioBundle, float, int | None], AgreementVerdict]:
    """``verify_bundle`` for bundles of ``layer``, with the layer's adapter
    looked up once."""
    make_layer = _KINDS[layer].layer()

    def verify(bundle: ScenarioBundle, tol: float, max_iters: int | None) -> AgreementVerdict:
        model = bundle.model
        return _verify(model, make_layer(model, bundle.measure, bundle.hypothesis, bundle.targets), tol, max_iters)

    return verify


def _effective_tol(sf: ScenarioFile, tol: float | None) -> float:
    if tol is not None:
        return tol
    if sf.tolerance is not None:
        return sf.tolerance
    return MATCH_TOL


def _pipeline_parts(sf: ScenarioFile, *, need_targets: bool):
    """(model, pipeline adapter) of a scenario; the adapter has no targets
    when the scenario has none."""
    kind = _KINDS[sf.layer]
    if kind.layer is None:
        raise ScenarioValidationError("POVM scenarios only support conversion", "measure")
    targets, h = sf.target_values(), sf.hypothesis_event()
    if targets is None and need_targets:
        raise ScenarioValidationError("this command needs per-agent targets", "targets")
    if targets is None and h is None:
        raise ScenarioValidationError("analysis needs targets or a hypothesis event", "hypothesis")
    if h is None and kind.needs_hypothesis:
        raise ScenarioValidationError(f"{sf.layer} agreement needs a hypothesis", "hypothesis")
    model = sf.model()
    return model, kind.layer()(model, sf.measure_object(), h, targets or ())


def run_agree(
    sf: ScenarioFile, *, tol: float | None = None, max_iters: int | None = None
) -> Report:
    """Verdict-centric run: build the agreement event and verify the theorem."""
    t0 = time.perf_counter()
    tol = _effective_tol(sf, tol)
    model, layer = _pipeline_parts(sf, need_targets=True)
    event = _agreement_event(model, layer, tol)
    t1 = time.perf_counter()
    verdict = _verdict(layer, common_knowledge(model, event, max_iters=max_iters), tol)
    t2 = time.perf_counter()
    return Report(
        layer=sf.layer,
        worlds=list(sf.worlds),
        verdict=verdict,
        event=event,
        common=verdict.common_event,
        agent_names=[a.name for a in sf.agents],
        timings={"build": t1 - t0, "verify": t2 - t1, "total": t2 - t0},
    )


def _conditional_table(model: KnowledgeModel, layer) -> list:
    """Per agent: (cell, conditional value) rows; None value marks null cells."""
    table = []
    for p in model.partitions:
        live, conditionals = _cell_conditionals(layer, p)
        found = dict(zip(live.tolist(), conditionals))
        table.append([(cell, found.get(k)) for k, cell in enumerate(p.cells)])
    return table


def run_analyze(
    sf: ScenarioFile, *, tol: float | None = None, max_iters: int | None = None
) -> Report:
    """Full knowledge analysis of the agreement event (or bare hypothesis).

    With targets present the analyzed event is the agreement event and the
    report carries a verdict; otherwise the hypothesis itself is analyzed.
    """
    t0 = time.perf_counter()
    tol = _effective_tol(sf, tol)
    model, layer = _pipeline_parts(sf, need_targets=False)
    _check_tol(tol)  # also without targets, where no agreement event would check it
    has_targets = sf.targets is not None
    event = _agreement_event(model, layer, tol) if has_targets else sf.hypothesis_event()
    t1 = time.perf_counter()
    trace = tuple(mutual_knowledge_chain(model, event, max_iters=max_iters))
    common = trace[-1]
    verdict = _verdict(layer, common, tol) if has_targets else None
    t2 = time.perf_counter()
    knowledge = tuple(know(model, i, event) for i in range(model.n_agents))
    table = _conditional_table(model, layer)
    t3 = time.perf_counter()
    return Report(
        layer=sf.layer,
        worlds=list(sf.worlds),
        verdict=verdict,
        event=event,
        knowledge=knowledge,
        mutual_trace=trace,
        common=common,
        posteriors_by_cell=table,
        agent_names=[a.name for a in sf.agents],
        timings={"build": t1 - t0, "verify": t2 - t1, "analyze": t3 - t2, "total": t3 - t0},
    )


def run_convert(sf: ScenarioFile, direction: str) -> ScenarioFile:
    """Convert between DOVM atoms and (POVM, state) form of a quantum scenario.

    ``dovm2povm`` stores the effects together with the total state, so
    ``povm2dovm`` can reconstruct the original atoms exactly (up to float
    roundoff) for full-rank totals.
    """
    if direction == "dovm2povm":
        if sf.layer != "quantum":
            raise ScenarioValidationError("dovm2povm needs a quantum scenario", "measure")
        rho = sf.measure_object()
        povm = _quantum().dovm_to_povm(rho)
        payload = {
            "povm": {
                "dim": rho.dim,
                "effects": [_matrix_to_json(e) for e in povm.effects],
                "state": _matrix_to_json(rho.total),
            }
        }
    elif direction == "povm2dovm":
        if sf.layer != "povm":
            raise ScenarioValidationError("povm2dovm needs a povm scenario", "measure")
        povm, state = sf.measure_object()
        rho = _quantum().povm_to_dovm(povm, state)
        payload = {"quantum": _write_quantum(rho)}
    else:
        raise ScenarioValidationError(f"unknown direction {direction!r}", "direction")
    return ScenarioFile(
        sf.version, list(sf.worlds), list(sf.agents), payload, sf.hypothesis, sf.targets, sf.tolerance
    )


def run_gen(
    layer: str,
    seed: int,
    *,
    n_worlds: int = 6,
    n_agents: int = 2,
    dim: int = 2,
    cone_kind: str = "simplex",
    planted: bool = True,
) -> ScenarioFile:
    """Generate a scenario document for the given layer and seed; a
    polyhedral cone gets ``2 * dim`` generators."""
    from .generators import gen_planted_scenario, gen_unconstrained_scenario

    gen = gen_planted_scenario if planted else gen_unconstrained_scenario
    bundle = gen(seed, layer, n_worlds, n_agents, dim, cone_kind)
    return scenario_from_bundle(bundle)


@dataclass
class SearchStats:
    """Verdict counts over a seed range; any violation signals a bug."""

    layer: str
    n_scenarios: int
    counts: dict[str, int]
    violation_seeds: tuple[int, ...]
    elapsed_s: float

    @property
    def violations(self) -> int:
        return self.counts.get(VerdictStatus.VIOLATED.value, 0)

    def to_json_dict(self) -> dict:
        return {
            "layer": self.layer,
            "n_scenarios": self.n_scenarios,
            "counts": dict(self.counts),
            "violations": self.violations,
            "violation_seeds": list(self.violation_seeds),
            "elapsed_s": self.elapsed_s,
        }

    def to_text(self) -> str:
        lines = [f"layer: {self.layer}", f"scenarios: {self.n_scenarios}"]
        for status in VerdictStatus:
            lines.append(f"{status.value}: {self.counts.get(status.value, 0)}")
        lines.append(f"violations: {self.violations}")
        lines.append(f"elapsed: {self.elapsed_s:.3f}s")
        return "\n".join(lines) + "\n"


def _search_shard(args) -> tuple[Counter, list[int]]:
    from .generators import gen_planted_scenario, gen_unconstrained_scenario

    layer, start, stop, params = args
    verify = _bundle_verifier(layer)
    counts: Counter = Counter()
    bad: list[int] = []
    for i in range(start, stop):
        seed = params["base_seed"] + i
        planted = params["mode"] == "planted" or (params["mode"] == "mix" and i % 2 == 0)
        gen = gen_planted_scenario if planted else gen_unconstrained_scenario
        bundle = gen(seed, layer, params["n_worlds"], params["n_agents"], params["dim"], params["cone_kind"])
        verdict = verify(bundle, params["tol"], None)
        counts[verdict.status.value] += 1
        if verdict.status is VerdictStatus.VIOLATED:
            bad.append(seed)
    return counts, bad


def run_search(
    layer: str,
    n_seeds: int,
    *,
    base_seed: int = 0,
    n_worlds: int = 6,
    n_agents: int = 2,
    dim: int = 2,
    cone_kind: str = "simplex",
    mode: str = "mix",
    tol: float | None = None,
    workers: int = 1,
) -> SearchStats:
    """Run seeded scenarios (planted, random, or an even mix) and tally verdicts.

    Sharding by seed range means results are identical for any worker count;
    the pool holds one process per shard, never more than ``workers``. A
    polyhedral cone gets ``2 * dim`` generators.
    """
    from .generators import LAYERS

    if layer not in LAYERS:
        raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
    if mode not in ("mix", "planted", "random"):
        raise ValueError(f"mode must be mix, planted, or random, got {mode!r}")
    if n_seeds < 0:
        raise ValueError(f"n_seeds must be nonnegative, got {n_seeds}")
    tol = MATCH_TOL if tol is None else tol
    _check_tol(tol)
    params = {
        "base_seed": base_seed,
        "n_worlds": n_worlds,
        "n_agents": n_agents,
        "dim": dim,
        "cone_kind": cone_kind,
        "mode": mode,
        "tol": tol,
    }
    t0 = time.perf_counter()
    counts: Counter = Counter()
    bad: list[int] = []
    if workers <= 1 or n_seeds == 0:
        counts, bad = _search_shard((layer, 0, n_seeds, params))
    else:
        step = -(-n_seeds // workers)
        shards = [
            (layer, lo, min(lo + step, n_seeds), params) for lo in range(0, n_seeds, step)
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            for shard_counts, shard_bad in pool.map(_search_shard, shards):
                counts.update(shard_counts)
                bad.extend(shard_bad)
    elapsed = time.perf_counter() - t0
    return SearchStats(layer, n_seeds, dict(counts), tuple(sorted(bad)), elapsed)

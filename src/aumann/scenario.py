"""Scenario files, reports, and the operations behind the CLI.

A scenario is a single JSON document: named worlds, one partition per agent,
a measure (classical weights, quantum DOVM atoms, a GPT cone with SVM atoms,
or a POVM-with-state pair produced by conversion), plus an optional
hypothesis, per-agent targets, and tolerance. Complex numbers serialize as
``[re, im]`` pairs. World names exist only at this boundary; the core works
on indices. Every JSON object is read through ``_object``, which rejects a
key it does not define, and every counted list through ``_list``, which
checks the count before any entry is read, so no array outgrows the document.
The decoder knows no paths, so it only marks an object whose key repeats;
the reader rejects that object at its path (``agents[1]``) when it meets it.

A :class:`ScenarioFile` holds the names and the core objects, each built
once, at parse. Writing renders those objects, so the written document is
canonical: cells and the hypothesis list their worlds in world order, DOVM
and POVM matrices come out symmetrised as the core stores them, and a
simplex or PSD unit comes out as the cone's own.

Everything that depends on the measure kind (reading its payload into the
measure, writing it, reading and printing targets and values, and the
agreement-pipeline adapter) sits in one table, ``_KINDS``.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from . import _EXPORTS
from .classical import ProbabilityMeasure, _classical_block
from .errors import ScenarioSyntaxError, ScenarioValidationError
from .knowledge import Event, KnowledgeModel, Partition, know, mutual_knowledge_chain
from .tolerances import CANONICAL_UNIT_TOL, MATCH_TOL
from .verdicts import AgreementVerdict, VerdictStatus
from .verdicts import _agreement_events, _Block, _cell_conditionals, _check_tol, _statuses, _verdicts, _verify

if TYPE_CHECKING:
    from .generators import ScenarioBundle
    from .gpt import Svm

__all__ = _EXPORTS["scenario"]

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
    _unique(raw, path)
    if not isinstance(raw, kind) or isinstance(raw, bool):
        raise ScenarioValidationError(f"expected {what}, got {type(raw).__name__}", path)
    return raw


def _number(raw: Any, path: str) -> float:
    _unique(raw, path)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioValidationError(f"expected a number, got {type(raw).__name__}", path)
    try:
        value = float(raw)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf if raw > 0 else -math.inf
    if not math.isfinite(value):  # a literal such as 1e999 overflows to infinity
        raise ScenarioValidationError(f"expected a finite number, got {value!r}", path)
    return value


def _reject_constant(token: str) -> None:
    raise ScenarioSyntaxError(f"non-finite number {token} is not valid JSON")


class _Repeated(dict):
    """A JSON object one of whose keys, ``key``, repeats; the reader kept its last value."""

    key: str


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object from its key-value pairs, marked as :class:`_Repeated`
    if a key repeats: the decoder knows no path, so the reader reports it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj = _Repeated(obj)
        obj.key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    return obj


def _unique(raw: Any, path: str) -> None:
    """Raise :class:`ScenarioSyntaxError` at ``path`` if ``raw`` is an object whose key repeats."""
    if isinstance(raw, _Repeated):
        raise ScenarioSyntaxError(f"duplicate key {raw.key!r}", path)


def _object(raw: Any, path: str, what: str, fields: tuple[str, ...]) -> dict:
    """``raw`` as a JSON object, none of whose keys repeats or lies outside ``fields``."""
    obj = _expect(raw, dict, path, what)
    for key in obj:
        if key not in fields:
            if not path:
                raise ScenarioValidationError(f"unknown top-level field {key!r}", key)
            raise ScenarioValidationError(f"unknown field {key!r}", f"{path}.{key}")
    return obj


def _list(raw: Any, path: str, what: str, n: int, noun: str) -> list:
    """``raw`` as a JSON list of exactly ``n`` items, checked before any item is read."""
    items = _expect(raw, list, path, what)
    if len(items) != n:
        raise ScenarioValidationError(f"expected {n} {noun}, got {len(items)}", path)
    return items


def _complex_from_json(raw: Any, path: str) -> complex:
    pair = _expect(raw, list, path, "an [re, im] pair")
    if len(pair) != 2:
        raise ScenarioValidationError(f"expected an [re, im] pair, got {len(pair)} entries", path)
    return complex(_number(pair[0], f"{path}[0]"), _number(pair[1], f"{path}[1]"))


def _matrix_from_json(raw: Any, dim: int, path: str) -> np.ndarray:
    rows = _list(raw, path, "a matrix (list of rows)", dim, "rows")
    out = np.empty((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        entries = _list(row, f"{path}[{r}]", "a row (list of [re, im] pairs)", dim, "entries")
        for c, entry in enumerate(entries):
            out[r, c] = _complex_from_json(entry, f"{path}[{r}][{c}]")
    return out


def _matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _vector(raw: Any, n: int, path: str, noun: str) -> np.ndarray:
    items = _list(raw, path, "a list of numbers", n, noun)
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(items)], float)


def _positive_int(raw: Any, path: str, name: str) -> int:
    value = _expect(raw, int, path, "an integer")
    if value < 1:
        raise ScenarioValidationError(f"{name} must be positive", path)
    return value


def _core(build: Callable, path: str, *args) -> Any:
    """``build(*args)``, a core constructor; its ``ValueError`` is reported at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc), path) from exc


def _event(raw: Any, index: dict[str, int], path: str, where: str) -> Event:
    """The event of a list of world names; ``where`` names the list when a world repeats."""
    names = _expect(raw, list, path, "a list of world names")
    mask = 0
    for k, name in enumerate(names):
        item = f"{path}[{k}]"
        w = index.get(_expect(name, str, item, "a string"))
        if w is None:
            raise ScenarioValidationError(f"unknown world {name!r}", item)
        if mask >> w & 1:
            raise ScenarioValidationError(f"world {name!r} is listed twice in {where}", item)
        mask |= 1 << w
    return Event(mask, len(index))


# ---------------------------------------------------------------------------
# measure kinds

def _read_classical(raw: Any, n_worlds: int, path: str) -> ProbabilityMeasure:
    payload = _object(raw, path, "an object", ("weights",))
    return _core(ProbabilityMeasure, path, _vector(payload.get("weights"), n_worlds, f"{path}.weights", "weights"))


def _matrices_reader(build: Callable, key: str, *single: str) -> Callable[[Any, int, str], Any]:
    """Reader of a payload with ``dim``, one matrix per world under ``key``,
    and one more matrix under each name in ``single``; ``build`` makes the
    measure from the stack and the single matrices."""

    def read(raw: Any, n_worlds: int, path: str) -> Any:
        payload = _object(raw, path, "an object", ("dim", key, *single))
        dim = _positive_int(payload.get("dim"), f"{path}.dim", "dim")
        mats_raw = _list(payload.get(key), f"{path}.{key}", "a list of matrices", n_worlds, "matrices")
        mats = np.stack([_matrix_from_json(m, dim, f"{path}.{key}[{i}]") for i, m in enumerate(mats_raw)])
        singles = [_matrix_from_json(payload.get(name), dim, f"{path}.{name}") for name in single]
        return _core(build, path, mats, *singles)

    return read


# cone kind -> the fields of its JSON object besides "kind"; the first is its size
_CONE_FIELDS = {"simplex": ("dim",), "psd": ("matrix_dim",), "polyhedral": ("dim", "generators")}


def _read_gpt(raw: Any, n_worlds: int, path: str) -> Svm:
    """Reads the cone's fields, then the unit against the size they declare, builds the cone, then reads the atoms."""
    gpt = _gpt()
    payload = _object(raw, path, "an object", ("cone", "unit", "atoms"))
    at = f"{path}.cone"
    kind = _expect(_expect(payload.get("cone"), dict, at, "an object").get("kind"), str, f"{at}.kind", "a string")
    if kind not in _CONE_FIELDS:
        raise ScenarioValidationError(f"unknown cone kind {kind!r}", f"{at}.kind")
    spec = _object(payload["cone"], at, "an object", ("kind", *_CONE_FIELDS[kind]))
    size_field = _CONE_FIELDS[kind][0]
    size = _positive_int(spec.get(size_field), f"{at}.{size_field}", size_field)
    dim = size * size if kind == "psd" else size
    if kind == "polyhedral":
        gens_raw = _expect(spec.get("generators"), list, f"{at}.generators", "a list of vectors")
        gens = [_vector(g, dim, f"{at}.generators[{i}]", "entries") for i, g in enumerate(gens_raw)]
    unit = _vector(payload.get("unit"), dim, f"{path}.unit", "entries")
    if kind == "polyhedral":
        cone = _core(gpt.PolyhedralCone, at, np.asarray(gens, float), unit)
    else:
        cone = (gpt.SimplexCone if kind == "simplex" else gpt.PsdCone)(size)
        if not np.allclose(unit, cone.unit, rtol=0, atol=CANONICAL_UNIT_TOL):
            raise ScenarioValidationError(f"unit must be the canonical {kind} unit functional", f"{path}.unit")
    atoms_raw = _list(payload.get("atoms"), f"{path}.atoms", "a list of vectors", n_worlds, "atoms")
    atoms = [_vector(a, dim, f"{path}.atoms[{i}]", "entries") for i, a in enumerate(atoms_raw)]
    return _core(gpt.Svm, path, cone, np.asarray(atoms, float))


def _write_gpt(svm: Svm) -> dict:
    cone = svm.cone
    return {
        "cone": {"kind": cone.kind, **{f: np.asarray(getattr(cone, f)).tolist() for f in _CONE_FIELDS[cone.kind]}},
        "unit": [float(x) for x in cone.unit],
        "atoms": [[float(x) for x in a] for a in svm.atoms],
    }


def _matrix_value_json(value) -> list:
    return _matrix_to_json(value.matrix if isinstance(value, _quantum().DensityOperator) else value)


@dataclass(frozen=True)
class _Kind:
    """How one measure kind is read, written, and verified; ``layer`` is
    ``None`` for povm, which only converts.

    ``read(raw, n_worlds, path)`` turns the raw payload into the core measure,
    and reports a core ``ValueError`` at ``path`` (a GPT cone's at ``path.cone``).
    ``target(raw, measure, path)`` reads one target against the measure's
    dimension; ``to_json`` writes a target or a value.
    ``block(model, measure, hypothesis, targets)`` is the kind's pipeline
    adapter, which checks a scenario and returns it as a block of one; the
    quantum and GPT adapters import their layer module on first call and
    ignore the hypothesis.
    """

    read: Callable[[Any, int, str], Any]
    target: Callable[[Any, Any, str], Any]
    to_json: Callable[[Any], Any]
    write: Callable[[Any], dict]
    block: Callable[[KnowledgeModel, Any, Event | None, tuple], _Block] | None = None
    needs_hypothesis: bool = False


_KINDS: dict[str, _Kind] = {
    "classical": _Kind(
        read=_read_classical,
        target=lambda raw, mu, path: _number(raw, path),
        to_json=float,
        write=lambda mu: {"weights": [float(x) for x in mu.weights]},
        block=_classical_block,
        needs_hypothesis=True,
    ),
    "quantum": _Kind(
        read=_matrices_reader(lambda atoms: _quantum().Dovm(atoms), "atoms"),
        target=lambda raw, rho, path: _matrix_from_json(raw, rho.dim, path),
        to_json=_matrix_value_json,
        write=lambda rho: {"dim": rho.dim, "atoms": [_matrix_to_json(a) for a in rho.atoms]},
        block=lambda model, rho, h, targets: _quantum()._quantum_block(model, rho, targets),
    ),
    "gpt": _Kind(
        read=_read_gpt,
        target=lambda raw, svm, path: _vector(raw, svm.cone.dim, path, "entries"),
        to_json=lambda value: [float(x) for x in (value.coords if isinstance(value, _gpt().GptState) else value)],
        write=_write_gpt,
        block=lambda model, svm, h, targets: _gpt()._gpt_block(model, svm, targets),
    ),
    "povm": _Kind(
        read=_matrices_reader(
            lambda effects, state: (_quantum().Povm(effects), _quantum().DensityOperator(state)), "effects", "state"
        ),
        target=lambda raw, pair, path: _matrix_from_json(raw, pair[0].dim, path),
        to_json=_matrix_value_json,
        write=lambda pair: {"dim": pair[0].dim, "effects": [_matrix_to_json(e) for e in pair[0].effects],
                            "state": _matrix_to_json(pair[1].matrix)},
    ),
}


# ---------------------------------------------------------------------------
# scenario document

@dataclass(eq=False)
class ScenarioFile:
    """A validated scenario: world and agent names plus the core objects.

    ``parse_scenario`` builds each object once, so every check runs at
    parse, and ``serialize_scenario`` writes from the objects. ``measure``
    is a ProbabilityMeasure, Dovm, Svm, or (Povm, DensityOperator) pair;
    ``targets`` holds floats (classical), matrices (quantum, povm) or
    vectors (gpt), or the states of a generated bundle. Instances compare
    by identity, since field-wise ``==`` raises on numpy values.
    """

    worlds: list[str]
    agents: list[str]
    knowledge_model: KnowledgeModel
    layer: str
    measure: Any
    hypothesis: Event | None = None
    targets: tuple | None = None
    tolerance: float | None = None

    def model(self) -> KnowledgeModel:
        return self.knowledge_model


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioSyntaxError` for malformed JSON (a repeated key
    or nesting too deep to decode included) and
    :class:`ScenarioValidationError` (with a field path) for structural
    problems, including core-object invariant violations.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(f"{exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    except ScenarioSyntaxError:
        raise
    except ValueError as exc:  # an integer literal with more digits than ``int`` converts
        raise ScenarioSyntaxError(str(exc)) from exc
    except RecursionError as exc:  # lists or objects nested deeper than the decoder recurses
        raise ScenarioSyntaxError("document nested too deeply") from exc
    doc = _object(
        raw, "", "a JSON object", ("version", "worlds", "agents", "measure", "hypothesis", "targets", "tolerance")
    )

    version = _expect(doc.get("version"), int, "version", "an integer")
    if version != SCENARIO_VERSION:
        raise ScenarioValidationError(f"unsupported version {version}", "version")

    worlds_raw = _expect(doc.get("worlds"), list, "worlds", "a list of world names")
    if not worlds_raw:
        raise ScenarioValidationError("at least one world is required", "worlds")
    worlds = [_expect(w, str, f"worlds[{i}]", "a string") for i, w in enumerate(worlds_raw)]
    index = {name: i for i, name in enumerate(worlds)}
    if len(index) != len(worlds):
        raise ScenarioValidationError("world names must be unique", "worlds")

    agents_raw = _expect(doc.get("agents"), list, "agents", "a list of agents")
    if not agents_raw:
        raise ScenarioValidationError("at least one agent is required", "agents")
    agents, partitions = [], []
    for a, item in enumerate(agents_raw):
        obj = _object(item, f"agents[{a}]", "an object", ("name", "partition"))
        name = _expect(obj.get("name"), str, f"agents[{a}].name", "a string")
        if name in agents:
            raise ScenarioValidationError(f"duplicate agent name {name!r}", f"agents[{a}].name")
        agents.append(name)
        path = f"agents[{a}].partition"
        cells_raw = _expect(obj.get("partition"), list, path, "a list of cells")
        cells = [_event(cell, index, f"{path}[{c}]", f"cell {c}") for c, cell in enumerate(cells_raw)]
        partitions.append(_core(Partition, path, cells))
    model = KnowledgeModel(len(worlds), tuple(partitions))

    measure_raw = _expect(doc.get("measure"), dict, "measure", "an object")
    if len(measure_raw) != 1 or next(iter(measure_raw)) not in _KINDS:
        raise ScenarioValidationError(f"measure must have exactly one of the keys {tuple(_KINDS)}", "measure")
    layer = next(iter(measure_raw))
    kind = _KINDS[layer]
    measure = kind.read(measure_raw[layer], len(worlds), f"measure.{layer}")

    hyp_raw = doc.get("hypothesis")
    hypothesis = None if hyp_raw is None else _event(hyp_raw, index, "hypothesis", "the hypothesis")

    targets = None
    if doc.get("targets") is not None:
        targets_raw = _list(doc["targets"], "targets", "a list", len(agents), "targets (one per agent)")
        targets = tuple(kind.target(t, measure, f"targets[{i}]") for i, t in enumerate(targets_raw))

    tolerance = None
    if doc.get("tolerance") is not None:
        tolerance = _number(doc["tolerance"], "tolerance")
        if tolerance <= 0:
            raise ScenarioValidationError("tolerance must be positive", "tolerance")

    return ScenarioFile(worlds, agents, model, layer, measure, hypothesis, targets, tolerance)


def serialize_scenario(sf: ScenarioFile) -> str:
    """Render a scenario as canonical JSON, written from its core objects;
    ``parse_scenario`` reads it back to a scenario with the same text."""
    kind = _KINDS[sf.layer]

    def names(e: Event) -> list[str]:
        return [sf.worlds[w] for w in e]

    doc: dict[str, Any] = {
        "version": SCENARIO_VERSION,
        "worlds": list(sf.worlds),
        "agents": [{"name": name, "partition": [names(c) for c in p.cells]}
                   for name, p in zip(sf.agents, sf.knowledge_model.partitions)],
        "measure": {sf.layer: kind.write(sf.measure)},
    }
    if sf.hypothesis is not None:
        doc["hypothesis"] = names(sf.hypothesis)
    if sf.targets is not None:
        doc["targets"] = [kind.to_json(t) for t in sf.targets]
    if sf.tolerance is not None:
        doc["tolerance"] = sf.tolerance
    return json.dumps(doc, indent=2) + "\n"


def scenario_from_bundle(bundle: ScenarioBundle) -> ScenarioFile:
    """A generated bundle as a scenario (worlds ``w0..``, agents ``a1..``)."""
    model = bundle.model
    worlds = [f"w{i}" for i in range(model.n_worlds)]
    agents = [f"a{i + 1}" for i in range(model.n_agents)]
    return ScenarioFile(worlds, agents, model, bundle.layer, bundle.measure, bundle.hypothesis, tuple(bundle.targets))


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


def verify_bundle(bundle: ScenarioBundle, tol: float = MATCH_TOL) -> AgreementVerdict:
    """Verify a generated bundle with its layer's pipeline (a block of one)."""
    return _verify(_KINDS[bundle.layer].block(bundle.model, bundle.measure, bundle.hypothesis, bundle.targets), tol)[0]


def _run(sf: ScenarioFile, tol: float | None, max_iters: int | None, analyze: bool) -> Report:
    """The one run behind ``run_agree`` and ``run_analyze``.

    Builds the agreement event (an analysis without targets takes the
    hypothesis), its mutual-knowledge chain, which may have at most
    ``max_iters`` degrees, and the verdict; an analysis adds each agent's
    knowledge, the chain and every cell's conditional value (``None`` for a
    null cell). The tolerance is ``tol``, else the file's, else
    ``MATCH_TOL``, and is checked after the structure.
    """
    t0 = time.perf_counter()
    kind = _KINDS[sf.layer]
    if kind.block is None:
        raise ScenarioValidationError("POVM scenarios only support conversion", "measure")
    targets, h = sf.targets, sf.hypothesis
    if targets is None and not analyze:
        raise ScenarioValidationError("this command needs per-agent targets", "targets")
    if targets is None and h is None:
        raise ScenarioValidationError("analysis needs targets or a hypothesis event", "hypothesis")
    if h is None and kind.needs_hypothesis:
        raise ScenarioValidationError(f"{sf.layer} agreement needs a hypothesis", "hypothesis")
    model = sf.knowledge_model
    block = kind.block(model, sf.measure, h, targets or ())
    if tol is None:
        tol = MATCH_TOL if sf.tolerance is None else sf.tolerance
    _check_tol(tol)
    event = h if targets is None else Event(_agreement_events(block, tol)[0], model.n_worlds)
    t1 = time.perf_counter()
    chain = tuple(mutual_knowledge_chain(model, event))
    if max_iters is not None and len(chain) > max_iters:
        raise RuntimeError(f"common-knowledge fixpoint not reached within {max_iters} iterations")
    verdict = None if targets is None else _verdicts(block, [chain[-1].mask], tol)[0]
    t2 = t3 = time.perf_counter()
    timings = {"build": t1 - t0, "verify": t2 - t1}
    report = Report(
        sf.layer, list(sf.worlds), verdict, event, common=chain[-1], agent_names=list(sf.agents), timings=timings
    )
    if analyze:
        report.knowledge = tuple(know(model, i, event) for i in range(model.n_agents))
        report.mutual_trace = chain
        live, conditionals = _cell_conditionals(block)
        found = dict(zip(live.tolist(), conditionals))
        report.posteriors_by_cell = [[(cell, found.get(start + k)) for k, cell in enumerate(p.cells)]
                                     for p, start in zip(model.partitions, block.starts.tolist())]
        t3 = time.perf_counter()
        timings["analyze"] = t3 - t2
    timings["total"] = t3 - t0
    return report


def run_agree(sf: ScenarioFile, *, tol: float | None = None, max_iters: int | None = None) -> Report:
    """Verdict-centric run: build the agreement event and verify the theorem."""
    return _run(sf, tol, max_iters, False)


def run_analyze(sf: ScenarioFile, *, tol: float | None = None, max_iters: int | None = None) -> Report:
    """Full knowledge analysis of the agreement event (or bare hypothesis).

    With targets present the analyzed event is the agreement event and the
    report carries a verdict; otherwise the hypothesis itself is analyzed.
    """
    return _run(sf, tol, max_iters, True)


def run_convert(sf: ScenarioFile, direction: str) -> ScenarioFile:
    """Convert between DOVM atoms and (POVM, state) form of a quantum scenario.

    ``dovm2povm`` stores the effects together with the total state, so
    ``povm2dovm`` can reconstruct the original atoms exactly (up to float
    roundoff) for full-rank totals.
    """
    if direction == "dovm2povm":
        if sf.layer != "quantum":
            raise ScenarioValidationError("dovm2povm needs a quantum scenario", "measure")
        rho = sf.measure
        layer, measure = "povm", (_quantum().dovm_to_povm(rho), _quantum().DensityOperator(rho.total))
    elif direction == "povm2dovm":
        if sf.layer != "povm":
            raise ScenarioValidationError("povm2dovm needs a povm scenario", "measure")
        layer, measure = "quantum", _quantum().povm_to_dovm(*sf.measure)
    else:
        raise ScenarioValidationError(f"unknown direction {direction!r}", "direction")
    return replace(sf, layer=layer, measure=measure)


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
    from .generators import _scenarios

    (bundle,) = _scenarios(layer, [(seed, planted)], n_worlds, n_agents, dim, cone_kind, None)
    return scenario_from_bundle(bundle)


@dataclass
class SearchStats:
    """Verdict counts over a seed range; any violation signals a bug, and so
    does a planted seed whose verdict is not ``holds`` (a planted failure):
    its planted cell lies in the agreement event by construction.

    ``generate_s`` and ``verify_s`` are the time spent building and
    verifying the blocks, summed over blocks (over every worker's blocks,
    so with several workers they may exceed ``elapsed_s``).
    """

    layer: str
    n_scenarios: int
    counts: dict[str, int]
    violation_seeds: tuple[int, ...]
    planted_failure_seeds: tuple[int, ...]
    elapsed_s: float
    generate_s: float
    verify_s: float

    @property
    def violations(self) -> int:
        return self.counts.get(VerdictStatus.VIOLATED.value, 0)

    @property
    def planted_failures(self) -> int:
        return len(self.planted_failure_seeds)

    def to_json_dict(self) -> dict:
        return {
            "layer": self.layer,
            "n_scenarios": self.n_scenarios,
            "counts": dict(self.counts),
            "violations": self.violations,
            "violation_seeds": list(self.violation_seeds),
            "planted_failures": self.planted_failures,
            "planted_failure_seeds": list(self.planted_failure_seeds),
            "elapsed_s": self.elapsed_s,
            "generate_s": self.generate_s,
            "verify_s": self.verify_s,
        }

    def to_text(self) -> str:
        lines = [f"layer: {self.layer}", f"scenarios: {self.n_scenarios}"]
        for status in VerdictStatus:
            lines.append(f"{status.value}: {self.counts.get(status.value, 0)}")
        lines.append(f"violations: {self.violations}")
        seeds = "".join(f" {seed}" for seed in self.planted_failure_seeds)
        lines.append(f"planted failures: {self.planted_failures}" + (f" (seeds{seeds})" if seeds else ""))
        lines.append(f"elapsed: {self.elapsed_s:.3f}s (generate {self.generate_s:.3f}s, verify {self.verify_s:.3f}s)")
        return "\n".join(lines) + "\n"


def _planted(mode: str, offset: int) -> bool:
    """Whether a search plants the seed at ``offset``: every seed, none, or the even offsets of a ``mix``."""
    return mode == "planted" or (mode == "mix" and offset % 2 == 0)


def _block_statuses(layer: str, base_seed: int, mode: str, shape: tuple, tol: float, n_seeds: int, size: int,
                    start: int) -> tuple[list[str], float, float]:
    """Verdict statuses of the block of a search's seeds from offset ``start``
    (``size`` of them, or up to ``n_seeds``), and the seconds spent
    generating and verifying it. The block is drawn, built and checked as
    one block of stacks, and verified as one, with no per-seed objects;
    ``shape`` is (n_worlds, n_agents, dim, cone_kind)."""
    from .generators import _scenarios

    offsets = range(start, min(start + size, n_seeds))
    seeds = [(base_seed + i, _planted(mode, i)) for i in offsets]
    t0 = time.perf_counter()
    block = _scenarios(layer, seeds, *shape, None).block
    t1 = time.perf_counter()
    statuses = [status.value for status in _statuses(block, tol)]
    return statuses, t1 - t0, time.perf_counter() - t1


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

    The search's shape, mode, count, seed range, workers and tolerance are
    checked before any block runs. Consecutive seeds then form blocks sized
    by their stacks (``generators._block_seeds``: as many seeds as keep a
    block's cell-sum rows within ``generators.BLOCK_ENTRIES``, and at least
    ``generators.BLOCK_SEEDS``); each block is generated as one stack and
    verified as one stack, and a seed's status does not depend on its
    block. Blocks are mapped in process, or over a pool of ``workers``
    processes, capped at the blocks and the CPUs, which returns them in
    seed order, so results are identical for any worker count. A
    polyhedral cone gets ``2 * dim`` generators. Planted seeds whose status
    is not ``holds`` are listed apart.
    """
    from .generators import _block_seeds, _check_seeds, _check_shape

    _check_shape(layer, n_worlds, n_agents, dim, cone_kind, mode != "random")
    if mode not in ("mix", "planted", "random"):
        raise ValueError(f"mode must be mix, planted, or random, got {mode!r}")
    if n_seeds < 0:
        raise ValueError(f"n_seeds must be nonnegative, got {n_seeds}")
    _check_seeds(base_seed, n_seeds)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    tol = MATCH_TOL if tol is None else tol
    _check_tol(tol)
    shape = (n_worlds, n_agents, dim, cone_kind)
    size = _block_seeds(layer, n_worlds, n_agents, dim, cone_kind)
    block_statuses = partial(_block_statuses, layer, base_seed, mode, shape, tol, n_seeds, size)
    starts = range(0, n_seeds, size)
    t0 = time.perf_counter()
    n_procs = min(workers, len(starts), os.cpu_count() or 1)
    if n_procs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(n_procs) as pool:
            blocks = list(pool.map(block_statuses, starts))
    else:
        blocks = list(map(block_statuses, starts))
    statuses = [status for block, _, _ in blocks for status in block]
    bad = tuple(base_seed + i for i, status in enumerate(statuses) if status == VerdictStatus.VIOLATED.value)
    failed = tuple(base_seed + i for i, status in enumerate(statuses)
                   if _planted(mode, i) and status != VerdictStatus.HOLDS.value)
    elapsed = time.perf_counter() - t0
    generate_s = float(sum(generate for _, generate, _ in blocks))
    verify_s = float(sum(verify for _, _, verify in blocks))
    return SearchStats(layer, n_seeds, dict(Counter(statuses)), bad, failed, elapsed, generate_s, verify_s)

"""Verdict types and the one agreement pipeline behind every layer's verifier.

The classical, quantum and GPT theorems are checked by one algorithm: per
agent, the cells whose conditional value is within ``tol`` of the agent's
target; the intersection of those unions of cells is the agreement event;
unless its common knowledge ``C`` is empty or has mass at most
``NULL_MASS_TOL`` (the two vacuous outcomes), every target is compared with
the value conditioned on ``C``. The matching ``tol`` plays no part in the
vacuity test.

The pipeline runs on one type, :class:`_Block`: scenarios of one layer
that share their world count, agent count and atom shape, held as stacks.
Its label stack ``(scenarios, agents, worlds)`` comes with each world's
cell numbered across the block and each cell's bit-mask; its
:class:`_Measures` hold the atom stack ``(scenarios, worlds, ...)``, the
layer's :class:`_Rule` and each scenario's space (a GPT measure's cone);
its target stack is ``(scenarios, agents, ...)``. A search's block comes
from the generators as one such block, with no per-seed objects; a single
verdict is a block of one, which its layer's adapter builds after the
per-scenario checks (``_model_block``), so there is one verification path.
The rule splits sums of atoms into values and masses, measures distances,
checks conditioned values as states and wraps checked values as states.

A block takes the cell sums of every (scenario, agent) partition in one
scatter (:func:`_sums`), their masses in one ``parts`` call, every live
cell's match in one ``distance`` call and each scenario's agreement event
in one gather. Common knowledge is taken per scenario, by
``knowledge._mutual_degrees`` on the block's cell masks. Then one scatter
sums every common event, one test finds the vacuous ones, one ``distance``
call compares the targets with the pooled values, and one state check,
which takes each value's own space, checks them. A search reads only the
statuses (:func:`_statuses`); the public verifiers get
:class:`AgreementVerdict` objects (:func:`_verdicts`).

Conditioning has one home, :func:`_condition`. The pooled values, the
public conditionals and the generators' conditioned targets all take it
through one event sum (:func:`_event_conditionals`), with the one null
cutoff ``NULL_MASS_TOL``.

Every sum adds its worlds in increasing order starting from zeros, and
every GPT mass adds its unit's products in coordinate order
(``gpt._unit_values``), so a sum and its mass get the same bits in any
stack: a block gives each scenario the bits it gets alone, and a cell the
bits it gets as an event. Cells with mass at most ``NULL_MASS_TOL`` never
match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConditioningOnNull, require_finite_items
from .knowledge import Event, KnowledgeModel, _mutual_degrees
from .tolerances import NULL_MASS_TOL


class VerdictStatus(Enum):
    HOLDS = "holds"
    VACUOUS_EMPTY_COMMON_KNOWLEDGE = "vacuous_empty_common_knowledge"
    VACUOUS_NULL_COMMON_KNOWLEDGE = "vacuous_null_common_knowledge"
    VIOLATED = "violated"


@dataclass(frozen=True, eq=False)
class AgreementVerdict:
    """Outcome of an agreement check.

    ``posteriors`` holds the per-agent targets (reals, density operators, or
    GPT states, depending on the layer); ``pooled_posterior`` is the value
    conditioned on the common-knowledge event, or ``None`` when the verdict
    is vacuous. ``VIOLATED`` contradicts a theorem, so reaching it signals an
    implementation bug rather than a legal outcome.
    """

    status: VerdictStatus
    common_event: Event
    posteriors: tuple[Any, ...]
    pooled_posterior: Any

    @property
    def is_vacuous(self) -> bool:
        return self.status in (
            VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE,
            VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE,
        )

    @property
    def holds(self) -> bool:
        return self.status is VerdictStatus.HOLDS


class _Rule(NamedTuple):
    """How the pipeline reads one measure layer; every scenario of a block shares it.

    ``parts(sums, spaces, owners)`` gives the values and masses of a stack
    of sums, sum ``r`` taken over measure ``owners[r]``, whose space is
    ``spaces[owners[r]]``; a sum gets the same bits in any stack.
    ``distance(xs, ys)`` compares two stacks of values entry by entry.
    ``check(values, spaces)`` checks a stack of conditioned values once,
    value ``k`` in the space ``spaces[k]``, and returns the checked stack;
    ``states(checked, spaces)`` wraps a checked stack as the layer's state
    type.
    """

    parts: Callable[[np.ndarray, Sequence[Any], np.ndarray], tuple[np.ndarray, np.ndarray]]
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    check: Callable[[np.ndarray, Sequence[Any]], np.ndarray]
    states: Callable[[np.ndarray, Sequence[Any]], list]


class _Measures(NamedTuple):
    """A stack of measures of one layer, as the pipeline reads them."""

    atoms: np.ndarray  # (measures, worlds, ...): each measure's atoms, one per world
    rule: _Rule
    spaces: Sequence  # each measure's space, what the rule needs beyond its atoms: a GPT measure's cone, else None


class _Block(NamedTuple):
    """Scenarios of one layer that share their world count, agent count and
    atom shape, as stacks: the label stack, the block's cells, the measures
    and the target stack."""

    labels: np.ndarray  # (scenarios, agents, worlds): each world's cell in each agent's partition
    cells: np.ndarray  # the same, with the cells numbered across the block, partition after partition
    starts: np.ndarray  # each partition's first cell number, then the block's cell count
    masks: Sequence[int]  # each cell's bit-mask, by its number across the block
    measures: _Measures
    targets: np.ndarray  # (scenarios, agents, ...): in the form ``rule.distance`` takes


def _model_block(model: KnowledgeModel, measures: _Measures, targets: Sequence) -> _Block:
    """One scenario as a block of one; a layer's adapter checks its measure
    and targets before."""
    partitions = model.partitions
    starts = np.cumsum([0, *map(len, partitions)])
    labels = np.array([p.labels for p in partitions])[None]
    return _Block(labels, labels + starts[:-1, None], starts, [m for p in partitions for m in p.masks], measures,
                  np.array(targets)[None])


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and positive (a NaN or
    infinite ``tol`` would otherwise give a vacuous verdict)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _sums(n: int, index: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``n`` sums of the float or complex ``rows``, row ``j`` added to sum
    ``index[j]``; each sum adds its rows in order, starting from zeros.

    One ``np.bincount`` per real component (a complex entry is two), which
    adds its weights in that order too, and runs several times faster than
    ``np.add.at`` over rows.
    """
    parts = rows.reshape(len(rows), math.prod(rows.shape[1:])).view(np.float64)
    out = np.empty((n, parts.shape[1]))
    for j in range(parts.shape[1]):
        out[:, j] = np.bincount(index, parts[:, j], minlength=n)
    return out.view(rows.dtype).reshape((n,) + rows.shape[1:])


def _condition(values: np.ndarray, masses: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Which of a stack of sums have mass above ``cutoff``, and those sums'
    values divided by their masses, stacked: the one conditioning step."""
    heavy = ~(masses <= cutoff)
    return heavy, values[heavy] / masses[heavy].reshape((-1,) + (1,) * (values.ndim - 1))


def _cell_conditionals(block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """The block's cells with mass above ``NULL_MASS_TOL``, by their number
    across the block, and their conditional values (value divided by
    mass), stacked in cell order: one scatter of every partition's cell
    sums, and their masses in one ``parts`` call."""
    atoms, rule, spaces = block.measures
    n_scenarios, n_agents, _ = block.labels.shape
    rows = np.broadcast_to(atoms[:, None], (n_scenarios, n_agents) + atoms.shape[1:])
    sums = _sums(int(block.starts[-1]), block.cells.ravel(), rows.reshape((-1,) + atoms.shape[2:]))
    owners = np.repeat(np.arange(n_scenarios), np.diff(block.starts[::n_agents]))  # each cell's measure
    live, conditionals = _condition(*rule.parts(sums, spaces, owners), NULL_MASS_TOL)
    return np.flatnonzero(live), conditionals


def _agreement_events(block: _Block, tol: float) -> list[int]:
    """For each scenario, the mask of the worlds whose cell, for every agent,
    has a conditional value within ``tol`` of that agent's target.

    The targets' count and finiteness are checked scenario by scenario,
    before any arithmetic, so a block with one bad scenario raises what
    verifying that scenario alone raises. Every agent's cells are compared,
    also those after an agent whose cells left the intersection empty.
    """
    _check_tol(tol)
    targets = block.targets
    n_scenarios, n_agents, n = block.labels.shape
    if targets.shape[1] != n_agents:
        raise ValueError(f"expected {n_agents} targets, got {targets.shape[1]}")
    if not np.isfinite(targets).all():
        for own in targets:
            require_finite_items(own, "target")
    live, conditionals = _cell_conditionals(block)
    owner = np.repeat(np.arange(n_scenarios * n_agents), np.diff(block.starts))  # each cell's partition
    matched = np.zeros(int(block.starts[-1]), dtype=bool)
    flat = targets.reshape((-1,) + targets.shape[2:])
    matched[live] = block.measures.rule.distance(conditionals, flat[owner[live]]) <= tol
    agreed = matched[block.cells].all(axis=1)
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(agreed, axis=1, bitorder="little")]


def _common_events(block: _Block, events: Sequence[int]) -> list[int]:
    """Each scenario's common knowledge of its event, as masks: the last
    degree of ``knowledge._mutual_degrees`` on the block's cell masks, one
    scenario at a time. The empty event is its own common knowledge."""
    n_agents = block.labels.shape[1]
    starts = block.starts.tolist()
    out = []
    for s, mask in enumerate(events):
        if mask:
            agents = [(block.masks[starts[i]:starts[i + 1]], labels)
                      for i, labels in enumerate(block.labels[s], s * n_agents)]
            for mask in _mutual_degrees(agents, mask):
                pass
        out.append(mask)
    return out


def _mask_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """The worlds of each ``n``-world bit-mask, as a boolean row."""
    raw = b"".join(m.to_bytes((n + 7) // 8, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(masks), -1), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _event_sums(atoms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum of each measure's atoms ``atoms[k]`` over the worlds of its
    boolean event row ``rows[k]`` (zeros for an empty one), stacked."""
    k, worlds = np.nonzero(rows)
    return _sums(len(rows), k, atoms[k, worlds])


def _event_conditionals(measures: _Measures, rows: np.ndarray, cutoff: float) -> tuple:
    """Each measure's atoms summed over its event row: the masses, which are
    above ``cutoff``, and those sums' values divided by their masses, with
    one ``parts`` call, as the block's cells take theirs."""
    atoms, rule, spaces = measures
    values, masses = rule.parts(_event_sums(atoms, rows), spaces, np.arange(len(rows)))
    return (masses, *_condition(values, masses, cutoff))


def _conditionals(measures: _Measures, rows: np.ndarray) -> np.ndarray:
    """Each measure's value conditioned on its event row; raises
    :class:`ConditioningOnNull` for the first event with mass at most ``NULL_MASS_TOL``."""
    masses, heavy, values = _event_conditionals(measures, rows, NULL_MASS_TOL)
    if not heavy.all():
        k = int(np.argmin(heavy))
        raise ConditioningOnNull(f"event {tuple(np.flatnonzero(rows[k]).tolist())} has mass {float(masses[k])!r}")
    return values


def _conditional(measures: _Measures, e: Event) -> Any:
    """The state of a measure (a stack of one) conditioned on ``e``, checked."""
    rule, spaces = measures.rule, measures.spaces
    return rule.states(rule.check(_conditionals(measures, _mask_rows([e.mask], e.n)), spaces), spaces)[0]


class _Outcomes(NamedTuple):
    """A block's verdicts as stacks."""

    statuses: list[VerdictStatus]
    pooled_at: list[int]  # the scenarios whose common event was pooled
    pooled: np.ndarray | tuple  # their pooled values, checked as states (an empty tuple if none)


def _outcomes(block: _Block, commons: Sequence[int], tol: float) -> _Outcomes:
    """Compare each scenario's targets with the value conditioned on its
    common event (a mask), ``value / mass``, which each layer's state type
    stores bit for bit: one event sum, one ``distance`` call and one state check."""
    statuses = [VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE] * len(commons)
    full = [s for s, c in enumerate(commons) if c]
    if not full:
        return _Outcomes(statuses, [], ())
    atoms, rule, spaces = block.measures
    measures = _Measures(atoms[full], rule, [spaces[s] for s in full])
    rows = _mask_rows([commons[s] for s in full], block.labels.shape[2])
    _, heavy, pooled = _event_conditionals(measures, rows, NULL_MASS_TOL)
    for s in full:  # null, unless pooled below
        statuses[s] = VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE
    pooled_at = [s for s, h in zip(full, heavy.tolist()) if h]
    if pooled_at:
        targets = block.targets[pooled_at]
        n_agents = targets.shape[1]
        near = rule.distance(targets.reshape((-1,) + targets.shape[2:]), np.repeat(pooled, n_agents, axis=0)) <= tol
        pooled = rule.check(pooled, [spaces[s] for s in pooled_at])
        for s, ok in zip(pooled_at, near.reshape(-1, n_agents).all(axis=1).tolist()):
            statuses[s] = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return _Outcomes(statuses, pooled_at, pooled)


def _verdicts(block: _Block, commons: Sequence[int], tol: float) -> list[AgreementVerdict]:
    """The block's outcomes as :class:`AgreementVerdict`s: the common events
    as events, the targets as posteriors and the pooled values as states."""
    statuses, pooled_at, pooled = _outcomes(block, commons, tol)
    rule, spaces = block.measures.rule, block.measures.spaces
    states = dict(zip(pooled_at, rule.states(pooled, [spaces[s] for s in pooled_at]) if pooled_at else ()))
    n = block.labels.shape[2]
    return [AgreementVerdict(status, Event(c, n), tuple(t.tolist() if t.ndim == 1 else t), states.get(s))
            for s, (status, c, t) in enumerate(zip(statuses, commons, block.targets))]


def _statuses(block: _Block, tol: float) -> list[VerdictStatus]:
    """Each scenario's verdict status: agreement events, their common
    knowledge, then the pooled comparisons, with no verdict objects."""
    return _outcomes(block, _common_events(block, _agreement_events(block, tol)), tol).statuses


def _verify(block: _Block, tol: float) -> list[AgreementVerdict]:
    """Agreement events, their common knowledge, then the pooled comparisons, for a block."""
    return _verdicts(block, _common_events(block, _agreement_events(block, tol)), tol)

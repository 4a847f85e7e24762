"""Verdict types and the one agreement pipeline behind every layer's verifier.

The classical, quantum and GPT theorems are checked by one algorithm: per
agent, the cells whose conditional value is within ``tol`` of the agent's
target; the intersection of those unions of cells is the agreement event;
unless its common knowledge ``C`` is empty or has mass at most
``NULL_MASS_TOL`` (the two vacuous outcomes), every target is compared with
the value conditioned on ``C``. The matching ``tol`` plays no part in the
vacuity test.

The pipeline runs on a block of scenarios of one layer that share their
world count, agent count and atom shape, as a search's block does; a single
verdict is a block of one. Each scenario enters as a :class:`_Layer`, which
its layer's adapter builds after the per-scenario checks: its atom stack
(one atom per world), its targets and its space (a GPT measure's cone). The
layer's :class:`_Rule` splits sums of atoms into values and masses, measures
distances and turns conditioned values into checked states. A block takes
the cell sums of every (scenario, agent) partition in one scatter
(:func:`_sums`), their masses in one ``parts`` call, every live cell's match
in one ``distance`` call and each scenario's agreement event in one gather.
Common knowledge is taken per scenario. Then one scatter sums every common
event, one test finds the vacuous ones, one ``distance`` call compares the
targets with the pooled values, and one state check, which takes each
value's own space, turns them into states.

Conditioning has one home, :func:`_condition`. The pooled values, the
public conditionals and the generators' conditioned targets all take it
through one event sum (:func:`_event_conditionals`), with the one null
cutoff ``NULL_MASS_TOL``.

Every sum adds its worlds in increasing order starting from zeros, so a
block gives each scenario the bits it gets alone. A matrix product rounds by
the shape of its stack, so a GPT mass stays one product per partition's
cell stack and one dot per event, as a scenario alone takes them. Cells
with mass at most ``NULL_MASS_TOL`` never match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConditioningOnNull, require_finite_items
from .knowledge import Event, KnowledgeModel, Partition, common_knowledge
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

    ``parts(sums, stacks)`` gives the values and masses of a stack of sums;
    ``stacks`` yields, for each stack a scenario alone would take (a
    partition's cells, as a slice of rows, or one event's sum, as a row
    index), that scenario's space. ``distance(xs, ys)`` compares two stacks
    of values entry by entry. ``states(values, spaces)`` checks a stack of
    conditioned values once, value ``k`` in the space ``spaces[k]``, and
    returns them as the layer's state type.
    """

    parts: Callable[[np.ndarray, Iterable[tuple[Any, Any]]], tuple[np.ndarray, np.ndarray]]
    distance: Callable[[np.ndarray, np.ndarray], np.ndarray]
    states: Callable[[np.ndarray, Sequence[Any]], list]


class _Layer(NamedTuple):
    """One scenario's measure and targets, as the agreement pipeline sees them."""

    atoms: np.ndarray  # one atom per world, stacked along axis 0
    targets: tuple  # one per agent, in the form ``rule.distance`` takes
    rule: _Rule
    space: Any = None  # what the rule needs of the scenario beyond its atoms: a GPT measure's cone


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


def _cell_values(atoms: np.ndarray, partition: Partition) -> np.ndarray:
    """Sum of the per-world ``atoms`` over each cell, stacked in cell order.

    Each cell's sum adds its worlds in increasing order starting from zeros,
    as ``atoms[list(cell)].sum(axis=0)`` does, so the values agree bit for bit.
    """
    return _sums(len(partition), partition.labels, atoms)


def _condition(values: np.ndarray, masses: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Which of a stack of sums have mass above ``cutoff``, and those sums'
    values divided by their masses, stacked: the one conditioning step."""
    heavy = ~(masses <= cutoff)
    return heavy, values[heavy] / masses[heavy].reshape((-1,) + (1,) * (values.ndim - 1))


def _cell_conditionals(
    layers: Sequence[_Layer], partitions: Sequence[Sequence[Partition]]
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """The cells of the partitions ``partitions[s]`` of each scenario
    ``layers[s]``, numbered across the block partition after partition.

    Returns each world's cell number (one row per partition), the number of
    each partition's first cell (and, last, the cell count), the cells with
    mass above ``NULL_MASS_TOL`` and their conditional values (value divided
    by mass), stacked in cell order.
    """
    owners = [layer for layer, own in zip(layers, partitions) for _ in own]
    flat = [p for own in partitions for p in own]
    starts = [0]
    for p in flat:
        starts.append(starts[-1] + len(p))
    labels = np.array([p.labels for p in flat]) + np.array(starts[:-1])[:, None]
    sums = _sums(starts[-1], labels.ravel(), np.concatenate([layer.atoms for layer in owners]))
    stacks = ((layer.space, slice(a, b)) for layer, a, b in zip(owners, starts, starts[1:]))
    live, conditionals = _condition(*layers[0].rule.parts(sums, stacks), NULL_MASS_TOL)
    return labels, starts, np.flatnonzero(live), conditionals


def _agreement_events(models: Sequence[KnowledgeModel], layers: Sequence[_Layer], tol: float) -> list[Event]:
    """For each scenario, the worlds whose cell, for every agent, has a
    conditional value within ``tol`` of that agent's target.

    The targets' count and finiteness are checked scenario by scenario,
    before any arithmetic, so a block with one bad scenario raises what
    verifying that scenario alone raises. Every agent's cells are compared,
    also those after an agent whose cells left the intersection empty.
    """
    _check_tol(tol)
    for model, layer in zip(models, layers):
        targets = layer.targets
        if len(targets) != model.n_agents:
            raise ValueError(f"expected {model.n_agents} targets, got {len(targets)}")
        require_finite_items(targets, "target")
    n = models[0].n_worlds
    if any(m.n_worlds != n or m.n_agents != models[0].n_agents for m in models):
        raise ValueError("a block's scenarios must share their world and agent counts")
    labels, starts, live, conditionals = _cell_conditionals(layers, [m.partitions for m in models])
    targets = np.array([t for layer in layers for t in layer.targets])
    owner = np.repeat(np.arange(len(targets)), [b - a for a, b in zip(starts, starts[1:])])  # each cell's partition
    matched = np.zeros(starts[-1], dtype=bool)
    matched[live] = layers[0].rule.distance(conditionals, targets[owner[live]]) <= tol
    agreed = matched[labels].reshape(len(models), -1, n).all(axis=1)
    return [Event(int.from_bytes(row.tobytes(), "little"), n)
            for row in np.packbits(agreed, axis=1, bitorder="little")]


def _event_sums(layers: Sequence[_Layer], events: Sequence[Event]) -> np.ndarray:
    """Sum of each scenario's atoms over the worlds of its event (zeros for
    an empty one), stacked; the atoms of a block share their shape."""
    n = layers[0].atoms.shape[0]
    masks = b"".join(e.mask.to_bytes((n + 7) // 8, "little") for e in events)
    bits = np.unpackbits(np.frombuffer(masks, np.uint8).reshape(len(events), -1), axis=1, count=n,
                         bitorder="little")
    rows, worlds = np.nonzero(bits)
    return _sums(len(events), rows, np.array([layer.atoms for layer in layers])[rows, worlds])


def _event_conditionals(layers: Sequence[_Layer], events: Sequence[Event], cutoff: float) -> tuple:
    """Each scenario's atoms summed over its event: the masses, which are
    above ``cutoff``, and those sums' values divided by their masses. One
    ``parts`` call takes a stack per event: a GPT mass is one dot per event."""
    values, masses = layers[0].rule.parts(_event_sums(layers, events),
                                          ((layer.space, k) for k, layer in enumerate(layers)))
    return (masses, *_condition(values, masses, cutoff))


def _conditionals(layers: Sequence[_Layer], events: Sequence[Event]) -> np.ndarray:
    """Each scenario's value conditioned on its event; raises :class:`ConditioningOnNull`
    for the first event with mass at most ``NULL_MASS_TOL``."""
    masses, heavy, values = _event_conditionals(layers, events, NULL_MASS_TOL)
    if not heavy.all():
        k = int(np.argmin(heavy))
        raise ConditioningOnNull(f"event {events[k].worlds()} has mass {float(masses[k])!r}")
    return values


def _conditional(layer: _Layer, e: Event) -> Any:
    """The layer's state conditioned on ``e``, checked: a block of one."""
    return layer.rule.states(_conditionals([layer], [e]), [layer.space])[0]


def _pooled(layers: Sequence[_Layer], pooled: np.ndarray, tol: float) -> tuple[list[bool], list]:
    """Whether every target of each scenario is within ``tol`` of its pooled
    value, and the pooled values as checked states, in one check."""
    if not layers:
        return [], []
    rule = layers[0].rule
    n_agents = len(layers[0].targets)
    targets = np.array([t for layer in layers for t in layer.targets])
    near = rule.distance(targets, np.repeat(pooled, n_agents, axis=0)) <= tol
    states = rule.states(pooled, [layer.space for layer in layers])
    return near.reshape(-1, n_agents).all(axis=1).tolist(), states


def _verdicts(layers: Sequence[_Layer], events: Sequence[Event], tol: float) -> list[AgreementVerdict]:
    """Compare each scenario's targets with the value conditioned on its
    common event, ``value / mass``, which each layer's state type stores
    bit for bit."""
    statuses = [VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE] * len(layers)
    states = [None] * len(layers)
    full = [s for s, c in enumerate(events) if c]
    if full:
        _, heavy, pooled = _event_conditionals([layers[s] for s in full], [events[s] for s in full], NULL_MASS_TOL)
        pooled_at = [s for s, h in zip(full, heavy.tolist()) if h]
        oks, checked = _pooled([layers[s] for s in pooled_at], pooled, tol)
        for s in full:  # null, unless pooled below
            statuses[s] = VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE
        for s, ok, state in zip(pooled_at, oks, checked):
            statuses[s] = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
            states[s] = state
    return [AgreementVerdict(status, c, layer.targets, state)
            for status, c, layer, state in zip(statuses, events, layers, states)]


def _verify(models: Sequence[KnowledgeModel], layers: Sequence[_Layer], tol: float) -> list[AgreementVerdict]:
    """Agreement events, their common knowledge, then the pooled comparisons, for a block."""
    events = _agreement_events(models, layers, tol)
    return _verdicts(layers, [common_knowledge(m, e) for m, e in zip(models, events)], tol)

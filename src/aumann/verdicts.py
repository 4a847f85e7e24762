"""Verdict types and the one agreement pipeline behind every layer's verifier.

The classical, quantum and GPT theorems are checked by one algorithm: per
agent, the cells whose conditional value is within ``tol`` of the agent's
target; the intersection of those unions of cells is the agreement event;
unless its common knowledge ``C`` is empty or has mass at most ``tol`` (the
two vacuous outcomes), every target is compared with the value conditioned
on ``C``. A layer supplies its atom stack (one atom per world), how a sum
of atoms splits into a value and a mass, the state type, the distance and
the targets (:class:`_Layer`). Every cell and event value is a sum of
atoms, taken here by one rule (:func:`_cell_values`, :func:`_event_value`)
for every layer, and cells with mass at most ``NULL_MASS_TOL`` never match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import require_finite_items
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


class _Layer(NamedTuple):
    """One measure layer as the agreement pipeline sees it, with its targets."""

    atoms: np.ndarray  # one atom per world, stacked along axis 0
    parts: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]  # value and mass of a sum of atoms, or of a stack
    state: Callable[[Any], Any]  # a value divided by its mass, as the layer's state type
    distance: Callable[[np.ndarray, Any], np.ndarray]  # distance of each entry of a stack to a target
    targets: tuple  # one per agent, in the form ``distance`` takes


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and positive (a NaN or
    infinite ``tol`` would otherwise give a vacuous verdict)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _cell_values(atoms: np.ndarray, partition: Partition) -> np.ndarray:
    """Sum of the per-world ``atoms`` over each cell, stacked in cell order.

    Each cell's sum adds its worlds in increasing order starting from zeros,
    as ``atoms[list(cell)].sum(axis=0)`` does, so the values agree bit for bit.
    """
    sums = np.zeros((len(partition),) + atoms.shape[1:], dtype=atoms.dtype)
    np.add.at(sums, partition.labels, atoms)
    return sums


def _event_value(atoms: np.ndarray, e: Event) -> np.ndarray:
    """Sum of the per-world ``atoms`` over the worlds of ``e``; zeros when it is empty."""
    if not e:
        return np.zeros(atoms.shape[1:], dtype=atoms.dtype)
    return atoms[np.fromiter(e, dtype=np.intp)].sum(axis=0)


def _cell_conditionals(layer: _Layer, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the cells with mass above ``NULL_MASS_TOL`` and their
    conditional values (value divided by mass), stacked in cell order."""
    values, masses = layer.parts(_cell_values(layer.atoms, partition))
    live = np.flatnonzero(masses > NULL_MASS_TOL)
    scale = masses[live].reshape((-1,) + (1,) * (values.ndim - 1))
    return live, values[live] / scale


def _agreement_event(model: KnowledgeModel, layer: _Layer, tol: float) -> Event:
    """Worlds whose cell, for every agent, has a conditional value within
    ``tol`` of that agent's target."""
    _check_tol(tol)
    targets = layer.targets
    if len(targets) != model.n_agents:
        raise ValueError(f"expected {model.n_agents} targets, got {len(targets)}")
    require_finite_items(targets, "target")
    acc = (1 << model.n_worlds) - 1
    for partition, target in zip(model.partitions, targets):
        live, conditionals = _cell_conditionals(layer, partition)
        masks = partition.masks
        agent_mask = 0
        for k in live[layer.distance(conditionals, target) <= tol].tolist():
            agent_mask |= masks[k]
        acc &= agent_mask
        if not acc:
            break
    return Event(acc, model.n_worlds)


def _verdict(layer: _Layer, c: Event, tol: float) -> AgreementVerdict:
    """Compare every target with the value conditioned on the common event ``c``,
    ``value / mass``, which each layer's state type stores bit for bit."""
    targets = layer.targets
    if not c:
        return AgreementVerdict(VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE, c, targets, None)
    value, mass = layer.parts(_event_value(layer.atoms, c))
    if mass <= tol:
        return AgreementVerdict(VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE, c, targets, None)
    pooled = value / mass
    state = layer.state(pooled)
    ok = bool((layer.distance(np.array(targets), pooled) <= tol).all())
    status = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return AgreementVerdict(status, c, targets, state)


def _verify(model: KnowledgeModel, layer: _Layer, tol: float) -> AgreementVerdict:
    """Agreement event, its common knowledge, then the pooled comparison."""
    c = common_knowledge(model, _agreement_event(model, layer, tol))
    return _verdict(layer, c, tol)

"""Verdict types and the one agreement pipeline behind every layer's verifier.

The classical, quantum and GPT theorems are checked by one algorithm: per
agent, the cells whose conditional value is within ``tol`` of the agent's
target; the intersection of those unions of cells is the agreement event;
unless its common knowledge ``C`` is empty or has mass at most ``tol`` (the
two vacuous outcomes), every target is compared with the value conditioned
on ``C``. A layer supplies only the four operations of :class:`_Layer`;
cells with mass at most ``NULL_MASS_TOL`` never match.
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

    cell_sums: Callable[[Partition], tuple[np.ndarray, np.ndarray]]  # values and masses of all cells
    event_sums: Callable[[Event], tuple[Any, float]]  # value and mass of one event
    state: Callable[[Any], Any]  # a value divided by its mass, as the layer's state type
    distance: Callable[[np.ndarray, Any], np.ndarray]  # distance of each entry of a stack to a target
    targets: tuple  # one per agent, in the form ``distance`` takes


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and positive (a NaN or
    infinite ``tol`` would otherwise give a vacuous verdict)."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _cell_conditionals(layer: _Layer, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the cells with mass above ``NULL_MASS_TOL`` and their
    conditional values (value divided by mass), stacked in cell order."""
    values, masses = layer.cell_sums(partition)
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
    value, mass = layer.event_sums(c)
    if mass <= tol:
        return AgreementVerdict(VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE, c, targets, None)
    pooled = value / mass
    state = layer.state(pooled)
    ok = bool((layer.distance(np.array(targets), pooled) <= tol).all())
    status = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return AgreementVerdict(status, c, targets, state)


def _verify(model: KnowledgeModel, layer: _Layer, tol: float, max_iters: int | None) -> AgreementVerdict:
    """Agreement event, its common knowledge, then the pooled comparison."""
    c = common_knowledge(model, _agreement_event(model, layer, tol), max_iters=max_iters)
    return _verdict(layer, c, tol)

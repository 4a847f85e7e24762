"""Classical probability layer: measures, conditioning, and agreement.

A measure assigns a nonnegative weight to each world (total 1). The
agreement event for targets ``q_1..q_N`` collects the worlds where every
agent's cell-conditional posterior of the hypothesis matches its target;
the verifier then checks the targets against the posterior conditioned on
the common knowledge of that event.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConditioningOnNull, require_finite
from .knowledge import Event, KnowledgeModel, Partition, common_knowledge
from .tolerances import MATCH_TOL, NULL_MASS_TOL, WEIGHT_SUM_TOL
from .verdicts import AgreementVerdict, VerdictStatus

__all__ = [
    "ProbabilityMeasure",
    "probability",
    "conditional",
    "agreement_event",
    "posterior_function",
    "verify_aumann",
]


@dataclass(frozen=True, eq=False)
class ProbabilityMeasure:
    """Nonnegative weight per world, summing to 1 within ``WEIGHT_SUM_TOL``."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        require_finite(w, "weights")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_worlds(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityMeasure":
        return cls(np.full(n, 1.0 / n))

    @cached_property
    def _w(self) -> tuple[float, ...]:
        return tuple(self.weights.tolist())

    def _check_event(self, e: Event) -> None:
        if e.n != self.n_worlds:
            raise ValueError(f"event over {e.n} worlds, measure has {self.n_worlds}")


def probability(mu: ProbabilityMeasure, e: Event) -> float:
    """Total weight of the worlds in ``e``."""
    mu._check_event(e)
    w = mu._w
    total = 0.0
    for world in e:
        total += w[world]
    return total


def conditional(mu: ProbabilityMeasure, h: Event, lam: Event, *, null_tol: float = NULL_MASS_TOL) -> float:
    """Posterior ``P(h | lam)``; raises :class:`ConditioningOnNull` when
    ``lam`` carries mass at or below ``null_tol``."""
    p_lam = probability(mu, lam)
    if p_lam <= null_tol:
        raise ConditioningOnNull(f"event {lam.worlds()} has mass {p_lam!r}")
    return probability(mu, h & lam) / p_lam


def _indicator(e: Event) -> np.ndarray:
    """0/1 per world: whether it lies in ``e``."""
    raw = np.frombuffer(e.mask.to_bytes((e.n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=e.n, bitorder="little")


def _cell_posteriors(partition: Partition, weights: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """Posterior per cell from per-world ``weights`` and ``joint`` (the weights
    inside the hypothesis, zero elsewhere); NaN marks null cells.

    ``np.bincount`` adds each cell's worlds in increasing order, starting
    from 0.0, so the sums equal a per-world loop bit for bit.
    """
    k = len(partition)
    p_cell = np.bincount(partition.labels, weights=weights, minlength=k)
    p_joint = np.bincount(partition.labels, weights=joint, minlength=k)
    return np.divide(p_joint, p_cell, out=np.full(k, np.nan), where=p_cell > NULL_MASS_TOL)


def agreement_event(
    model: KnowledgeModel,
    mu: ProbabilityMeasure,
    h: Event,
    q: Sequence[float],
    tol: float = MATCH_TOL,
) -> Event:
    """Worlds where every agent's cell posterior of ``h`` matches its target.

    Per agent, a world qualifies when its cell has positive mass and
    ``|P(h | cell) - q_i| <= tol``; worlds in null cells never qualify. The
    result intersects the per-agent sets, so it is a union of cells of each
    agent's partition.
    """
    model._check_event(h)
    mu._check_event(h)
    if len(q) != model.n_agents:
        raise ValueError(f"expected {model.n_agents} targets, got {len(q)}")
    joint = mu.weights * _indicator(h)
    acc = (1 << model.n_worlds) - 1
    for partition, q_i in zip(model.partitions, q):
        posteriors = _cell_posteriors(partition, mu.weights, joint)
        masks = partition.masks
        agent_mask = 0
        for k in np.flatnonzero(np.abs(posteriors - q_i) <= tol).tolist():
            agent_mask |= masks[k]
        acc &= agent_mask
        if not acc:
            break
    return Event(acc, model.n_worlds)


def posterior_function(model: KnowledgeModel, mu: ProbabilityMeasure, agent: int, h: Event) -> np.ndarray:
    """Per-world posterior ``P(h | Q_agent(w))``; NaN on null cells."""
    model._check_agent(agent)
    model._check_event(h)
    mu._check_event(h)
    partition = model.partitions[agent]
    return _cell_posteriors(partition, mu.weights, mu.weights * _indicator(h))[partition.labels]


def verify_aumann(
    model: KnowledgeModel,
    mu: ProbabilityMeasure,
    h: Event,
    q: Sequence[float],
    tol: float = MATCH_TOL,
    *,
    max_iters: int | None = None,
) -> AgreementVerdict:
    """Check the classical agreement theorem for targets ``q``.

    Builds the agreement event, takes its common knowledge ``C``, and, unless
    ``C`` is empty or carries mass at most ``tol`` (the two vacuous cases),
    compares every target against ``P(h | C)``.
    """
    e = agreement_event(model, mu, h, q, tol)
    c = common_knowledge(model, e, max_iters=max_iters)
    posteriors = tuple(float(x) for x in q)
    if not c:
        return AgreementVerdict(VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE, c, posteriors, None)
    p_c = probability(mu, c)
    if p_c <= tol:
        return AgreementVerdict(VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE, c, posteriors, None)
    pooled = probability(mu, h & c) / p_c
    ok = all(abs(q_i - pooled) <= tol for q_i in posteriors)
    status = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return AgreementVerdict(status, c, posteriors, pooled)

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

from . import _EXPORTS
from .errors import ConditioningOnNull, as_number, require_finite, require_worlds
from .knowledge import Event, KnowledgeModel
from .tolerances import MATCH_TOL, NULL_MASS_TOL, WEIGHT_SUM_TOL
from .verdicts import AgreementVerdict, _agreement_event, _cell_conditionals, _Layer, _verify

__all__ = _EXPORTS["classical"]


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


def probability(mu: ProbabilityMeasure, e: Event) -> float:
    """Total weight of the worlds in ``e``."""
    require_worlds("event", e.n, "measure", mu.n_worlds)
    w = mu._w
    total = 0.0
    for world in e:
        total += w[world]
    return total


def conditional(mu: ProbabilityMeasure, h: Event, lam: Event) -> float:
    """Posterior ``P(h | lam)``; raises :class:`ConditioningOnNull` when
    ``lam`` carries mass at or below ``NULL_MASS_TOL``."""
    p_lam = probability(mu, lam)
    if p_lam <= NULL_MASS_TOL:
        raise ConditioningOnNull(f"event {lam.worlds()} has mass {p_lam!r}")
    return probability(mu, h & lam) / p_lam


def _indicator(e: Event) -> np.ndarray:
    """0/1 per world: whether it lies in ``e``."""
    raw = np.frombuffer(e.mask.to_bytes((e.n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=e.n, bitorder="little")


def _classical_layer(model: KnowledgeModel, mu: ProbabilityMeasure, h: Event, q: Sequence[float] = ()) -> _Layer:
    """The posterior of ``h`` under ``mu``, for the agreement pipeline.

    Each world's atom is the pair (its weight if it lies in ``h``, else 0;
    its weight), so the sum of atoms over an event ``e`` is the pair
    ``(P(h & e), P(e))``: value and mass. Sums add worlds in increasing
    order starting from 0.0, as :func:`probability` does, so they equal it
    bit for bit.
    """
    require_worlds("measure", mu.n_worlds, "model", model.n_worlds)
    require_worlds("event", h.n, "model", model.n_worlds)
    atoms = np.stack([mu.weights * _indicator(h), mu.weights], axis=1)

    def distance(xs: np.ndarray, target: float) -> np.ndarray:
        return np.abs(xs - target)

    targets = tuple(as_number(i, x) for i, x in enumerate(q))
    return _Layer(atoms, lambda x: (x[..., 0], x[..., 1]), float, distance, targets)


def agreement_event(
    model: KnowledgeModel, mu: ProbabilityMeasure, h: Event, q: Sequence[float], tol: float = MATCH_TOL
) -> Event:
    """Worlds where every agent's cell posterior of ``h`` matches its target.

    Per agent, a world qualifies when its cell has positive mass and
    ``|P(h | cell) - q_i| <= tol``; worlds in null cells never qualify. The
    result intersects the per-agent sets, so it is a union of cells of each
    agent's partition.
    """
    return _agreement_event(model, _classical_layer(model, mu, h, q), tol)


def posterior_function(model: KnowledgeModel, mu: ProbabilityMeasure, agent: int, h: Event) -> np.ndarray:
    """Per-world posterior ``P(h | Q_agent(w))``; NaN on null cells."""
    model._check_agent(agent)
    partition = model.partitions[agent]
    live, posteriors = _cell_conditionals(_classical_layer(model, mu, h), partition)
    per_cell = np.full(len(partition), np.nan)
    per_cell[live] = posteriors
    return per_cell[partition.labels]


def verify_aumann(
    model: KnowledgeModel, mu: ProbabilityMeasure, h: Event, q: Sequence[float], tol: float = MATCH_TOL
) -> AgreementVerdict:
    """Check the classical agreement theorem for targets ``q``.

    Builds the agreement event, takes its common knowledge ``C``, and, unless
    ``C`` is empty or carries mass at most ``tol`` (the two vacuous cases),
    compares every target against ``P(h | C)``.
    """
    return _verify(model, _classical_layer(model, mu, h, q), tol)

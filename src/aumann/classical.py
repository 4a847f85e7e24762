"""Classical probability layer: measures, conditioning, and agreement.

A measure assigns a nonnegative weight to each world (total 1). The
agreement event for targets ``q_1..q_N`` collects the worlds where every
agent's cell-conditional posterior of the hypothesis matches its target;
the verifier then checks the targets against the posterior conditioned on
the common knowledge of that event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .errors import as_number, require_finite, require_worlds
from .knowledge import Event, KnowledgeModel
from .tolerances import MATCH_TOL, WEIGHT_SUM_TOL
from .verdicts import (AgreementVerdict, _agreement_events, _Block, _cell_conditionals, _conditional, _event_sums,
                       _mask_rows, _Measures, _model_block, _Rule, _verify)

__all__ = _EXPORTS["classical"]


@dataclass(frozen=True, eq=False)
class ProbabilityMeasure:
    """Nonnegative weight per world, summing to 1 within ``WEIGHT_SUM_TOL``."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        object.__setattr__(self, "weights", self._check(w[None])[0])

    @staticmethod
    def _check(weights) -> np.ndarray:
        """The measure check on a ``(b, n)`` stack of weights: finite,
        nonnegative, each row summing to 1. Returns a read-only copy."""
        w = np.array(weights, dtype=float)
        require_finite(w, "weights")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum(axis=1)
        bad = np.abs(total - 1.0) > WEIGHT_SUM_TOL
        if bad.any():
            raise ValueError(f"weights sum to {float(total[np.argmax(bad)])!r}, expected 1")
        w.flags.writeable = False
        return w

    @property
    def n_worlds(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityMeasure":
        return cls(np.full(n, 1.0 / n))


def probability(mu: ProbabilityMeasure, e: Event) -> float:
    """Total weight of the worlds in ``e``, added in increasing order from 0.0."""
    require_worlds("event", e.n, "measure", mu.n_worlds)
    return float(_event_sums(mu.weights[None, :, None], _mask_rows([e.mask], e.n))[0, 0])


def conditional(mu: ProbabilityMeasure, h: Event, lam: Event) -> float:
    """Posterior ``P(h | lam)``; raises :class:`ConditioningOnNull` when
    ``lam`` carries mass at or below ``NULL_MASS_TOL``."""
    require_worlds("event", lam.n, "measure", mu.n_worlds)
    require_worlds("event", h.n, "measure", mu.n_worlds)
    return _conditional(_measure(mu, h), lam)


# Values are posteriors, masses probabilities; a state is a float, which has no check.
_RULE = _Rule(lambda x, spaces, owners: (x[..., 0], x[..., 1]), lambda xs, ys: np.abs(xs - ys), lambda v, spaces: v,
              lambda v, spaces: v.tolist())


def _measures(weights: np.ndarray, hypotheses: np.ndarray) -> _Measures:
    """The posteriors of hypotheses as a stack of measures, one per row of
    ``weights`` and of ``hypotheses`` (``(b, n)``, boolean): each world's
    atom is the pair (its weight if it lies in the hypothesis, else 0; its
    weight), so the sum over an event ``e`` is ``(P(h & e), P(e))``: value
    and mass."""
    atoms = np.empty(weights.shape + (2,))
    np.multiply(weights, hypotheses, out=atoms[..., 0])
    atoms[..., 1] = weights
    return _Measures(atoms, _RULE, [None] * len(atoms))


def _measure(mu: ProbabilityMeasure, h: Event) -> _Measures:
    """The posterior of ``h`` under ``mu``, as a stack of one."""
    return _measures(mu.weights[None], _mask_rows([h.mask], h.n))


def _classical_block(model: KnowledgeModel, mu: ProbabilityMeasure, h: Event, q: Sequence[float] = ()) -> _Block:
    """The posterior of ``h`` under ``mu`` with targets ``q``, as a block of one."""
    require_worlds("measure", mu.n_worlds, "model", model.n_worlds)
    require_worlds("event", h.n, "model", model.n_worlds)
    return _model_block(model, _measure(mu, h), np.array([as_number(i, x) for i, x in enumerate(q)], dtype=float))


def agreement_event(
    model: KnowledgeModel, mu: ProbabilityMeasure, h: Event, q: Sequence[float], tol: float = MATCH_TOL
) -> Event:
    """Worlds where every agent's cell posterior of ``h`` matches its target.

    Per agent, a world qualifies when its cell has positive mass and
    ``|P(h | cell) - q_i| <= tol``; worlds in null cells never qualify. The
    result intersects the per-agent sets, so it is a union of cells of each
    agent's partition.
    """
    return Event(_agreement_events(_classical_block(model, mu, h, q), tol)[0], model.n_worlds)


def posterior_function(model: KnowledgeModel, mu: ProbabilityMeasure, agent: int, h: Event) -> np.ndarray:
    """Per-world posterior ``P(h | Q_agent(w))``; NaN on null cells."""
    model._check_agent(agent)
    partition = model.partitions[agent]
    live, posteriors = _cell_conditionals(_classical_block(KnowledgeModel(model.n_worlds, (partition,)), mu, h))
    per_cell = np.full(len(partition), np.nan)
    per_cell[live] = posteriors
    return per_cell[partition.labels]


def verify_aumann(
    model: KnowledgeModel, mu: ProbabilityMeasure, h: Event, q: Sequence[float], tol: float = MATCH_TOL
) -> AgreementVerdict:
    """Check the classical agreement theorem for targets ``q``.

    Builds the agreement event, takes its common knowledge ``C``, and, unless
    ``C`` is empty or carries mass at most ``NULL_MASS_TOL`` (the two vacuous cases),
    compares every target against ``P(h | C)``.
    """
    return _verify(_classical_block(model, mu, h, q), tol)[0]

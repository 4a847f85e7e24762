"""Seeded random generators for models, measures, and full scenarios.

All generators are pure functions of a 64-bit seed (plus parameters) and use
numpy's Philox bit generator, a counter-based splittable PRNG, keyed directly
by the seed. That keeps golden values portable: the same seed always yields
bit-identical objects.

The planted constructions guarantee non-vacuous theorem instances by giving
every agent one shared cell and deriving the targets from it; unconstrained
scenarios exercise the vacuous paths and hunt for (theorem-forbidden)
violations. Each family draws its model and picks its targets; the layer's
measure, hypothesis, conditionals and loose targets come from one shared draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .classical import ProbabilityMeasure, conditional
from .gpt import (
    ConeSpace,
    GptState,
    PolyhedralCone,
    PsdCone,
    SimplexCone,
    Svm,
    embed_quantum,
    gpt_conditional_state,
)
from .knowledge import Event, KnowledgeModel, Partition
from .quantum import (
    DensityOperator,
    Dovm,
    Povm,
    _sandwich,
    conditional_state,
    povm_to_dovm,
    psd_sqrt_pinv,
)

__all__ = _EXPORTS["generators"]

LAYERS = ("classical", "quantum", "gpt")

_MAX_SEED = 1 << 64
# Every generated weight is at least this over the world count, which keeps
# planted cells comfortably above the vacuity cutoff, so plant soundness is
# deterministic rather than almost-sure.
_WEIGHT_FLOOR = 1e-3


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class ScenarioBundle:
    """A generated scenario: model, measure, and layer-appropriate targets.

    ``planted_cell`` is the cell shared by all agents in planted scenarios;
    ``anchor_world`` is the world whose cell conditionals seeded the targets
    in anchored unconstrained scenarios. Both are ``None`` otherwise.
    """

    layer: str
    model: KnowledgeModel
    measure: ProbabilityMeasure | Dovm | Svm
    hypothesis: Event | None
    targets: tuple
    planted_cell: Event | None = None
    anchor_world: int | None = None


def _cell_labels(rng: np.random.Generator, n: int, max_cells: int) -> np.ndarray:
    """Cell number in ``0..k-1`` for each of ``n`` items, ``k`` drawn from
    ``1..max_cells``; a random permutation gives every number one item first."""
    k = int(rng.integers(1, max_cells + 1))
    order = rng.permutation(n)
    labels = np.empty(n, dtype=np.intp)
    labels[order[:k]] = np.arange(k)
    if n > k:
        labels[order[k:]] = rng.integers(0, k, size=n - k)
    return labels


def gen_partition(seed, n_worlds: int, max_cells: int) -> Partition:
    """Random partition of ``n_worlds`` worlds into at most ``max_cells`` cells."""
    if not 1 <= max_cells <= n_worlds:
        raise ValueError(f"max_cells must be in 1..{n_worlds}, got {max_cells}")
    rng = _rng(seed)
    return Partition.from_labels(_cell_labels(rng, n_worlds, max_cells), n_worlds)


def gen_model(seed, n_worlds: int, n_agents: int, max_cells: int | None = None) -> KnowledgeModel:
    """Random knowledge model with independent per-agent partitions."""
    rng = _rng(seed)
    max_cells = n_worlds if max_cells is None else max_cells
    partitions = tuple(
        Partition.from_labels(_cell_labels(rng, n_worlds, max_cells), n_worlds) for _ in range(n_agents)
    )
    return KnowledgeModel(n_worlds, partitions)


def gen_probability(seed, n_worlds: int) -> ProbabilityMeasure:
    """Random measure with every weight at least ``_WEIGHT_FLOOR / n_worlds``."""
    rng = _rng(seed)
    raw = rng.dirichlet(np.ones(n_worlds))
    weights = (1.0 - _WEIGHT_FLOOR) * raw + _WEIGHT_FLOOR / n_worlds
    return ProbabilityMeasure(weights / weights.sum())


def _ginibre_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def gen_density(seed, dim: int) -> DensityOperator:
    """Trace-normalized Ginibre matrix: full rank with probability 1."""
    if dim < 1:
        raise ValueError("dim must be positive")
    rng = _rng(seed)
    m = _ginibre_psd(rng, dim)
    return DensityOperator(m / m.trace().real)


def gen_povm(seed, n_worlds: int, dim: int) -> Povm:
    """Random POVM: Ginibre PSD atoms conjugated by the inverse root of their sum."""
    if dim < 1 or n_worlds < 1:
        raise ValueError("dim and n_worlds must be positive")
    rng = _rng(seed)
    atoms = np.stack([_ginibre_psd(rng, dim) for _ in range(n_worlds)])
    inv_root, _ = psd_sqrt_pinv(atoms.sum(axis=0))
    return Povm(_sandwich(inv_root, atoms))


def gen_dovm(seed, n_worlds: int, dim: int) -> Dovm:
    """Random DOVM over ``n_worlds`` worlds: a random POVM sandwiched by a
    random density operator's square root."""
    rng = _rng(seed)
    povm = gen_povm(rng, n_worlds, dim)
    sigma = gen_density(rng, dim)
    return povm_to_dovm(povm, sigma)


def gen_polyhedral_cone(seed, dim: int, n_generators: int) -> PolyhedralCone:
    """Random pointed cone: generators ``(1, x)`` with unit ``(1, 0, ..., 0)``."""
    if dim < 2:
        raise ValueError("polyhedral cones need ambient dimension at least 2")
    rng = _rng(seed)
    tails = rng.standard_normal((n_generators, dim - 1))
    generators = np.hstack([np.ones((n_generators, 1)), tails])
    unit = np.zeros(dim)
    unit[0] = 1.0
    return PolyhedralCone(generators, unit)


def gen_svm(seed, cone: ConeSpace, n_worlds: int) -> Svm:
    """Random SVM over ``cone`` with strictly positive per-world unit mass."""
    rng = _rng(seed)
    if isinstance(cone, SimplexCone):
        atoms = rng.uniform(0.1, 1.0, size=(n_worlds, cone.dim))
    elif isinstance(cone, PsdCone):
        return embed_quantum(gen_dovm(rng, n_worlds, cone.matrix_dim))
    elif isinstance(cone, PolyhedralCone):
        weights = rng.uniform(0.1, 1.0, size=(n_worlds, cone.generators.shape[0]))
        atoms = weights @ cone.generators
    else:
        raise TypeError(f"unsupported cone kind {cone.kind!r}")
    total_u = float(cone.unit @ atoms.sum(axis=0))
    return Svm(cone, atoms / total_u)


def _planted_model(rng: np.random.Generator, n_worlds: int, n_agents: int) -> tuple[KnowledgeModel, Event]:
    size = int(rng.integers(1, n_worlds))
    perm = rng.permutation(n_worlds)
    rest = np.sort(perm[size:])
    partitions = []
    for _ in range(n_agents):
        labels = np.zeros(n_worlds, dtype=np.intp)  # cell 0 is the shared cell
        labels[rest] = _cell_labels(rng, rest.size, rest.size) + 1
        partitions.append(Partition.from_labels(labels, n_worlds))
    return KnowledgeModel(n_worlds, tuple(partitions)), Event(partitions[0].masks[0], n_worlds)


def _make_cone(rng: np.random.Generator, cone_kind: str, dim: int, n_generators: int | None) -> ConeSpace:
    if cone_kind == "simplex":
        return SimplexCone(dim)
    if cone_kind == "psd":
        return PsdCone(dim)
    if cone_kind == "polyhedral":
        return gen_polyhedral_cone(rng, dim, n_generators or 2 * dim)
    raise ValueError(f"unknown cone kind {cone_kind!r}")


def _draw_layer(rng: np.random.Generator, layer: str, n_worlds: int, dim: int, cone_kind: str,
                n_generators: int | None) -> tuple:
    """The layer's measure, its hypothesis (``None`` outside classical), its
    conditional on an event, and a function that draws ``n`` loose targets."""
    if layer == "classical":
        if n_worlds > 63:  # the hypothesis is drawn as one int64 below 1 << n_worlds
            raise ValueError(f"classical scenarios have at most 63 worlds, got {n_worlds}")
        mu = gen_probability(rng, n_worlds)
        h = Event(int(rng.integers(0, 1 << n_worlds)), n_worlds)
        return mu, h, lambda e: conditional(mu, h, e), lambda n: tuple(float(x) for x in rng.random(n))
    if layer == "quantum":
        rho = gen_dovm(rng, n_worlds, dim)
        return rho, None, lambda e: conditional_state(rho, e), lambda n: tuple(
            gen_density(rng, dim) for _ in range(n)
        )
    if layer == "gpt":
        cone = _make_cone(rng, cone_kind, dim, n_generators)
        svm = gen_svm(rng, cone, n_worlds)
        return svm, None, lambda e: gpt_conditional_state(svm, e), lambda n: tuple(
            GptState(cone, gen_svm(rng, cone, 1).atoms[0]) for _ in range(n)
        )
    raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")


def gen_planted_scenario(
    seed,
    layer: str,
    n_worlds: int,
    n_agents: int,
    dim: int = 2,
    cone_kind: str = "simplex",
    n_generators: int | None = None,
) -> ScenarioBundle:
    """Scenario with a cell shared by every agent and targets conditioned on it.

    The shared cell is a meet cell contained in the agreement event, so the
    common knowledge of the event contains it and carries positive mass: the
    verdict is non-vacuous by construction (and must hold, by the theorems).
    """
    if n_worlds < 2:
        raise ValueError("planted scenarios need at least 2 worlds")
    rng = _rng(seed)
    model, shared = _planted_model(rng, n_worlds, n_agents)
    measure, hypothesis, condition, _ = _draw_layer(rng, layer, n_worlds, dim, cone_kind, n_generators)
    return ScenarioBundle(layer, model, measure, hypothesis, (condition(shared),) * n_agents, planted_cell=shared)


def gen_unconstrained_scenario(
    seed,
    layer: str,
    n_worlds: int,
    n_agents: int,
    dim: int = 2,
    cone_kind: str = "simplex",
    n_generators: int | None = None,
) -> ScenarioBundle:
    """Scenario with independent partitions and loosely chosen targets.

    Half the time the targets are anchored at a random world (each agent's
    target is its own cell conditional there), which keeps the agreement
    event non-empty; otherwise targets are arbitrary, which usually makes
    the verdict vacuous.
    """
    rng = _rng(seed)
    model = gen_model(rng, n_worlds, n_agents)
    anchored = bool(rng.integers(0, 2))
    anchor = int(rng.integers(0, n_worlds)) if anchored else None
    measure, hypothesis, condition, loose = _draw_layer(rng, layer, n_worlds, dim, cone_kind, n_generators)
    if anchored:
        targets = tuple(condition(p.cell_of(anchor)) for p in model.partitions)
    else:
        targets = loose(n_agents)
    return ScenarioBundle(layer, model, measure, hypothesis, targets, anchor_world=anchor)

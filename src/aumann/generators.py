"""Seeded random generators for models, measures, and full scenarios.

All generators are pure functions of a 64-bit seed (plus parameters) and use
numpy's Philox bit generator, a counter-based splittable PRNG, keyed directly
by the seed: a seed draws the stream of ``Philox(key=seed)``, key
``[seed, 0]`` from counter 0. Every stream is keyed in one place,
``_stream``, which resets a Philox's state to the seed's key, since a
Philox stream is a function of its key and counter alone: a block builds
one Philox and rekeys it before each seed draws, and a public single-seed
generator rekeys a new one (``_rng``). No key goes through the OS-entropy
``SeedSequence`` that ``key=`` builds and discards. That keeps golden
values portable: the same seed always yields bit-identical objects. A
``np.random.Generator`` passed as a seed is drawn from as it is.
``numpy.random`` is touched only inside calls, so importing this module
does not load it: without bytecode caches, loading it at import raised a
search's peak RSS by 0.3-0.4 MB (``BENCH_block_sizing.json``).

The planted constructions guarantee non-vacuous theorem instances by giving
every agent one shared cell and deriving the targets from it; unconstrained
scenarios exercise the vacuous paths and hunt for (theorem-forbidden)
violations.

Scenarios are drawn per seed and built per block. Each seed draws, from its
own stream, its model as label rows, one per agent, and its family (the
planted cell, which every agent labels 0, or the anchor coin and world),
then the layer's raw numbers: the weights and hypothesis, the Ginibre
normals or the uniforms of its measure, and its loose targets. A block of
seeds (one seed for ``gen_planted_scenario`` and the like) is then built
and checked as one ``verdicts._Block`` of stacks, with no per-seed object:
one checked call numbers every cell of its label stack and builds the
masks (``knowledge._cell_stack``), and the layer's arithmetic and every
check run once, on stacks shaped ``(seeds, worlds, d, d)``: the classical
weights and their ``ProbabilityMeasure`` check, the Ginibre products, the
eigensolves, the sandwiches and each measure class's ``_check``. The
planted and anchored targets are conditioned as one block too, from
boolean event rows taken from the labels, by the one conditioning rule of
``verdicts``, and every target of the block is checked as a state in one
call. A gpt-polyhedral seed draws its own cone's generators; the block
builds all its seeds' cones as one stack (``gpt._polyhedral_cones``), and
its measure and state checks name each row's cone by an owner index.

A search's blocks are sized by their stacks (``_block_seeds``): a block
holds as many seeds as keep its cell-sum rows, agents x worlds x real
entries per atom for each seed, within ``BLOCK_ENTRIES``, and never fewer
than ``BLOCK_SEEDS``. Small shapes (6 worlds, 2 agents: 170 quantum seeds,
455 gpt-polyhedral dim 3) pay numpy's per-call cost over more seeds; at 48
worlds and 6 agents, and past it, a block keeps 32 seeds and its memory.
Each seed draws from its own stream, so its bits do not depend on its block.

A search verifies that block as it is. :class:`ScenarioBundle` objects are
built from it (by iterating it) only for ``gen``, ``run_gen`` and the public
``gen_*`` functions; ``gen_model`` and ``gen_partition`` are blocks of one
of ``knowledge._partitions``. The bundles are bit for bit those of
building each seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import _EXPORTS
from . import classical, gpt, quantum
from .classical import ProbabilityMeasure
from .gpt import ConeSpace, PolyhedralCone, PsdCone, SimplexCone, Svm, _polyhedral_cones, _unit_values, _vectorize_rows
from .knowledge import Event, KnowledgeModel, Partition, _built, _cell_stack, _partitions
from .quantum import DensityOperator, Dovm, Povm, _instances, _sandwich, psd_sqrt, psd_sqrt_pinv
from .verdicts import _Block, _conditionals, _mask_rows, _Measures

__all__ = _EXPORTS["generators"]

LAYERS = ("classical", "quantum", "gpt")
# A search block's seeds (``_block_seeds``): as many as keep its largest
# stack within BLOCK_ENTRIES entries, which trades numpy's per-call cost
# against the memory a process holds at once, and never fewer than BLOCK_SEEDS.
BLOCK_SEEDS = 32
BLOCK_ENTRIES = 1 << 14

_MAX_SEED = 1 << 64
# Every generated weight is at least this over the world count, which keeps
# planted cells comfortably above the null-mass cutoff, so plant soundness is
# deterministic rather than almost-sure.
_WEIGHT_FLOOR = 1e-3


def _check_seeds(first: int, count: int) -> None:
    """Raise ``ValueError`` naming the first of the ``count`` seeds from
    ``first`` (``first`` itself if ``count`` is 0) that is not a 64-bit
    unsigned integer."""
    for seed in (first, min(first + max(count, 1) - 1, _MAX_SEED)):
        if not 0 <= seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _rng(seed) -> np.random.Generator:
    """The stream of one seed (``_stream``), for the public single-seed
    generators, on a new Philox."""
    return _stream(seed, np.random.Generator(np.random.Philox(0)))


def _stream(seed, rng: np.random.Generator) -> np.random.Generator:
    """The stream ``seed`` draws from. A ``Generator`` is its own stream.
    An integer seed is checked to be a 64-bit unsigned integer and resets
    ``rng``'s Philox to the state ``Philox(key=seed)`` starts in: key
    ``[seed, 0]``, counter 0, an empty buffer and no buffered 32-bit word.
    A Philox stream is a function of its key and counter alone (Salmon et
    al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), and a
    numpy ``Generator`` holds no state of its own, so ``rng`` then draws
    ``Generator(Philox(key=seed))``'s numbers bit for bit, whatever it drew
    before."""
    if isinstance(seed, np.random.Generator):
        return seed
    seed = int(seed)
    _check_seeds(seed, 1)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffer's length: nothing buffered
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
    order = np.arange(n)
    rng.shuffle(order)  # what ``rng.permutation(n)`` does, without its dispatch
    labels = np.empty(n, dtype=np.intp)
    labels[order[:k]] = np.arange(k)
    if n > k:
        labels[order[k:]] = rng.integers(0, k, size=n - k)
    return labels


def gen_partition(seed, n_worlds: int, max_cells: int) -> Partition:
    """Random partition of ``n_worlds`` worlds into at most ``max_cells`` cells."""
    if not 1 <= max_cells <= n_worlds:
        raise ValueError(f"max_cells must be in 1..{n_worlds}, got {max_cells}")
    return Partition.from_labels(_cell_labels(_rng(seed), n_worlds, max_cells), n_worlds)


def _model_labels(rng: np.random.Generator, n_worlds: int, n_agents: int, max_cells: int) -> np.ndarray:
    """Label rows ``(agents, worlds)`` of a model with independent per-agent partitions."""
    return np.array([_cell_labels(rng, n_worlds, max_cells) for _ in range(n_agents)], dtype=np.intp)


def _models(n_worlds: int, labels: Sequence[np.ndarray]) -> list[KnowledgeModel]:
    """The knowledge models of a block's label rows, ``(agents, worlds)`` per
    model, with every partition built in one checked call."""
    n_agents = len(labels[0])
    partitions = _partitions(np.concatenate(labels), n_worlds)
    return [KnowledgeModel(n_worlds, tuple(partitions[k:k + n_agents])) for k in range(0, len(partitions), n_agents)]


def gen_model(seed, n_worlds: int, n_agents: int, max_cells: int | None = None) -> KnowledgeModel:
    """Random knowledge model with independent per-agent partitions."""
    max_cells = n_worlds if max_cells is None else max_cells
    return _models(n_worlds, [_model_labels(_rng(seed), n_worlds, n_agents, max_cells)])[0]


def gen_probability(seed, n_worlds: int) -> ProbabilityMeasure:
    """Random measure with every weight at least ``_WEIGHT_FLOOR / n_worlds``."""
    return _instances(ProbabilityMeasure, _probabilities(_rng(seed).dirichlet(np.ones(n_worlds))[None]))[0]


def _probabilities(raw: np.ndarray) -> np.ndarray:
    """Checked weights of a ``(b, n)`` stack of Dirichlet draws, each
    floored at ``_WEIGHT_FLOOR / n`` and scaled to unit total."""
    weights = (1.0 - _WEIGHT_FLOOR) * raw + _WEIGHT_FLOOR / raw.shape[1]
    return ProbabilityMeasure._check(weights / weights.sum(axis=1)[:, None])


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """Ginibre PSD matrices ``g @ g^dagger``, ``g = re + i im``, from
    ``(..., 2, d, d)`` normals holding ``re`` then ``im``."""
    g = normals[..., 0, :, :] + 1.0j * normals[..., 1, :, :]
    return g @ g.conj().swapaxes(-1, -2)


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """Each matrix of a ``(..., d, d)`` stack divided by its trace."""
    return m / m.trace(axis1=-2, axis2=-1).real[..., None, None]


def _povm_effects(atoms: np.ndarray) -> np.ndarray:
    """Checked effects of a ``(b, n, d, d)`` block of PSD atom stacks, each
    stack conjugated by the inverse root of its sum."""
    inv_root, _ = psd_sqrt_pinv(atoms.sum(axis=1))
    return Povm._check(_sandwich(inv_root, atoms))


def _dovm_atoms(normals: np.ndarray) -> np.ndarray:
    """Checked atoms ``(b, n, d, d)`` of ``b`` random DOVMs from their
    ``(b, n + 1, 2, d, d)`` normals: the POVM of the first ``n`` Ginibre
    matrices sandwiched by the square root of the state of the last."""
    psd = _ginibre(normals)
    effects = _povm_effects(psd[:, :-1])
    sigma = DensityOperator._check(_unit_trace(psd[:, -1]))
    return Dovm._check(_sandwich(psd_sqrt(sigma), effects))


def _dovm_normals(rng: np.random.Generator, n_worlds: int, dim: int) -> np.ndarray:
    """A DOVM's draws: each atom's Ginibre normals, then its state's."""
    if dim < 1 or n_worlds < 1:
        raise ValueError("dim and n_worlds must be positive")
    return rng.standard_normal((n_worlds + 1, 2, dim, dim))


def gen_density(seed, dim: int) -> DensityOperator:
    """Trace-normalized Ginibre matrix: full rank with probability 1."""
    if dim < 1:
        raise ValueError("dim must be positive")
    normals = _rng(seed).standard_normal((1, 2, dim, dim))
    return _instances(DensityOperator, DensityOperator._check(_unit_trace(_ginibre(normals))))[0]


def gen_povm(seed, n_worlds: int, dim: int) -> Povm:
    """Random POVM: Ginibre PSD atoms conjugated by the inverse root of their sum."""
    if dim < 1 or n_worlds < 1:
        raise ValueError("dim and n_worlds must be positive")
    normals = _rng(seed).standard_normal((1, n_worlds, 2, dim, dim))
    return _instances(Povm, _povm_effects(_ginibre(normals)))[0]


def gen_dovm(seed, n_worlds: int, dim: int) -> Dovm:
    """Random DOVM over ``n_worlds`` worlds: a random POVM sandwiched by a
    random density operator's square root."""
    return _instances(Dovm, _dovm_atoms(_dovm_normals(_rng(seed), n_worlds, dim)[None]))[0]


def gen_polyhedral_cone(seed, dim: int, n_generators: int) -> PolyhedralCone:
    """Random pointed cone: generators ``(1, x)`` with unit ``(1, 0, ..., 0)``."""
    if dim < 2:
        raise ValueError("polyhedral cones need ambient dimension at least 2")
    tails = _rng(seed).standard_normal((n_generators, dim - 1))
    return PolyhedralCone(_polyhedral_generators(tails), np.eye(dim)[0])


def _polyhedral_generators(tails: np.ndarray) -> np.ndarray:
    """The generators ``(1, x)`` of random polyhedral cones from the drawn
    ``x``, along the last axis of ``tails``."""
    return np.concatenate([np.ones(tails.shape[:-1] + (1,)), tails], axis=-1)


def gen_svm(seed, cone: ConeSpace, n_worlds: int) -> Svm:
    """Random SVM over ``cone`` with strictly positive per-world unit mass."""
    return _instances(Svm, _svm_atoms([cone], _svm_draws(_rng(seed), cone, n_worlds)[None]), [cone])[0]


def _weights(rng: np.random.Generator, n_worlds: int, width: int) -> np.ndarray:
    """A random SVM's uniform weights, ``width`` per world: of the
    coordinates of a simplex cone or of a polyhedral cone's generators."""
    return rng.uniform(0.1, 1.0, size=(n_worlds, width))


def _svm_draws(rng: np.random.Generator, cone: ConeSpace, n_worlds: int) -> np.ndarray:
    """A random SVM's draws: a DOVM's normals on the PSD cone, else uniform
    weights per world, of the coordinates or of the generators."""
    if isinstance(cone, PsdCone):
        return _dovm_normals(rng, n_worlds, cone.matrix_dim)
    if isinstance(cone, SimplexCone):
        return _weights(rng, n_worlds, cone.dim)
    if isinstance(cone, PolyhedralCone):
        return _weights(rng, n_worlds, cone.generators.shape[0])
    raise TypeError(f"unsupported cone kind {cone.kind!r}")


def _svm_atoms(cones: Sequence[ConeSpace], draws: np.ndarray) -> np.ndarray:
    """Checked atoms ``(b, n, dim)`` of ``b`` random SVMs, SVM ``k`` over
    ``cones[k]``, from their stacked draws: a vectorized DOVM on the PSD
    cone; else the weights (times the generators of a polyhedral cone, one
    product per SVM), scaled to unit total by ``gpt._unit_values``, as a
    single SVM is."""
    if isinstance(cones[0], PsdCone):
        return Svm._check(cones, _vectorize_rows(_dovm_atoms(draws)))
    if isinstance(cones[0], PolyhedralCone):
        draws = draws @ np.stack([c.generators for c in cones])
    return Svm._check(cones, draws / _unit_values(cones, draws.sum(axis=1), np.arange(len(draws)))[:, None, None])


def _planted_labels(rng: np.random.Generator, n_worlds: int, n_agents: int) -> np.ndarray:
    """Label rows ``(agents, worlds)`` of a planted model: every agent's cell
    0 is the same shared cell, and the other worlds are split per agent."""
    size = int(rng.integers(1, n_worlds))
    perm = np.arange(n_worlds)
    rng.shuffle(perm)
    rest = np.sort(perm[size:])
    labels = np.zeros((n_agents, n_worlds), dtype=np.intp)
    for row in labels:
        row[rest] = _cell_labels(rng, rest.size, rest.size) + 1
    return labels


class _Draw(NamedTuple):
    """What one seed drew, in its order: its model's label rows ``(agents,
    worlds)`` and its family (planted, or the anchor world if anchored),
    then the layer's cone (GPT: the search's, or the drawn tails ``x`` of the
    generators ``(1, x)`` of the seed's own polyhedral cone), measure draws
    and hypothesis mask (classical), and the draws of its loose targets, a
    row per target (none unless the seed is free)."""

    labels: np.ndarray
    planted: bool
    anchor: int | None
    cone: ConeSpace | np.ndarray | None
    measure: np.ndarray
    hypothesis: int | None
    loose: np.ndarray


def _draw(seed: int, planted: bool, layer: str, n_worlds: int, n_agents: int, dim: int,
          cone: ConeSpace | None, n_generators: int | None, rng: np.random.Generator) -> _Draw:
    """Everything ``seed`` draws, from its own stream: ``_stream`` rekeys
    the block's ``rng`` to it. A GPT seed without a ``cone`` draws its own
    polyhedral one, which its block builds."""
    rng = _stream(seed, rng)
    anchor = hypothesis = None
    if planted:
        labels = _planted_labels(rng, n_worlds, n_agents)
    else:
        labels = _model_labels(rng, n_worlds, n_agents, n_worlds)
        if rng.integers(0, 2):
            anchor = int(rng.integers(0, n_worlds))
    n_loose = n_agents if not planted and anchor is None else 0
    # the loose targets are drawn last, in one call: a fill draws its entries
    # in order, so they are the entries of one call per target
    if layer == "classical":
        measure = rng.dirichlet(np.ones(n_worlds))
        hypothesis = int(rng.integers(0, 1 << n_worlds))
        loose = rng.random(n_loose)
    elif layer == "quantum":
        measure = _dovm_normals(rng, n_worlds, dim)
        loose = rng.standard_normal((n_loose, 2, dim, dim))
    elif isinstance(cone, PsdCone):
        measure = _svm_draws(rng, cone, n_worlds)
        loose = rng.standard_normal((n_loose, 2, 2, dim, dim))  # one-world DOVMs' normals
    else:
        if cone is None:
            cone = rng.standard_normal((n_generators or 2 * dim, dim - 1))
            measure = _weights(rng, n_worlds, len(cone))
        else:
            measure = _svm_draws(rng, cone, n_worlds)
        loose = _weights(rng, n_loose, measure.shape[1])[:, None]  # one-world SVMs' weights
    return _Draw(labels, planted, anchor, cone, measure, hypothesis, loose)


def _targets(draws: Sequence[_Draw], labels: np.ndarray, measures: _Measures, loose: np.ndarray) -> np.ndarray:
    """The target stack ``(seeds, agents, ...)`` of a block of draws, its
    label stack and measures. A planted seed's agents share the value
    conditioned on its planted cell (agent 0's cell 0), an anchored seed's
    agents each get the value conditioned on their cell at the anchor, all
    in one ``_conditionals`` call on boolean event rows taken from the
    labels, and a free seed's agents take the next of the block's ``loose``
    values. The layer's ``check`` checks every value as a state at once, in
    seed order; the stack is read-only.
    """
    n_seeds, n_agents, _ = labels.shape
    planted = np.array([d.planted for d in draws])
    width = np.where(planted, 1, n_agents)  # each seed's values: a planted seed's agents share one
    first = np.cumsum(width) - width
    seed = np.repeat(np.arange(n_seeds), width)  # each value's seed and agent, in seed order
    agent = np.arange(len(seed)) - first[seed]
    conditioned = np.array([d.planted or d.anchor is not None for d in draws])[seed]
    own, at = seed[conditioned], agent[conditioned]
    atoms, rule, spaces = measures
    values = []
    if len(own):
        anchors = np.array([d.anchor or 0 for d in draws])[own]
        cell = np.where(planted[own], 0, labels[own, at, anchors])  # the label of the cell conditioned on
        rows = labels[own, at] == cell[:, None]
        values.append(_conditionals(_Measures(atoms[own], rule, [spaces[s] for s in own]), rows))
    if len(loose):
        values.append(loose)
    # each value's place among the conditioned values, then the loose ones
    order = np.where(conditioned, np.cumsum(conditioned) - 1, len(own) + np.cumsum(~conditioned) - 1)
    checked = rule.check(np.concatenate(values)[order], [spaces[s] for s in seed])
    targets = checked[first[:, None] + np.where(planted[:, None], 0, np.arange(n_agents))]
    targets.flags.writeable = False
    return targets


@dataclass(frozen=True)
class _Scenarios:
    """A generated block: the checked block of stacks a search verifies,
    and what a bundle adds to it. Iterating it builds each seed's bundle
    from the stacks; ``raw`` is the checked stack its measures wrap (the
    weights of a classical block, else the atoms)."""

    layer: str
    block: _Block
    raw: np.ndarray
    planted: Sequence[bool]
    anchors: Sequence[int | None]
    hypotheses: Sequence[int | None]  # masks

    def __len__(self) -> int:
        return len(self.planted)

    def __iter__(self) -> Iterator[ScenarioBundle]:
        block = self.block
        n_seeds, n_agents, n = block.labels.shape
        partitions = _built(n, block.labels.reshape(-1, n), block.starts, block.masks)
        rule, spaces = block.measures.rule, block.measures.spaces
        if self.layer == "classical":
            measures = _instances(ProbabilityMeasure, self.raw)
        else:
            measures = _instances(Dovm, self.raw) if self.layer == "quantum" else _instances(Svm, self.raw, spaces)
        states = rule.states(block.targets.reshape((-1,) + block.targets.shape[2:]),
                             [space for space in spaces for _ in range(n_agents)])
        for s, (planted, anchor, h) in enumerate(zip(self.planted, self.anchors, self.hypotheses)):
            first = s * n_agents
            own = tuple(states[first:first + n_agents])
            model = KnowledgeModel(n, tuple(partitions[first:first + n_agents]))
            yield ScenarioBundle(self.layer, model, measures[s], None if h is None else Event(h, n),
                                 (own[0],) * n_agents if planted else own,
                                 Event(block.masks[block.starts[first]], n) if planted else None, anchor)


def _check_shape(layer: str, n_worlds: int, n_agents: int, dim: int, cone_kind: str,
                 planted: bool) -> ConeSpace | None:
    """Raise ``ValueError`` unless scenarios of this layer and shape (some
    of them planted, if ``planted``) can be generated, with the message a
    seed's draw would raise; return the cone all the seeds share (a simplex
    or PSD cone), else ``None``."""
    if layer not in LAYERS:
        raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
    if n_worlds < 1:
        raise ValueError(f"n_worlds must be positive, got {n_worlds}")
    if n_agents < 1:
        raise ValueError(f"n_agents must be positive, got {n_agents}")
    if n_worlds < 2 and planted:
        raise ValueError("planted scenarios need at least 2 worlds")
    if layer == "classical" and n_worlds > 63:  # the hypothesis is drawn as one int64 below 1 << n_worlds
        raise ValueError(f"classical scenarios have at most 63 worlds, got {n_worlds}")
    if layer == "quantum" and dim < 1:
        raise ValueError("dim and n_worlds must be positive")  # as _dovm_normals
    if layer == "gpt" and cone_kind not in ("simplex", "psd", "polyhedral"):
        raise ValueError(f"unknown cone kind {cone_kind!r}")
    if layer == "gpt" and cone_kind == "polyhedral" and dim < 2:
        raise ValueError("polyhedral cones need ambient dimension at least 2")  # as gen_polyhedral_cone
    if layer == "gpt" and cone_kind != "polyhedral":
        return SimplexCone(dim) if cone_kind == "simplex" else PsdCone(dim)  # whose constructors check dim
    return None


def _block_seeds(layer: str, n_worlds: int, n_agents: int, dim: int, cone_kind: str) -> int:
    """Seeds per search block for a checked shape: as many as keep the
    cell-sum rows, agents x worlds x real entries per atom for each seed,
    within ``BLOCK_ENTRIES``, and at least ``BLOCK_SEEDS``."""
    if layer == "classical":
        entries = 2  # P(h & w) and P(w)
    elif layer == "quantum" or cone_kind == "psd":
        entries = 2 * dim * dim  # complex d x d atoms; a PSD cone's are built as a DOVM's
    else:
        entries = dim
    return max(BLOCK_SEEDS, BLOCK_ENTRIES // (n_agents * n_worlds * entries))


def _scenarios(layer: str, seeds: Sequence[tuple[int, bool]], n_worlds: int, n_agents: int, dim: int,
               cone_kind: str, n_generators: int | None) -> _Scenarios:
    """The block of ``(seed, planted)`` pairs, in order: each seed's draws,
    from one generator rekeyed per seed, then one checked label stack, the
    measures and the targets, each built and checked as one stack."""
    cone = _check_shape(layer, n_worlds, n_agents, dim, cone_kind, any(planted for _, planted in seeds))
    rng = np.random.Generator(np.random.Philox(0))  # rekeyed to each seed before it draws
    draws = [_draw(seed, planted, layer, n_worlds, n_agents, dim, cone, n_generators, rng) for seed, planted in seeds]
    labels, cells, starts, masks = _cell_stack(np.concatenate([d.labels for d in draws]), n_worlds)
    shape = (len(draws), n_agents, n_worlds)
    hypotheses = [d.hypothesis for d in draws]
    loose = np.concatenate([d.loose for d in draws])
    stacked = np.stack([d.measure for d in draws])
    if layer == "classical":
        raw = _probabilities(stacked)
        measures = classical._measures(raw, _mask_rows(hypotheses, n_worlds))
    elif layer == "quantum":
        raw = _dovm_atoms(stacked)
        measures = quantum._measures(raw)
        loose = _unit_trace(_ginibre(loose)) if len(loose) else ()
    else:
        if cone is None:  # each seed has its own polyhedral cone
            cones = _polyhedral_cones(_polyhedral_generators(np.stack([d.cone for d in draws])),
                                      np.eye(dim)[[0] * len(draws)])
        else:
            cones = [cone] * len(draws)
        raw = _svm_atoms(cones, stacked)
        measures = gpt._measures(raw, cones)
        loose_cones = [c for c, d in zip(cones, draws) for _ in d.loose]
        loose = _svm_atoms(loose_cones, loose)[:, 0] if len(loose) else ()  # one-world SVMs
    targets = _targets(draws, labels.reshape(shape), measures, loose)
    block = _Block(labels.reshape(shape), cells.reshape(shape), starts, masks, measures, targets)
    return _Scenarios(layer, block, raw, [d.planted for d in draws], [d.anchor for d in draws], hypotheses)


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
    (bundle,) = _scenarios(layer, [(seed, True)], n_worlds, n_agents, dim, cone_kind, n_generators)
    return bundle


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
    (bundle,) = _scenarios(layer, [(seed, False)], n_worlds, n_agents, dim, cone_kind, n_generators)
    return bundle

"""Label/mask partitions: the constructor, the public API, and the generators
checked against the block-list algorithm they replaced."""

import pickle

import numpy as np
import pytest

import aumann.generators as generators
from aumann import (
    Event,
    KnowledgeModel,
    Partition,
    gen_model,
    gen_partition,
    gen_planted_scenario,
    gen_unconstrained_scenario,
)
from aumann.generators import _rng


# ---------------------------------------------------------------------------
# the block-list algorithm the generators used before partitions carried labels

def _old_partition_blocks(rng, worlds, max_cells):
    k = int(rng.integers(1, max_cells + 1))
    order = rng.permutation(len(worlds))
    labels = np.empty(len(worlds), dtype=int)
    labels[order[:k]] = np.arange(k)
    if len(worlds) > k:
        labels[order[k:]] = rng.integers(0, k, size=len(worlds) - k)
    blocks = [[] for _ in range(k)]
    for pos, label in enumerate(labels):
        blocks[label].append(worlds[pos])
    return [b for b in blocks if b]


def _old_gen_partition(seed, n_worlds, max_cells):
    rng = _rng(seed)
    return Partition.from_blocks(_old_partition_blocks(rng, list(range(n_worlds)), max_cells), n_worlds)


def _old_gen_model(seed, n_worlds, n_agents, max_cells=None):
    rng = _rng(seed)
    max_cells = n_worlds if max_cells is None else max_cells
    partitions = tuple(
        Partition.from_blocks(_old_partition_blocks(rng, list(range(n_worlds)), max_cells), n_worlds)
        for _ in range(n_agents)
    )
    return KnowledgeModel(n_worlds, partitions)


def _old_planted_model(rng, n_worlds, n_agents):
    size = int(rng.integers(1, n_worlds))
    perm = rng.permutation(n_worlds)
    shared = sorted(int(w) for w in perm[:size])
    rest = sorted(int(w) for w in perm[size:])
    partitions = []
    for _ in range(n_agents):
        blocks = [shared]
        if rest:
            blocks += _old_partition_blocks(rng, rest, max_cells=len(rest))
        partitions.append(Partition.from_blocks(blocks, n_worlds))
    return KnowledgeModel(n_worlds, tuple(partitions)), Event.from_worlds(shared, n_worlds)


def _same_partition(a, b):
    """Equal cells in the same order, and the labels agree with the cells."""
    assert a == b
    assert np.array_equal(a.labels, b.labels)
    for w in range(a.n):
        assert a.masks[a.labels[w]] >> w & 1


class TestGeneratorsMatchBlockLists:
    def test_gen_partition_every_size(self):
        for n in range(1, 65):
            for max_cells in range(1, n + 1):
                seed = 1000 * n + max_cells
                _same_partition(gen_partition(seed, n, max_cells), _old_gen_partition(seed, n, max_cells))

    def test_gen_model_every_size(self):
        for n in range(1, 65):
            for max_cells in range(1, n + 1, 7):
                new = gen_model(n + max_cells, n, 3, max_cells)
                old = _old_gen_model(n + max_cells, n, 3, max_cells)
                assert new == old
                for a, b in zip(new.partitions, old.partitions):
                    _same_partition(a, b)

    def test_planted_models_every_size(self):
        for n in range(2, 65):
            for n_agents in (1, 2, 5):
                new_model, new_cell = generators._planted_model(_rng(n * 10 + n_agents), n, n_agents)
                old_model, old_cell = _old_planted_model(_rng(n * 10 + n_agents), n, n_agents)
                assert new_cell == old_cell
                for a, b in zip(new_model.partitions, old_model.partitions):
                    _same_partition(a, b)
                    assert a.cells[0] == new_cell

    @pytest.mark.parametrize(
        "layer, cone_kind, dim",
        [
            ("classical", "simplex", 2),
            ("quantum", "simplex", 2),
            ("quantum", "simplex", 3),
            ("gpt", "simplex", 4),
            ("gpt", "psd", 2),
            ("gpt", "polyhedral", 3),
        ],
    )
    def test_bundles_byte_identical(self, monkeypatch, layer, cone_kind, dim):
        def bundles():
            out = []
            for seed in range(40):
                n = (2, 6, 13, 48)[seed % 4]
                for gen in (gen_planted_scenario, gen_unconstrained_scenario):
                    out.append(gen(seed, layer, n, 1 + seed % 4, dim=dim, cone_kind=cone_kind))
            return out

        new = bundles()
        monkeypatch.setattr(generators, "gen_model", _old_gen_model)
        monkeypatch.setattr(generators, "_planted_model", _old_planted_model)
        old = bundles()
        for a, b in zip(new, old):
            assert a.model == b.model
            for p, q in zip(a.model.partitions, b.model.partitions):
                _same_partition(p, q)
            assert (a.hypothesis, a.planted_cell, a.anchor_world) == (b.hypothesis, b.planted_cell, b.anchor_world)
            atoms = "weights" if layer == "classical" else "atoms"
            assert getattr(a.measure, atoms).tobytes() == getattr(b.measure, atoms).tobytes()
            for s, t in zip(a.targets, b.targets):
                if layer == "classical":
                    assert np.float64(s).tobytes() == np.float64(t).tobytes()
                elif layer == "quantum":
                    assert s.matrix.tobytes() == t.matrix.tobytes()
                else:
                    assert s.coords.tobytes() == t.coords.tobytes()


class TestFromLabels:
    def test_cells_follow_label_numbers(self):
        p = Partition.from_labels([1, 0, 1, 2], 4)
        assert [c.worlds() for c in p.cells] == [(1,), (0, 2), (3,)]
        assert p.masks == (0b0010, 0b0101, 0b1000)
        assert p.labels.tolist() == [1, 0, 1, 2]

    def test_accepts_numpy_integer_arrays(self):
        for dtype in (np.int8, np.uint16, np.int64):
            assert Partition.from_labels(np.array([0, 1, 0], dtype=dtype), 3) == Partition.from_blocks([[0, 2], [1]], 3)

    def test_labels_are_read_only_copies(self):
        raw = np.array([0, 0, 1])
        p = Partition.from_labels(raw, 3)
        raw[2] = 0
        assert p.labels.tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            p.labels[0] = 1

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="cover"):
            Partition.from_labels([0, 1], 3)
        with pytest.raises(ValueError, match="world 3 outside 0..2"):
            Partition.from_labels([0, 1, 0, 1], 3)
        with pytest.raises(ValueError, match="at least one cell"):
            Partition.from_labels([], 3)
        with pytest.raises(ValueError):
            Partition.from_labels([0, 0], 0)

    def test_negative_label(self):
        with pytest.raises(ValueError, match="negative"):
            Partition.from_labels([0, -1, 0], 3)

    def test_unused_label_is_an_empty_cell(self):
        with pytest.raises(ValueError, match="cell 1 is empty"):
            Partition.from_labels([0, 2, 2], 3)
        with pytest.raises(ValueError, match="cell 0 is empty"):
            Partition.from_labels([1, 1, 2], 3)
        # more cell numbers than worlds: the first unused one is named
        with pytest.raises(ValueError, match="cell 1 is empty"):
            Partition.from_labels([0, 7, 2**62], 3)

    @pytest.mark.parametrize("bad", [[0, 1.0, 0], [0.5, 0, 1], [True, False, True], ["0", "1", "0"], [[0], [1], [0]]])
    def test_non_integers(self, bad):
        with pytest.raises(ValueError, match="integers"):
            Partition.from_labels(bad, 3)

    def test_errors_match_the_cell_constructor(self):
        def message(build):
            with pytest.raises(ValueError) as info:
                build()
            return str(info.value)

        assert message(lambda: Partition.from_labels([0, 2, 2], 3)) == message(
            lambda: Partition((Event.from_worlds([0], 3), Event.empty(3), Event.from_worlds([1, 2], 3)))
        )
        assert message(lambda: Partition.from_labels([0, 1], 3)) == message(
            lambda: Partition.from_blocks([[0], [1]], 3)
        )
        assert message(lambda: Partition.from_labels([0, 1, 0, 1], 3)) == message(
            lambda: Partition.from_blocks([[0, 2], [1, 3]], 3)
        )


class TestPartitionApi:
    def test_label_and_block_partitions_equal_and_hash_equal(self):
        a = Partition.from_labels([0, 1, 0, 2, 2], 5)
        b = Partition.from_blocks([[0, 2], [1], [3, 4]], 5)
        c = Partition(b.cells)
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1

    def test_cell_order_matters(self):
        assert Partition.from_blocks([[0], [1]], 2) != Partition.from_blocks([[1], [0]], 2)
        assert Partition.from_labels([0, 0], 2) != Partition.from_labels([0, 0, 0], 3)
        assert Partition.from_labels([0, 0], 2) != "not a partition"

    def test_cells_and_cell_of_are_events(self):
        p = Partition.from_labels([1, 0, 1], 3)
        assert p.cells == (Event.from_worlds([1], 3), Event.from_worlds([0, 2], 3))
        assert all(isinstance(c, Event) for c in p.cells)
        assert p.cells is p.cells
        cell = p.cell_of(2)
        assert isinstance(cell, Event) and cell == p.cells[1]
        assert p.cell_of(np.intp(1)) == p.cells[0]
        assert len(p) == 2 and p.n == 3

    def test_cell_constructor_keeps_given_events(self):
        cells = (Event.from_worlds([2], 3), Event.from_worlds([0, 1], 3))
        p = Partition(cells)
        assert p.cells is cells
        assert p.labels.tolist() == [1, 1, 0]

    def test_immutable(self):
        p = Partition.from_labels([0, 1], 2)
        with pytest.raises(AttributeError):
            p.masks = (3,)

    def test_pickle_round_trip(self):
        p = Partition.from_labels([0, 1, 1, 0], 4)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.labels.tolist() == p.labels.tolist()
        assert not q.labels.flags.writeable

    def test_repr_lists_cells(self):
        assert repr(Partition.from_labels([0, 0], 2)) == "Partition(cells=(Event({0, 1}, n=2),))"

    def test_knowledge_model_stays_hashable(self):
        m1 = gen_model(5, 12, 3)
        m2 = KnowledgeModel.from_blocks(12, [[c.worlds() for c in p.cells] for p in m1.partitions])
        assert m1 == m2 and hash(m1) == hash(m2)
        assert len({m1, m2}) == 1

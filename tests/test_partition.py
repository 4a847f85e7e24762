"""Label/mask partitions: the constructor, the stacked build, the public API,
and the generators checked against the block-list algorithm they replaced."""

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
from aumann.knowledge import _partitions


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


def _rows(model):
    """A model's label rows, one per agent, as the generators draw them."""
    return np.array([p.labels for p in model.partitions])


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
                labels = generators._planted_labels(_rng(n * 10 + n_agents), n, n_agents)
                new_model = generators._models(n, [labels])[0]
                new_cell = Event.from_worlds(np.flatnonzero(labels[0] == 0).tolist(), n)  # agent 0's cell 0
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
        monkeypatch.setattr(generators, "_model_labels",
                            lambda rng, n, n_agents, max_cells: _rows(_old_gen_model(rng, n, n_agents, max_cells)))
        monkeypatch.setattr(generators, "_planted_labels",
                            lambda rng, n, n_agents: _rows(_old_planted_model(rng, n, n_agents)[0]))
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
        # an unsigned label past intp is a label past the worlds, not a negative one
        with pytest.raises(ValueError, match="cell 1 is empty"):
            Partition.from_labels(np.array([0, 2**63, 0], dtype=np.uint64), 3)

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


def _message(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


class TestStackedBuild:
    """``knowledge._partitions`` builds a whole label stack with one check;
    ``Partition.from_labels`` is its stack of one."""

    GOOD = [0, 1, 0]

    @pytest.mark.parametrize("bad", [[0, -1, 0], [-3, -1, -2], [0, 2, 2], [1, 1, 2], [0, 7, 2**62], [2, 0, 0]])
    def test_bad_row_two_raises_what_it_raises_alone(self, bad):
        stack = np.array([self.GOOD, [2, 1, 0], bad])
        assert _message(lambda: _partitions(stack, 3)) == _message(lambda: Partition.from_labels(bad, 3))

    def test_first_bad_row_decides(self):
        stack = np.array([self.GOOD, [0, 2, 2], [0, -1, 0]])
        assert _message(lambda: _partitions(stack, 3)) == _message(lambda: Partition.from_labels([0, 2, 2], 3))
        stack = np.array([self.GOOD, [0, -1, 0], [0, 2, 2]])
        assert _message(lambda: _partitions(stack, 3)) == _message(lambda: Partition.from_labels([0, -1, 0], 3))

    @pytest.mark.parametrize("width, n", [(2, 3), (4, 3), (0, 3)])
    def test_a_stack_of_the_wrong_width_raises_what_each_row_raises(self, width, n):
        # a stack's rows share their width, so every row fails alike
        rows = np.array([[0, 1, 0, 1][:width]] * 3, dtype=np.intp).reshape(3, width)
        assert _message(lambda: _partitions(rows, n)) == _message(lambda: Partition.from_labels(rows[2], n))

    def test_a_narrow_stack_raises_what_its_first_row_raises(self):
        # every row of a narrow stack fails: one with an empty cell names it
        for rows in ([[0, 2], [0, 1], [0, 1]], [[0, 1], [0, 2], [0, 1]]):
            assert _message(lambda: _partitions(rows, 3)) == _message(lambda: Partition.from_labels(rows[0], 3))

    # a stack has one dtype: a float in row 2 makes it a float stack, and booleans stack only with booleans
    @pytest.mark.parametrize("stack", [[GOOD, GOOD, [0, 1.0, 0]], [[True, False, True]] * 3])
    def test_non_integers(self, stack):
        assert _message(lambda: _partitions(stack, 3)) == _message(lambda: Partition.from_labels(stack[2], 3))

    def test_world_count_and_shape(self):
        assert _message(lambda: _partitions([self.GOOD], 0)) == _message(lambda: Partition.from_labels(self.GOOD, 0))
        assert _message(lambda: _partitions(self.GOOD, 3)) == _message(lambda: Partition.from_labels([self.GOOD], 3))
        assert _partitions(np.empty((0, 3), dtype=np.intp), 3) == []

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_rows_equal_from_labels_and_the_cells(self, n):
        rng = np.random.default_rng(n)
        rows = [rng.permutation(np.arange(n) % k) for k in (1, max(1, n // 7), n)]
        rows += [np.array([(w * 5) % 3 if n > 2 else 0 for w in range(n)]) % min(n, 3)]
        stack = np.array(rows)
        built = _partitions(stack, n)
        stack[:] = 0  # the partitions hold their own labels
        for row, p in zip(rows, built):
            alone = Partition.from_labels(row, n)
            cells = Partition.from_blocks([np.flatnonzero(row == k).tolist() for k in range(row.max() + 1)], n)
            assert p == alone == cells
            assert p.masks == alone.masks == cells.masks
            assert p.labels.dtype == alone.labels.dtype == cells.labels.dtype == np.intp
            assert np.array_equal(p.labels, row) and np.array_equal(alone.labels, row)
            assert not p.labels.flags.writeable
            q = pickle.loads(pickle.dumps(p))
            assert q == p and q.masks == p.masks and np.array_equal(q.labels, p.labels)
            assert not q.labels.flags.writeable
            assert [c.worlds() for c in p.cells] == [c.worlds() for c in cells.cells]


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

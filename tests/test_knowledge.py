from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aumann import (
    Event,
    KnowledgeModel,
    NotCellUnion,
    Partition,
    ProbabilityMeasure,
    ScenarioFile,
    cell_decomposition,
    cell_of,
    common_knowledge,
    common_knowledge_via_meet,
    know,
    meet_partition,
    mutual_knowledge,
    mutual_knowledge_chain,
    run_agree,
    run_analyze,
)


@st.composite
def models(draw, max_worlds=8, max_agents=3):
    n = draw(st.integers(2, max_worlds))
    n_agents = draw(st.integers(1, max_agents))
    blocks_per_agent = []
    for _ in range(n_agents):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = {}
        for world, label in enumerate(labels):
            blocks.setdefault(label, []).append(world)
        blocks_per_agent.append(list(blocks.values()))
    return KnowledgeModel.from_blocks(n, blocks_per_agent)


@st.composite
def model_events(draw):
    model = draw(models())
    mask = draw(st.integers(0, (1 << model.n_worlds) - 1))
    return model, Event(mask, model.n_worlds)


class TestEvent:
    def test_construction_and_sets(self):
        e = Event.from_worlds([0, 2], 4)
        assert e.mask == 0b101
        assert list(e) == [0, 2]
        assert len(e) == 2
        assert 2 in e and 1 not in e
        assert (~e).worlds() == (1, 3)
        assert (e | Event.from_worlds([1], 4)).worlds() == (0, 1, 2)
        assert (e & Event.full(4)) == e
        assert (e - Event.from_worlds([2], 4)).worlds() == (0,)
        assert Event.empty(4) <= e <= Event.full(4)
        assert e.isdisjoint(Event.from_worlds([1, 3], 4))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Event(0b1000, 3)
        with pytest.raises(ValueError):
            Event.from_worlds([3], 3)
        with pytest.raises(ValueError):
            Event(0, 0)

    def test_mixed_world_sets_rejected(self):
        with pytest.raises(ValueError):
            Event.full(3) & Event.full(4)


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Partition((Event.full(2), Event.empty(2)))
        with pytest.raises(ValueError, match="overlap"):
            Partition.from_blocks([[0, 1], [1]], 2)
        with pytest.raises(ValueError, match="cover"):
            Partition.from_blocks([[0]], 2)
        with pytest.raises(ValueError):
            Partition(())

    def test_cell_lookup(self):
        p = Partition.from_blocks([[0, 1], [2]], 3)
        assert p.cell_of(1).worlds() == (0, 1)
        assert p.cell_of(2).worlds() == (2,)
        with pytest.raises(IndexError):
            p.cell_of(3)


class TestModelValidation:
    def test_partition_must_match_worlds(self):
        with pytest.raises(ValueError):
            KnowledgeModel(3, (Partition.from_blocks([[0, 1]], 2),))
        with pytest.raises(ValueError):
            KnowledgeModel(2, ())

    def test_agent_and_world_ranges(self, model_b):
        with pytest.raises(IndexError):
            cell_of(model_b, 2, 0)
        with pytest.raises(IndexError):
            cell_of(model_b, 0, 4)
        with pytest.raises(IndexError):
            know(model_b, -1, Event.full(4))


class TestCellOf:
    def test_model_b(self, model_b):
        assert cell_of(model_b, 0, 2).worlds() == (2, 3)

    def test_singleton_partition(self):
        model = KnowledgeModel.from_blocks(3, [[[0], [1], [2]]])
        for w in range(3):
            assert cell_of(model, 0, w).worlds() == (w,)

    def test_trivial_partition(self):
        model = KnowledgeModel.from_blocks(3, [[[0, 1, 2]]])
        assert cell_of(model, 0, 1) == Event.full(3)


class TestKnow:
    def test_singleton_partition_knows_everything(self):
        model = KnowledgeModel.from_blocks(3, [[[0], [1], [2]]])
        e = model.event([0, 2])
        assert know(model, 0, e) == e

    def test_trivial_partition_knows_nothing_proper(self):
        model = KnowledgeModel.from_blocks(3, [[[0, 1, 2]]])
        assert not know(model, 0, model.event([0, 1]))
        assert know(model, 0, Event.full(3)) == Event.full(3)

    def test_model_b(self, model_b):
        e = model_b.event([0, 1, 2])
        assert know(model_b, 0, e).worlds() == (0, 1)
        assert know(model_b, 1, e).worlds() == (0, 1, 2)


class TestMutualKnowledge:
    def test_degree_zero_is_the_event(self, model_b):
        e = model_b.event([1, 3])
        assert mutual_knowledge(model_b, e, 0) == e

    def test_model_b_degrees(self, model_b):
        e = model_b.event([0, 1, 2])
        assert mutual_knowledge(model_b, e, 1).worlds() == (0, 1)
        assert mutual_knowledge(model_b, e, 2).worlds() == (0, 1)

    def test_full_event_is_fixed(self, model_b):
        full = Event.full(4)
        for m in range(4):
            assert mutual_knowledge(model_b, full, m) == full

    def test_negative_degree_rejected(self, model_b):
        with pytest.raises(ValueError):
            mutual_knowledge(model_b, Event.full(4), -1)


class TestCommonKnowledge:
    def test_full_event(self, model_b):
        assert common_knowledge(model_b, Event.full(4)) == Event.full(4)

    def test_model_b(self, model_b):
        assert common_knowledge(model_b, model_b.event([0, 1, 2])).worlds() == (0, 1)

    def test_model_a_empty(self, model_a):
        assert not common_knowledge(model_a, model_a.event([0, 1, 2, 3]))

    def test_empty_event(self, model_a):
        assert common_knowledge(model_a, Event.empty(5)) == Event.empty(5)

    def test_max_iters_safety_valve(self, model_b):
        """The scenario runs bound the chain of the event they analyze: ``e``
        for an analysis without targets, the agreement event ``{2}`` of the
        targets (0.5, 1); both chains have two degrees."""
        e = model_b.event([0, 1, 2])
        mu = ProbabilityMeasure([0.25] * 4)
        sf = ScenarioFile(["w0", "w1", "w2", "w3"], ["a", "b"], model_b, "classical", mu, e)
        for run, scenario in ((run_analyze, sf), (run_agree, replace(sf, targets=(0.5, 1.0)))):
            assert len(mutual_knowledge_chain(model_b, run(scenario).event)) == 2
            with pytest.raises(RuntimeError, match="^common-knowledge fixpoint not reached within 1 iterations$"):
                run(scenario, max_iters=1)
            assert run(scenario, max_iters=2).common == common_knowledge(model_b, run(scenario).event)

    def test_chain_trace(self, model_b):
        trace = mutual_knowledge_chain(model_b, model_b.event([0, 1, 2]))
        assert [t.worlds() for t in trace] == [(0, 1), (0, 1)]


class TestMeetPartition:
    def test_identical_partitions(self):
        blocks = [[0, 1], [2], [3, 4]]
        model = KnowledgeModel.from_blocks(5, [blocks, blocks])
        assert meet_partition(model) == Partition.from_blocks(blocks, 5)

    def test_model_a_trivial_meet(self, model_a):
        assert meet_partition(model_a).cells == (Event.full(5),)

    def test_model_b(self, model_b):
        assert [c.worlds() for c in meet_partition(model_b).cells] == [(0, 1), (2, 3)]


class TestCommonKnowledgeViaMeet:
    def test_model_b(self, model_b):
        e = model_b.event([0, 1, 2])
        assert common_knowledge_via_meet(model_b, e).worlds() == (0, 1)

    def test_empty(self, model_b):
        assert not common_knowledge_via_meet(model_b, Event.empty(4))

    def test_model_a(self, model_a):
        assert not common_knowledge_via_meet(model_a, model_a.event([0, 1, 2, 3]))


class TestCellDecomposition:
    def test_single_cell(self, model_b):
        assert cell_decomposition(model_b, 0, model_b.event([0, 1])) == (model_b.event([0, 1]),)

    def test_two_cells(self, model_b):
        cells = cell_decomposition(model_b, 1, model_b.event([0, 1, 2]))
        assert [c.worlds() for c in cells] == [(0, 1), (2,)]

    def test_not_a_cell_union(self, model_b):
        with pytest.raises(NotCellUnion):
            cell_decomposition(model_b, 0, model_b.event([0, 2]))

    def test_empty_event_decomposes_trivially(self, model_b):
        assert cell_decomposition(model_b, 0, Event.empty(4)) == ()


@settings(max_examples=200, deadline=None)
@given(model_events())
def test_truth_axiom(me):
    model, e = me
    for i in range(model.n_agents):
        assert know(model, i, e) <= e


@settings(max_examples=200, deadline=None)
@given(model_events())
def test_positive_introspection(me):
    model, e = me
    for i in range(model.n_agents):
        k = know(model, i, e)
        assert know(model, i, k) == k


@settings(max_examples=200, deadline=None)
@given(model_events(), st.integers(0, (1 << 8) - 1))
def test_monotonicity(me, extra_mask):
    model, e = me
    f = e | Event(extra_mask & ((1 << model.n_worlds) - 1), model.n_worlds)
    for i in range(model.n_agents):
        assert know(model, i, e) <= know(model, i, f)


@settings(max_examples=200, deadline=None)
@given(model_events())
def test_chain_decreases_and_stabilizes(me):
    model, e = me
    levels = [mutual_knowledge(model, e, m) for m in range(1, model.n_worlds + 2)]
    for prev, cur in zip(levels, levels[1:]):
        assert cur <= prev
    # stabilization within n_worlds iterations
    assert levels[-1] == levels[-2]
    assert len(mutual_knowledge_chain(model, e)) <= model.n_worlds + 1
    assert common_knowledge(model, e) == levels[-1]


@settings(max_examples=300, deadline=None)
@given(model_events())
def test_fixpoint_agrees_with_meet_oracle(me):
    model, e = me
    assert common_knowledge(model, e) == common_knowledge_via_meet(model, e)


@settings(max_examples=300, deadline=None)
@given(model_events())
def test_common_knowledge_is_fixed_point_and_cell_union(me):
    model, e = me
    c = common_knowledge(model, e)
    assert mutual_knowledge(model, c, 1) == c
    if c:
        for i in range(model.n_agents):
            cells = cell_decomposition(model, i, c)
            union = Event.empty(model.n_worlds)
            for cell in cells:
                assert not union & cell
                union |= cell
            assert union == c

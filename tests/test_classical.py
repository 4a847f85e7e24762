import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aumann import (
    ConditioningOnNull,
    Event,
    KnowledgeModel,
    ProbabilityMeasure,
    VerdictStatus,
    agreement_event,
    cell_decomposition,
    common_knowledge,
    conditional,
    gen_model,
    gen_probability,
    posterior_function,
    probability,
    verify_aumann,
)
from aumann.classical import _classical_block
from aumann.tolerances import MATCH_TOL
from aumann.verdicts import _verdicts


def uniform(n):
    return ProbabilityMeasure.uniform(n)


class TestProbabilityMeasure:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilityMeasure(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            ProbabilityMeasure(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            ProbabilityMeasure(np.array([[0.5], [0.5]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProbabilityMeasure(np.array([bad, 0.5]))

    def test_weights_are_frozen(self):
        mu = uniform(3)
        with pytest.raises(ValueError):
            mu.weights[0] = 1.0


class TestProbability:
    def test_uniform(self):
        assert probability(uniform(4), Event.from_worlds([0, 1], 4)) == pytest.approx(0.5)

    def test_empty_event(self):
        assert probability(uniform(4), Event.empty(4)) == 0.0

    def test_weighted(self):
        mu = ProbabilityMeasure(np.array([0.1, 0.2, 0.3, 0.4]))
        assert probability(mu, Event.from_worlds([1, 3], 4)) == pytest.approx(0.6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            probability(uniform(4), Event.full(3))


class TestConditional:
    def test_event_given_itself(self):
        e = Event.from_worlds([1, 2], 4)
        assert conditional(uniform(4), e, e) == pytest.approx(1.0)

    def test_uniform(self):
        h = Event.from_worlds([0, 2], 4)
        lam = Event.from_worlds([0, 1], 4)
        assert conditional(uniform(4), h, lam) == pytest.approx(0.5)

    def test_null_conditioning(self):
        mu = ProbabilityMeasure(np.array([1.0, 0.0]))
        with pytest.raises(ConditioningOnNull):
            conditional(mu, Event.full(2), Event.from_worlds([1], 2))

    def test_conditional_on_full_is_probability(self):
        mu = ProbabilityMeasure(np.array([0.1, 0.2, 0.3, 0.4]))
        h = Event.from_worlds([0, 3], 4)
        assert conditional(mu, h, Event.full(4)) == probability(mu, h)


class TestAgreementEvent:
    def test_model_b_worked_example(self, model_b):
        e = agreement_event(model_b, uniform(4), model_b.event([0, 2]), (0.5, 0.5))
        assert e.worlds() == (0, 1)

    def test_target_outside_unit_interval(self, model_b):
        e = agreement_event(model_b, uniform(4), model_b.event([0, 2]), (1.5, 0.5))
        assert not e

    def test_full_hypothesis_all_ones(self, model_b):
        e = agreement_event(model_b, uniform(4), Event.full(4), (1.0, 1.0))
        assert e == Event.full(4)

    def test_target_count_checked(self, model_b):
        with pytest.raises(ValueError):
            agreement_event(model_b, uniform(4), Event.full(4), (1.0,))

    def test_per_agent_sets_are_cell_unions(self, model_b):
        mu = ProbabilityMeasure(np.array([0.4, 0.1, 0.3, 0.2]))
        h = model_b.event([1, 2])
        q = (conditional(mu, h, model_b.partitions[0].cell_of(0)), 1.0)
        e = agreement_event(model_b, mu, h, q)
        # oracle: intersect per-agent unions of matching positive-mass cells
        expected = Event.full(4)
        for agent, q_i in enumerate(q):
            post = posterior_function(model_b, mu, agent, h)
            agent_set = Event.from_worlds(
                [w for w in range(4) if not math.isnan(post[w]) and abs(post[w] - q_i) <= 1e-9],
                4,
            )
            cells = cell_decomposition(model_b, agent, agent_set)  # must not raise
            assert len(cells) >= 0
            expected &= agent_set
        assert e == expected


class TestPosteriorFunction:
    def test_model_b(self, model_b):
        values = posterior_function(model_b, uniform(4), 1, model_b.event([0, 2]))
        assert values == pytest.approx([0.5, 0.5, 1.0, 0.0])

    def test_empty_hypothesis(self, model_b):
        assert posterior_function(model_b, uniform(4), 0, Event.empty(4)) == pytest.approx([0.0] * 4)

    def test_full_hypothesis(self, model_b):
        assert posterior_function(model_b, uniform(4), 0, Event.full(4)) == pytest.approx([1.0] * 4)

    def test_null_cells_are_nan(self, model_b):
        mu = ProbabilityMeasure(np.array([0.5, 0.5, 0.0, 0.0]))
        values = posterior_function(model_b, mu, 1, model_b.event([0]))
        assert values[0] == pytest.approx(0.5)
        assert np.isnan(values[2]) and np.isnan(values[3])


class TestVerifyAumann:
    def test_model_b_holds(self, model_b):
        v = verify_aumann(model_b, uniform(4), model_b.event([0, 2]), (0.5, 0.5))
        assert v.status is VerdictStatus.HOLDS
        assert v.common_event.worlds() == (0, 1)
        assert v.pooled_posterior == pytest.approx(0.5)

    def test_model_a_vacuous_empty(self, model_a):
        v = verify_aumann(model_a, uniform(5), model_a.event([0, 1]), (1.0, 1.0))
        assert v.status is VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE
        assert v.pooled_posterior is None

    def test_single_agent_holds(self):
        model = KnowledgeModel.from_blocks(4, [[[0, 1], [2, 3]]])
        mu = ProbabilityMeasure(np.array([0.1, 0.3, 0.2, 0.4]))
        h = model.event([0, 2])
        q = conditional(mu, h, model.event([0, 1]))
        v = verify_aumann(model, mu, h, (q,))
        assert v.status is VerdictStatus.HOLDS
        assert v.pooled_posterior == pytest.approx(q)

    @staticmethod
    def _tiny_cell(delta):
        """Both agents share the cell {2, 3} of mass 2 * delta, whose posterior of {2} is 0.5."""
        model = KnowledgeModel.from_blocks(4, [[[0, 1], [2, 3]], [[0, 1], [2, 3]]])
        mu = ProbabilityMeasure(np.array([0.5 - delta, 0.5 - delta, delta, delta]))
        return model, mu, model.event([2])

    def test_vacuous_null_common_knowledge(self):
        # the common event {2, 3} has mass 2e-13 <= NULL_MASS_TOL. A common
        # event that verify_aumann reaches is a union of cells that each weigh
        # more than the cutoff, so the verdict step is given this one directly.
        model, mu, h = self._tiny_cell(1e-13)
        (v,) = _verdicts(_classical_block(model, mu, h, (0.5, 0.5)), [model.event([2, 3]).mask], MATCH_TOL)
        assert v.status is VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE
        assert v.common_event.worlds() == (2, 3)
        assert v.pooled_posterior is None

    def test_null_cutoff_is_not_the_matching_tol(self):
        # a common event of mass 2e-10, at most MATCH_TOL but above
        # NULL_MASS_TOL, is pooled
        model, mu, h = self._tiny_cell(1e-10)
        v = verify_aumann(model, mu, h, (0.5, 0.5))
        assert v.status is VerdictStatus.HOLDS
        assert v.common_event.worlds() == (2, 3)
        assert v.pooled_posterior == pytest.approx(0.5)
        # a null cell never matches, so its worlds leave the agreement event
        model, mu, h = self._tiny_cell(1e-13)
        v = verify_aumann(model, mu, h, (0.5, 0.5))
        assert v.status is VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE

    def test_large_tol_pools_the_whole_space(self, model_b):
        # every cell matches at tol 10: the common event is the whole space, of mass 1
        v = verify_aumann(model_b, uniform(4), model_b.event([0, 2]), (0.5, 0.5), tol=10)
        assert v.status is VerdictStatus.HOLDS
        assert v.common_event == Event.full(4)
        assert v.pooled_posterior == pytest.approx(0.5)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_theorem_property_nonvacuous_implies_holds(seed):
    model = gen_model(seed, 2 + seed % 9, 1 + seed % 4)
    mu = gen_probability(seed + 1, model.n_worlds)
    h = Event(seed % (1 << model.n_worlds), model.n_worlds)
    anchor = seed % model.n_worlds
    q = tuple(
        conditional(mu, h, model.partitions[i].cell_of(anchor)) for i in range(model.n_agents)
    )
    v = verify_aumann(model, mu, h, q)
    if not v.is_vacuous:
        assert v.status is VerdictStatus.HOLDS
        assert max(abs(q_i - v.pooled_posterior) for q_i in q) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_law_of_total_probability_on_cell_unions(seed):
    model = gen_model(seed, 2 + seed % 8, 1 + seed % 3)
    mu = gen_probability(seed + 7, model.n_worlds)
    h = Event(seed % (1 << model.n_worlds), model.n_worlds)
    # common knowledge of any event is a union of agent-0 cells
    f = common_knowledge(model, Event((seed // 3) % (1 << model.n_worlds), model.n_worlds))
    if not f or probability(mu, f) == 0.0:
        return
    cells = cell_decomposition(model, 0, f)
    lhs = conditional(mu, h, f) * probability(mu, f)
    rhs = sum(conditional(mu, h, d) * probability(mu, d) for d in cells)
    assert lhs == pytest.approx(rhs, abs=1e-12)

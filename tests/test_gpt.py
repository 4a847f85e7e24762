import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear, nnls

from aumann import (
    ConditioningOnNull,
    Effect,
    Event,
    GptState,
    KnowledgeModel,
    PolyhedralCone,
    ProbabilityMeasure,
    PsdCone,
    SimplexCone,
    Svm,
    VerdictStatus,
    agreement_event,
    cone_membership,
    conditional_state,
    devectorize,
    effect_valid,
    embed_classical,
    embed_quantum,
    gen_dovm,
    gen_planted_scenario,
    gen_polyhedral_cone,
    gen_svm,
    gen_unconstrained_scenario,
    gpt_agreement_event,
    gpt_conditional_state,
    hermitian_basis,
    svm_value,
    vectorize,
    verify_aumann,
    verify_gpt_aumann,
    verify_quantum_aumann,
)
from aumann.tolerances import CONE_FEAS_TOL, MATCH_TOL, NULL_MASS_TOL, PSD_EIG_TOL


class TestHermitianCoordinates:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_basis_is_orthonormal(self, k):
        basis = hermitian_basis(k)
        assert basis.shape == (k * k, k, k)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.abs(gram - np.eye(k * k)).max() <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = (g + g.conj().T) / 2
            assert np.abs(devectorize(vectorize(m)) - m).max() <= 1e-12

    def test_vectorize_matches_basis_coefficients(self):
        rng = np.random.default_rng(3)
        for k in (2, 3, 4):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            m = (g + g.conj().T) / 2
            coeffs = np.einsum("aij,ji->a", hermitian_basis(k), m)
            assert np.abs(coeffs.imag).max() <= 1e-12
            assert np.abs(coeffs.real - vectorize(m)).max() <= 1e-12

    def test_unit_is_trace(self):
        cone = PsdCone(3)
        rng = np.random.default_rng(2)
        g = rng.standard_normal((3, 3))
        m = g + g.T
        assert cone.unit @ vectorize(m) == pytest.approx(np.trace(m))

    def test_devectorize_rejects_non_square_length(self):
        with pytest.raises(ValueError):
            devectorize(np.ones(3))


class TestConeMembership:
    def test_simplex(self):
        cone = SimplexCone(3)
        assert cone_membership(cone, [0.2, 0.3, 0.5])
        assert not cone_membership(cone, [-0.1, 1.1, 0.0])

    def test_psd(self):
        cone = PsdCone(2)
        assert cone_membership(cone, vectorize(np.diag([1.0, 0.0])))
        assert not cone_membership(cone, vectorize(np.diag([1.0, -1.0])))

    def test_polyhedral(self):
        cone = PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
        assert cone_membership(cone, [2.0, 1.0])  # 1*(1,0) + 1*(1,1)
        assert not cone_membership(cone, [0.0, 1.0])
        assert not cone_membership(cone, [-1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone_membership(SimplexCone(3), [1.0, 2.0])


class TestPolyhedralValidation:
    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError, match="nonzero"):
            PolyhedralCone(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]))

    def test_rejects_non_pointed(self):
        with pytest.raises(ValueError, match="pointed"):
            PolyhedralCone(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, 1.0]))

    def test_rejects_nonpositive_unit(self):
        with pytest.raises(ValueError, match="positive"):
            PolyhedralCone(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))


class TestEffects:
    def test_unit_and_zero_are_effects(self):
        for cone in (SimplexCone(3), PsdCone(2), gen_polyhedral_cone(5, 4, 6)):
            assert effect_valid(cone, cone.unit)
            assert effect_valid(cone, np.zeros(cone.dim))

    def test_simplex_violation(self):
        assert not effect_valid(SimplexCone(2), np.array([1.5, 0.0]))

    def test_psd_violation(self):
        cone = PsdCone(2)
        assert effect_valid(cone, vectorize(np.diag([0.5, 0.5])))
        assert not effect_valid(cone, vectorize(np.diag([2.0, 0.0])))
        assert not effect_valid(cone, vectorize(np.diag([-0.5, 0.0])))

    def test_effect_object_validates_and_evaluates(self):
        cone = SimplexCone(2)
        phi = Effect(cone, np.array([1.0, 0.0]))
        assert phi([0.25, 0.75]) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            Effect(cone, np.array([2.0, 0.0]))

    def test_observables_on_cone_are_validated(self):
        SimplexCone(2, observables=[np.array([0.5, 0.5])])
        with pytest.raises(ValueError):
            SimplexCone(2, observables=[np.array([2.0, 0.0])])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_effects_bounded_on_states(self, seed):
        cone = SimplexCone(4)
        phi = Effect(cone, np.array([0.25, 0.5, 0.75, 1.0]))
        svm = gen_svm(seed, cone, 3)
        state = gpt_conditional_state(svm, Event.full(3))
        assert -1e-9 <= phi(state.coords) <= 1 + 1e-9


class TestSvm:
    def test_validation(self):
        cone = SimplexCone(2)
        with pytest.raises(ValueError, match="outside"):
            Svm(cone, np.array([[0.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="unit"):
            Svm(cone, np.array([[0.5, 0.0], [0.25, 0.0]]))

    def test_svm_value_examples(self):
        cone = SimplexCone(2)
        svm = Svm(cone, np.array([[0.5, 0.0], [0.25, 0.25]]))
        assert cone.unit @ svm_value(svm, Event.full(2)) == pytest.approx(1.0)
        assert np.all(svm_value(svm, Event.empty(2)) == 0.0)
        assert svm_value(svm, Event.from_worlds([1], 2)) == pytest.approx([0.25, 0.25])

    def test_additivity(self):
        svm = gen_svm(4, SimplexCone(3), 5)
        a = Event.from_worlds([0, 3], 5)
        b = Event.from_worlds([1, 4], 5)
        assert np.abs(svm_value(svm, a | b) - svm_value(svm, a) - svm_value(svm, b)).max() <= 1e-12


class TestGptConditional:
    def test_full_event(self):
        svm = gen_svm(8, SimplexCone(3), 4)
        state = gpt_conditional_state(svm, Event.full(4))
        assert np.allclose(state.coords, svm.total, atol=1e-12)

    def test_simplex_example(self):
        svm = Svm(SimplexCone(2), np.array([[0.5, 0.0], [0.25, 0.25]]))
        state = gpt_conditional_state(svm, Event.from_worlds([1], 2))
        assert state.coords == pytest.approx([0.5, 0.5])

    def test_null_event_raises(self):
        svm = Svm(SimplexCone(2), np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(ConditioningOnNull):
            gpt_conditional_state(svm, Event.from_worlds([1], 2))

    def test_gpt_state_validation(self):
        cone = SimplexCone(2)
        with pytest.raises(ValueError):
            GptState(cone, np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            GptState(cone, np.array([1.5, -0.5]))


class TestGptAgreement:
    def test_single_agent_constant_conditional(self):
        model = KnowledgeModel.from_blocks(3, [[[0, 1, 2]]])
        svm = gen_svm(2, SimplexCone(2), 3)
        target = gpt_conditional_state(svm, Event.full(3))
        assert gpt_agreement_event(model, svm, (target,)) == Event.full(3)

    def test_unnormalized_target_never_matches(self, model_b):
        svm = gen_svm(3, SimplexCone(3), 4)
        bad = np.array([0.5, 0.25, 0.0])  # unit value 0.75
        assert not gpt_agreement_event(model_b, svm, (bad, bad))

    def test_classical_embedding_event_matches(self, model_b):
        mu = ProbabilityMeasure.uniform(4)
        svm = embed_classical(mu)
        target = np.array([0.5, 0.5, 0.0, 0.0])
        e = gpt_agreement_event(model_b, svm, (target, target))
        assert e == agreement_event(model_b, mu, model_b.event([0, 2]), (0.5, 0.5))
        assert e.worlds() == (0, 1)

    def test_simplex_embedding_verdict(self, model_b):
        mu = ProbabilityMeasure.uniform(4)
        svm = embed_classical(mu)
        target = np.array([0.5, 0.5, 0.0, 0.0])
        v = verify_gpt_aumann(model_b, svm, (target, target))
        assert v.status is VerdictStatus.HOLDS
        assert v.pooled_posterior.coords == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_psd_planted_matches_quantum(self):
        bundle = gen_planted_scenario(33, "quantum", 5, 2, dim=2)
        rho = bundle.measure
        svm = embed_quantum(rho)
        targets = tuple(vectorize(t.matrix) for t in bundle.targets)
        v_gpt = verify_gpt_aumann(bundle.model, svm, targets)
        v_q = verify_quantum_aumann(bundle.model, rho, bundle.targets)
        assert v_gpt.status == v_q.status == VerdictStatus.HOLDS
        assert v_gpt.common_event == v_q.common_event
        pooled = devectorize(v_gpt.pooled_posterior.coords)
        assert np.abs(pooled - v_q.pooled_posterior.matrix).max() <= 1e-8

    def test_empty_common_knowledge(self, model_a):
        svm = gen_svm(6, SimplexCone(2), 5)
        target = gpt_conditional_state(svm, model_a.event([0, 1]))
        v = verify_gpt_aumann(model_a, svm, (target, target))
        assert v.status is VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE

    def test_polyhedral_planted_holds(self):
        bundle = gen_planted_scenario(44, "gpt", 6, 3, dim=4, cone_kind="polyhedral", n_generators=8)
        v = verify_gpt_aumann(bundle.model, bundle.measure, bundle.targets)
        assert v.status is VerdictStatus.HOLDS


class TestEmbeddings:
    def test_embed_classical_atoms(self):
        assert np.allclose(embed_classical(ProbabilityMeasure.uniform(2)).atoms, np.diag([0.5, 0.5]))
        assert np.allclose(
            embed_classical(ProbabilityMeasure(np.array([0.1, 0.9]))).atoms,
            np.diag([0.1, 0.9]),
        )

    def test_embed_classical_full_verdict_equality(self, model_b):
        mu = ProbabilityMeasure.uniform(4)
        h = model_b.event([0, 2])
        v_cl = verify_aumann(model_b, mu, h, (0.5, 0.5))
        svm = embed_classical(mu)
        target = np.array([0.5, 0.5, 0.0, 0.0])
        v_gpt = verify_gpt_aumann(model_b, svm, (target, target))
        assert v_cl.status == v_gpt.status
        assert v_cl.common_event == v_gpt.common_event
        # the hypothesis posterior is the H-marginal of the pooled state
        h_indicator = np.array([1.0, 0.0, 1.0, 0.0])
        assert h_indicator @ v_gpt.pooled_posterior.coords == pytest.approx(v_cl.pooled_posterior)

    def test_embed_quantum_unit_values(self):
        rho_atoms = np.stack([np.diag([0.5, 0.0]), np.diag([0.0, 0.5])]).astype(complex)
        from aumann import Dovm

        svm = embed_quantum(Dovm(rho_atoms))
        unit_values = svm.atoms @ svm.cone.unit
        assert unit_values == pytest.approx([0.5, 0.5])

    def test_embed_quantum_single_world(self):
        from aumann import Dovm, gen_density

        sigma = gen_density(12, 2)
        svm = embed_quantum(Dovm(sigma.matrix[None, :, :]))
        assert np.abs(devectorize(svm.total) - sigma.matrix).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_conditional_commutes_with_vectorization(self, seed):
        n = 2 + seed % 5
        rho = gen_dovm(seed, n, 2)
        svm = embed_quantum(rho)
        lam = Event(1 + seed % ((1 << n) - 1), n)
        lhs = devectorize(gpt_conditional_state(svm, lam).coords)
        rhs = conditional_state(rho, lam).matrix
        assert np.abs(lhs - rhs).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_total_measure_decomposition(seed):
    """mu(F) equals the mixture of cell conditionals weighted by unit mass."""
    from aumann import cell_decomposition, common_knowledge, gen_model

    model = gen_model(seed, 2 + seed % 6, 1 + seed % 3)
    svm = gen_svm(seed + 1, SimplexCone(3), model.n_worlds)
    f = common_knowledge(model, Event(seed % (1 << model.n_worlds), model.n_worlds))
    if not f:
        return
    cells = cell_decomposition(model, 0, f)
    mixture = np.zeros(3)
    for cell in cells:
        value = svm_value(svm, cell)
        u = float(svm.cone.unit @ value)
        mixture += u * (value / u)
    assert np.abs(svm_value(svm, f) - mixture).max() <= 1e-12


def _bvls_residual(cone, v):
    """Residual of the bounded-variable least-squares fit that polyhedral
    membership used before NNLS: the reference for the NNLS decision."""
    basis = cone.generators.T
    fit = lsq_linear(basis, v, bounds=(0.0, np.inf), method="bvls")
    return float(np.linalg.norm(basis @ fit.x - v))


def _cone_test_points(cone, rng):
    """Points inside, outside, and at ±tol, ±2 tol and ±tol/2 along the
    outward normal from the projection of a random point onto the cone."""
    basis = cone.generators.T
    m = basis.shape[1]
    points = [
        basis @ (rng.exponential(size=m) * (rng.random(m) < 0.6)),
        rng.standard_normal(cone.dim) * rng.choice([1e-3, 1.0, 30.0]),
    ]
    v = 3.0 * rng.standard_normal(cone.dim)
    x, residual = nnls(basis, v)
    if residual > 1e-6:
        foot = basis @ x
        normal = (v - foot) / residual
        for step in (1.0, 2.0, 0.5):
            for sign in (1.0, -1.0):
                points.append(foot + sign * step * CONE_FEAS_TOL * normal)
    return points


class TestBatchedConeChecks:
    def test_svm_atom_outside_polyhedral_cone_is_named(self):
        cone = PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
        atoms = np.tile([0.2, 0.1], (5, 1))
        atoms[3] = [0.2, -0.1]
        atoms[4] = [0.2, 0.3]
        with pytest.raises(ValueError, match="atom 3 lies outside"):
            Svm(cone, atoms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_are_rejected(self, bad):
        for cone in (SimplexCone(4), PsdCone(2), gen_polyhedral_cone(3, 4, 6)):
            coords = np.full(4, 0.25)
            coords[1] = bad
            with pytest.raises(ValueError, match="finite"):
                Svm(cone, coords[None])
            with pytest.raises(ValueError, match="finite"):
                GptState(cone, coords)

    def test_non_finite_polyhedral_cone_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PolyhedralCone(np.array([[1.0, 0.0], [1.0, np.nan]]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([1.0, np.inf]))

    def test_psd_unit_is_vectorized_identity(self):
        for k in range(1, 5):
            assert np.array_equal(PsdCone(k).unit, vectorize(np.eye(k)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_stacked_coordinates_match_per_matrix(self, seed, k):
        rho = gen_dovm(seed, 4, k)
        looped = np.stack([vectorize(a) for a in rho.atoms])
        assert np.array_equal(embed_quantum(rho).atoms, looped)
        rng = np.random.default_rng(seed)
        points = np.vstack([looped, rng.standard_normal((4, k * k))])
        cone = PsdCone(k)
        expected = [bool(np.linalg.eigvalsh(devectorize(v))[0] >= -PSD_EIG_TOL) for v in points]
        assert [cone.contains(v) for v in points] == expected
        assert cone._members(points).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 4), st.integers(1, 6))
    def test_nnls_membership_agrees_with_bvls(self, seed, dim, n_generators):
        cone = gen_polyhedral_cone(seed, dim, n_generators)
        rng = np.random.default_rng(seed)
        for v in _cone_test_points(cone, rng):
            reference = _bvls_residual(cone, v)
            if abs(reference - CONE_FEAS_TOL) > 1e-12:
                assert cone.contains(v) == (reference <= CONE_FEAS_TOL)
            else:
                # On the boundary itself the decision is round-off; the
                # residuals must still agree.
                assert abs(nnls(cone.generators.T, v)[1] - reference) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["simplex", "psd", "polyhedral"]))
    def test_agreement_event_matches_per_cell_loop(self, seed, cone_kind):
        """The stacked cell distances decide exactly as one max-norm per cell."""
        dim = 2 if cone_kind == "psd" else 3
        bundle = gen_unconstrained_scenario(seed, "gpt", 6, 3, dim=dim, cone_kind=cone_kind)
        model, svm = bundle.model, bundle.measure
        expected = (1 << model.n_worlds) - 1
        for agent, target in enumerate(bundle.targets):
            agent_mask = 0
            for cell in model.partitions[agent].cells:
                value = svm_value(svm, cell)
                u = float(svm.cone.unit @ value)
                if u > NULL_MASS_TOL and float(np.abs(value / u - target.coords).max()) <= MATCH_TOL:
                    agent_mask |= cell.mask
            expected &= agent_mask
        assert gpt_agreement_event(model, svm, bundle.targets).mask == expected

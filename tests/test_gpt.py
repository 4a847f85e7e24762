import numpy as np
import pytest
from hypothesis import example, given, settings
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
from aumann import gpt
from aumann.gpt import _nnls_residual
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


def _nnls_reference_residual(cone, v):
    return nnls(cone.generators.T, v, maxiter=50 * len(cone.generators))[1]


def _assert_decisions_match_reference(
    cone, points, tol=CONE_FEAS_TOL, references=(_bvls_residual, _nnls_reference_residual)
):
    """Membership agrees with each reference residual (BVLS and scipy's
    NNLS) wherever that residual is more than 1e-12 from ``tol``; the
    batched and per-point decisions agree.

    A reference residual carries its own round-off, about eps * |v|; at
    |v| = 1e4 that is more than 1e-12, so the margin grows with |v|.
    """
    points = np.asarray(points, dtype=float)
    decided = cone._members(points, tol)
    assert [cone.contains(v, tol) for v in points] == decided.tolist()
    for v, inside in zip(points, decided):
        margin = 1e-12 + 64 * np.finfo(float).eps * np.linalg.norm(v)
        for reference in (residual(cone, v) for residual in references):
            if abs(reference - tol) > margin:
                assert inside == (reference <= tol), (v, reference, tol)


def _probe_points(cone, rng, tol):
    """Generators, midpoints of consecutive generators (edge points where
    those are adjacent), the apex, random interior and exterior points, and
    points at -tol/2, tol/2, tol and 2 tol along the outward normal from the
    projection of random points onto the cone."""
    gens = cone.generators
    basis = gens.T
    m = gens.shape[0]
    points = [*gens, *(0.5 * (gens[i] + gens[(i + 1) % m]) for i in range(m)), np.zeros(cone.dim)]
    points += [basis @ (rng.exponential(size=m) * (rng.random(m) < 0.6)) for _ in range(3)]
    points += [rng.standard_normal(cone.dim) for _ in range(3)]
    for _ in range(3):
        v = 3.0 * rng.standard_normal(cone.dim)
        x, residual = nnls(basis, v, maxiter=50 * m)
        if residual > 1e-6:
            foot = basis @ x
            normal = (v - foot) / residual
            points += [foot + step * tol * normal for step in (0.5, 1.0, 2.0, -0.5)]
    return points


def _facets(cone):
    """The cone's facet normals, or None when it has no usable facets."""
    stack, k = cone._stack, cone._at
    return None if stack.fitted[k] else stack.normals[k, : stack.counts[k]]


class TestNumpyConeMembership:
    """Facet certificates plus the numpy NNLS, against scipy's BVLS and NNLS."""

    UNIT3 = np.array([1.0, 0.0, 0.0])
    SQUARE = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [1.0, -1.0, 1.0]])

    def test_square_cone_facets(self):
        cone = PolyhedralCone(self.SQUARE, self.UNIT3)
        facets = _facets(cone)
        expected = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        expected /= np.sqrt(2.0)
        assert sorted(map(tuple, facets.round(12))) == sorted(map(tuple, expected.round(12)))

    @pytest.mark.parametrize(
        "generators",
        [
            [[1.0, 0.5, 0.0]],
            [[1.0, 0.5, 0.0], [1.0, -0.5, 0.25]],
            [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 0.25, 0.0], [2.0, 0.5, 0.0]],  # coplanar
        ],
        ids=["one", "two", "coplanar"],
    )
    def test_rank_deficient_cones_use_nnls(self, generators):
        cone = PolyhedralCone(np.array(generators), self.UNIT3)
        assert _facets(cone) is None
        rng = np.random.default_rng(7)
        _assert_decisions_match_reference(cone, _probe_points(cone, rng, CONE_FEAS_TOL))

    @pytest.mark.parametrize(
        "extra",
        [
            [[1.0, 1.0, 1.0]],  # duplicate
            [[3.0, 3.0, -3.0]],  # parallel copy
            [[1.0, 0.0, 0.0], [1.0, 0.5, 0.5]],  # inside the cone
            [[1.0, 1.0, 0.0], [1.0, 0.0, -1.0]],  # on facets
        ],
        ids=["duplicate", "parallel", "interior", "on-facet"],
    )
    def test_redundant_generators(self, extra):
        cone = PolyhedralCone(np.vstack([self.SQUARE, extra]), self.UNIT3)
        assert _facets(cone) is not None
        assert len({tuple(f) for f in _facets(cone).round(9)}) == 4
        rng = np.random.default_rng(11)
        _assert_decisions_match_reference(cone, _probe_points(cone, rng, CONE_FEAS_TOL))

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("tol", [1e-12, 1e-6, CONE_FEAS_TOL, 0.1])
    def test_scales_and_tolerances(self, scale, tol):
        for seed, (dim, m) in enumerate([(3, 6), (4, 8), (5, 7)]):
            cone = gen_polyhedral_cone(seed, dim, m)
            rng = np.random.default_rng(seed)
            points = [scale * v for v in _probe_points(cone, rng, tol / scale)]
            _assert_decisions_match_reference(cone, points, tol)

    @pytest.mark.parametrize("seed", range(12))
    def test_nearly_degenerate_and_badly_scaled_cones(self, seed):
        """Nearly parallel generators and thin cones, which mostly leave the
        decision to the NNLS, and generator norms from 1e-6 to 1e6."""
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 4
        m = dim + 1 + seed % 3
        gens = np.hstack([np.ones((m, 1)), rng.standard_normal((m, dim - 1))])
        if seed % 3 == 0:
            gens[-1] = gens[0] + 10.0 ** rng.uniform(-12, -5) * rng.standard_normal(dim)
        elif seed % 3 == 1:
            gens[:, -1] *= 10.0 ** rng.uniform(-12, -5)
        gens *= 10.0 ** rng.uniform(-6, 6, size=(m, 1))
        cone = PolyhedralCone(gens, np.eye(dim)[0])
        # BVLS stops at its default optimality tolerance, up to 3e-8 short of
        # the optimum on these cones, so only scipy's NNLS is the reference.
        points = _probe_points(cone, rng, CONE_FEAS_TOL)
        _assert_decisions_match_reference(cone, points, references=(_nnls_reference_residual,))

    def test_one_dimensional_cone(self):
        cone = PolyhedralCone(np.array([[2.0], [0.5]]), np.array([1.0]))
        assert _facets(cone).tolist() == [[1.0]]
        points = [[3.0], [0.0], [-0.5e-8], [-1e-8], [-2e-8], [-1.0]]
        assert cone._members(np.array(points)).tolist() == [True, True, True, True, False, False]
        assert not cone._members(np.array(points), -1e-12).any()  # no distance is negative

    def test_cone_past_the_facet_cap(self):
        cone = gen_polyhedral_cone(5, 8, 16)
        assert _facets(cone) is None
        rng = np.random.default_rng(5)
        _assert_decisions_match_reference(cone, _probe_points(cone, rng, CONE_FEAS_TOL))

    @pytest.mark.parametrize("shape", [(3, 6), (8, 16), (3, 2)], ids=["facets", "past-cap", "rank-2"])
    def test_extreme_scales(self, shape):
        """Norms that overflow or underflow a dot product change no decision."""
        cone = gen_polyhedral_cone(1, *shape)
        g = cone.generators
        interior = g.mean(axis=0)
        points = np.array([g[0], interior, -interior, 0.5 * (g[0] + g[1])])
        for scale in (1e160, 1e300):
            assert cone._members(scale * points).tolist() == [True, True, False, True]
        # every point is within tol of the apex
        assert cone._members(1e-160 * points).all()
        assert _nnls_residual(np.eye(2), np.array([1e300, -1e300]), 10) == 1e300

    @pytest.mark.parametrize("spread", [0.0, 1.0])
    @pytest.mark.parametrize("shape", [(7, 14), (8, 16), (3, 2)], ids=["7-14", "8-16", "rank-2"])
    def test_certificates_spare_the_nnls(self, shape, spread, monkeypatch):
        """Without facets, the unit functional decides the negated
        generators and the fit certificate decides mixtures of generators
        with weights in [0.5, 1], so neither reaches the NNLS. The fit
        works on unit values, so generators ``(1, x)`` whose lengths spread
        over two orders of magnitude are no harder."""
        dim, m = shape
        rng = np.random.default_rng(2)
        tails = rng.standard_normal((m, dim - 1)) * 10.0 ** rng.uniform(-spread, spread, size=(m, 1))
        generators = np.hstack([np.ones((m, 1)), tails])
        cone = PolyhedralCone(generators, np.eye(dim)[0])
        assert _facets(cone) is None

        def no_nnls(*args):
            raise AssertionError("NNLS called")

        monkeypatch.setattr(gpt, "_nnls_residual", no_nnls)
        mixtures = rng.uniform(0.5, 1.0, size=(50, m)) @ generators
        assert cone._members(mixtures).all()
        assert not cone._members(-generators).any()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 13))
    def test_random_cones(self, seed, dim, n_generators):
        cone = gen_polyhedral_cone(seed, dim, n_generators)
        rng = np.random.default_rng(seed)
        _assert_decisions_match_reference(cone, _probe_points(cone, rng, CONE_FEAS_TOL))

    def test_kept_facets_support_the_cone(self):
        for seed, (dim, m) in enumerate([(2, 3), (2, 20), (3, 6), (3, 7), (4, 5), (6, 6)]):
            cone = gen_polyhedral_cone(seed, dim, m)
            facets = _facets(cone)
            sides = cone.generators @ facets.T / np.linalg.norm(cone.generators, axis=1)[:, None]
            assert sides.min() >= -1e-9
            # every facet holds dim-1 independent generators
            for column in sides.T:
                on_facet = cone.generators[np.abs(column) <= 1e-9]
                assert np.linalg.matrix_rank(on_facet) == dim - 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 16))
    @example(seed=3382, dim=8, n=14)  # b in the span of 8 passive columns: scipy's residual is exactly 0
    def test_nnls_residual_matches_scipy(self, seed, dim, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, n))
        b = rng.standard_normal(dim) * rng.choice([1e-3, 1.0, 10.0])
        assert abs(_nnls_residual(a, b, 50 * n) - nnls(a, b, maxiter=50 * n)[1]) <= 1e-12

    @pytest.mark.parametrize("restack", [False, True], ids=["one-stack", "restacked"])
    def test_rows_that_name_their_cones_are_decided_as_each_cone_alone(self, restack, monkeypatch):
        """One membership call over rows of many cones decides every row as
        its own cone does alone, and sends the same points to the NNLS: the
        certificates are the cone's own, padded to the stack's length. The
        cones come from one stack, or from stacks of several generator
        counts (facet and fit certificates, a cone of rank below dim among
        them), which the call restacks."""
        rng = np.random.default_rng(5)
        counts = (6, 7, 4, 9, 2) if restack else (6,)
        cones = []
        for m in counts:
            n = 3 if restack else 12
            gens = np.stack([gen_polyhedral_cone(100 * m + s, 3, m).generators for s in range(n)])
            cones += gpt._polyhedral_cones(gens, np.eye(3)[[0] * n])
        assert len({id(c._stack) for c in cones}) == len(counts)
        assert {bool(c._stack.fitted[c._at]) for c in cones} == ({True, False} if restack else {False})
        per = 16
        points = []
        for j, cone in enumerate(cones):  # members of the cone and of the next, points near it, random points
            points += list(rng.uniform(0, 1, (4, len(cone.generators))) @ cone.generators)
            points += list(cones[(j + 1) % len(cones)].generators.mean(axis=0) * rng.uniform(0.5, 2.0, (4, 1)))
            points += list(_probe_points(cone, rng, CONE_FEAS_TOL)[:4])
            points += list(3.0 * rng.standard_normal((per - len(points) % per, 3)))
        points = np.array(points)
        sent = []

        def nnls(a, b, maxiter):
            sent.append((a.tobytes(), b.tobytes()))
            return _nnls_residual(a, b, maxiter)

        monkeypatch.setattr(gpt, "_nnls_residual", nnls)
        expected = [cone._members(points[j * per:(j + 1) * per]) for j, cone in enumerate(cones)]
        alone, sent[:] = list(sent), []
        assert np.array_equal(gpt._members_in(cones, points, per), np.concatenate(expected))
        assert sent == alone
        with pytest.raises(ValueError, match="^a block's cones must share their kind$"):
            gpt._members_in([cones[0], SimplexCone(3)], points[:2])
        with pytest.raises(ValueError, match="^a block's cones must share their kind$"):
            gpt._members_in([cones[0], SimplexCone(3)], points[:2])

    def test_nnls_iteration_cap_raises(self):
        # three solves are needed to bring in three columns
        with pytest.raises(RuntimeError, match="iterations"):
            _nnls_residual(np.eye(3), np.ones(3), 2)
        assert _nnls_residual(np.eye(3), np.ones(3), 3) == 0.0

    def test_non_finite_generator_is_named(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="generators must be finite"):
                PolyhedralCone(np.array([[1.0, 0.0], [1.0, bad]]), np.array([1.0, 0.0]))

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aumann import (
    ConditioningOnNull,
    DensityOperator,
    Dovm,
    Event,
    KnowledgeModel,
    NotHermitian,
    NotPsd,
    Povm,
    ProbabilityMeasure,
    VerdictStatus,
    agreement_event,
    conditional_state,
    dovm_to_povm,
    dovm_value,
    gen_density,
    gen_dovm,
    gen_povm,
    gen_unconstrained_scenario,
    povm_to_dovm,
    psd_sqrt,
    psd_sqrt_pinv,
    quantum_agreement_event,
    require_hermitian,
    trace_norm,
    verify_quantum_aumann,
)
from aumann import gpt, quantum
from aumann.generators import _scenarios
from aumann.gpt import PsdCone
from aumann.scenario import _planted
from aumann.tolerances import MATCH_TOL, NULL_MASS_TOL, PSD_EIG_TOL
from aumann.verdicts import _statuses


def diag_dovm(*diagonals):
    """DOVM with diagonal atoms given per world as tuples of reals."""
    dim = len(diagonals[0])
    return Dovm(np.stack([np.diag(d).astype(complex) for d in diagonals]))


def classical_diag_dovm(weights):
    """Classical embedding: atom for world w is weight(w) on the (w, w) entry."""
    n = len(weights)
    atoms = np.zeros((n, n, n), dtype=complex)
    for w, p in enumerate(weights):
        atoms[w, w, w] = p
    return Dovm(atoms)


class TestHermitianHelpers:
    def test_symmetrizes_within_tolerance(self):
        m = np.array([[1.0, 1e-14], [0.0, 2.0]])
        out = require_hermitian(m)
        assert np.allclose(out, out.conj().T)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(NotHermitian):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            require_hermitian(np.ones((2, 3)))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a = g @ g.conj().T
            root = psd_sqrt(a)
            assert np.abs(root @ root - a).max() <= 1e-10 * max(1.0, np.abs(a).max())

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPsd):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_pinv_sqrt_on_support(self):
        m = np.diag([4.0, 0.0])
        inv_root, support = psd_sqrt_pinv(m)
        assert np.allclose(inv_root, np.diag([0.5, 0.0]))
        assert np.allclose(support, np.diag([1.0, 0.0]))
        assert np.allclose(inv_root @ m @ inv_root, support)


class TestStateTypes:
    def test_density_operator_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.5, 0.4]).astype(complex))
        with pytest.raises(NotPsd):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(NotHermitian):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_dovm_validation(self):
        with pytest.raises(NotPsd):
            diag_dovm((0.5, 0.0), (0.5, -0.1), (0.0, 0.1))
        with pytest.raises(ValueError):
            diag_dovm((0.5, 0.0), (0.0, 0.4))  # total trace 0.9

    def test_povm_validation(self):
        Povm(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex))
        with pytest.raises(ValueError):
            Povm(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]).astype(complex))

    def test_povm_completeness_flag(self):
        full = Povm(np.stack([np.eye(2, dtype=complex)]))
        assert full.is_complete
        partial = Povm(np.stack([np.diag([1.0, 0.0]).astype(complex)]))
        assert not partial.is_complete


class TestDovmValue:
    def test_full_event_is_density(self):
        rho = diag_dovm((0.5, 0.0), (0.0, 0.5))
        total = dovm_value(rho, Event.full(2))
        assert total.trace().real == pytest.approx(1.0)

    def test_empty_event_is_zero(self):
        rho = diag_dovm((0.5, 0.0), (0.0, 0.5))
        assert np.all(dovm_value(rho, Event.empty(2)) == 0)

    def test_single_world(self):
        rho = diag_dovm((0.5, 0.0), (0.0, 0.5))
        assert np.allclose(dovm_value(rho, Event.from_worlds([0], 2)), np.diag([0.5, 0.0]))

    def test_additivity(self):
        rho = gen_dovm(17, 5, 3)
        a = Event.from_worlds([0, 2], 5)
        b = Event.from_worlds([1, 4], 5)
        assert np.abs(dovm_value(rho, a | b) - dovm_value(rho, a) - dovm_value(rho, b)).max() <= 1e-12


class TestConditionalState:
    def test_full_event_returns_total(self):
        rho = gen_dovm(3, 4, 2)
        cs = conditional_state(rho, Event.full(4))
        assert np.allclose(cs.matrix, rho.total, atol=1e-12)

    def test_single_world_normalizes(self):
        rho = diag_dovm((0.5, 0.0), (0.0, 0.5))
        cs = conditional_state(rho, Event.from_worlds([0], 2))
        assert np.allclose(cs.matrix, np.diag([1.0, 0.0]))

    def test_null_event_raises(self):
        rho = diag_dovm((1.0, 0.0), (0.0, 0.0))
        with pytest.raises(ConditioningOnNull):
            conditional_state(rho, Event.from_worlds([1], 2))


class TestConversions:
    def test_dovm_to_povm_diagonal(self):
        rho = diag_dovm((0.5, 0.0), (0.0, 0.5))
        povm = dovm_to_povm(rho)
        assert np.allclose(povm.effects[0], np.diag([1.0, 0.0]))
        assert np.allclose(povm.effects[1], np.diag([0.0, 1.0]))
        assert povm.is_complete

    def test_single_world_gives_support_projector(self):
        sigma = gen_density(5, 3)
        rho = Dovm(sigma.matrix[None, :, :])
        povm = dovm_to_povm(rho)
        assert np.abs(povm.effects[0] - np.eye(3)).max() <= 1e-9  # full rank a.s.

    def test_rank_deficient_total(self):
        rho = Dovm(np.diag([1.0, 0.0]).astype(complex)[None, :, :])
        povm = dovm_to_povm(rho)
        assert np.allclose(povm.effects[0], np.diag([1.0, 0.0]))
        assert not povm.is_complete

    def test_povm_to_dovm_identity_effect(self):
        sigma = gen_density(9, 2)
        povm = Povm(np.eye(2, dtype=complex)[None, :, :])
        rho = povm_to_dovm(povm, sigma)
        assert np.allclose(rho.atoms[0], sigma.matrix, atol=1e-12)

    def test_povm_to_dovm_diagonal(self):
        sigma = DensityOperator(np.eye(2, dtype=complex) / 2)
        povm = Povm(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex))
        rho = povm_to_dovm(povm, sigma)
        assert np.allclose(rho.atoms[0], np.diag([0.5, 0.0]))
        assert np.allclose(rho.atoms[1], np.diag([0.0, 0.5]))

    def test_dimension_mismatch(self):
        povm = Povm(np.eye(2, dtype=complex)[None, :, :])
        with pytest.raises(ValueError):
            povm_to_dovm(povm, gen_density(1, 3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_round_trip_full_rank(self, seed):
        dim = 2 + seed % 3
        n_worlds = 1 + seed % 5
        povm = gen_povm(seed, n_worlds, dim)
        sigma = gen_density(seed + 1, dim)
        back = dovm_to_povm(povm_to_dovm(povm, sigma))
        assert np.abs(back.effects - povm.effects).max() <= 1e-8


class TestQuantumAgreement:
    def test_single_agent_constant_conditional(self):
        model = KnowledgeModel.from_blocks(2, [[[0, 1]]])
        rho = gen_dovm(2, 2, 2)
        sigma = conditional_state(rho, Event.full(2))
        assert quantum_agreement_event(model, rho, (sigma,)) == Event.full(2)

    def test_unnormalized_target_never_matches(self, model_b):
        rho = gen_dovm(4, 4, 2)
        bad = np.eye(2, dtype=complex) * 0.4  # trace 0.8
        assert not quantum_agreement_event(model_b, rho, (bad, bad))

    def test_diagonal_embedding_matches_classical_event(self, model_b):
        mu = ProbabilityMeasure(np.array([0.25, 0.25, 0.25, 0.25]))
        rho = classical_diag_dovm(mu.weights)
        h = model_b.event([0, 2])
        # target: diagonal state with the conditional distribution given each
        # agent's matching cell; both agents aim at the distribution on {0, 1}
        cond = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        quantum_event = quantum_agreement_event(model_b, rho, (cond, cond))
        classical_event = agreement_event(model_b, mu, h, (0.5, 0.5))
        assert quantum_event == classical_event == model_b.event([0, 1])

    def test_planted_scenario_holds(self):
        from aumann import gen_planted_scenario

        bundle = gen_planted_scenario(21, "quantum", 6, 3, dim=3)
        v = verify_quantum_aumann(bundle.model, bundle.measure, bundle.targets)
        assert v.status is VerdictStatus.HOLDS
        assert max(trace_norm(t - v.pooled_posterior.matrix) for t in v.posteriors) <= 1e-8

    def test_model_a_embedding_vacuous(self, model_a):
        rho = gen_dovm(11, 5, 2)
        target = conditional_state(rho, model_a.event([0, 1]))
        v = verify_quantum_aumann(model_a, rho, (target, target))
        assert v.status is VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE

    def test_diagonal_model_b_verdict(self, model_b):
        mu_weights = np.array([0.25, 0.25, 0.25, 0.25])
        rho = classical_diag_dovm(mu_weights)
        cond = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        v = verify_quantum_aumann(model_b, rho, (cond, cond))
        assert v.status is VerdictStatus.HOLDS
        pooled = v.pooled_posterior.matrix
        assert np.allclose(np.diag(pooled), [0.5, 0.5, 0.0, 0.0])
        assert np.abs(pooled - np.diag(np.diag(pooled))).max() == 0.0

    def test_target_count_checked(self, model_b):
        rho = gen_dovm(1, 4, 2)
        with pytest.raises(ValueError):
            quantum_agreement_event(model_b, rho, (np.eye(2, dtype=complex),))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_diagonal_reduction_conditionals(seed):
    """All-diagonal DOVMs reproduce classical conditionals exactly."""
    from aumann import gen_probability

    n = 2 + seed % 6
    mu = gen_probability(seed, n)
    rho = classical_diag_dovm(mu.weights)
    lam = Event(1 + seed % ((1 << n) - 1), n)
    cs = conditional_state(rho, lam)
    mass = sum(mu.weights[v] for v in lam)
    for w in range(n):
        expected = (mu.weights[w] if w in lam else 0.0) / mass
        assert abs(cs.matrix[w, w].real - expected) <= 1e-10


def _psd_atoms(n, dim=2, seed=0):
    """``n`` PSD matrices with total trace 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    atoms = g @ g.conj().transpose(0, 2, 1)
    return atoms / np.trace(atoms.sum(axis=0)).real


class TestBatchedChecks:
    def test_non_psd_atom_is_named(self):
        atoms = _psd_atoms(6)
        atoms[3] = np.diag([0.2, -0.1])
        with pytest.raises(NotPsd, match="atom 3 "):
            Dovm(atoms)

    def test_non_psd_effect_is_named(self):
        effects = np.stack([np.diag([0.25, 0.25])] * 4).astype(complex)
        effects[3] = np.diag([0.5, -0.25])
        effects[2] = np.diag([0.0, 0.75])
        with pytest.raises(NotPsd, match="effect 3 "):
            Povm(effects)

    def test_hermitian_checks_run_before_psd_checks(self):
        atoms = _psd_atoms(6)
        atoms[1] = np.diag([0.2, -0.1])
        atoms[4, 0, 1] += 0.1
        with pytest.raises(NotHermitian, match="atom 4 "):
            Dovm(atoms)

    def test_require_psd_names_the_first_low_matrix_of_a_block(self):
        """One reduction over the block's lowest eigenvalues: a NaN is not
        below the tolerance, and the first matrix below it is named by its
        index in its own stack."""
        lowest = np.zeros((170, 6))
        lowest[3, 4] = np.nan
        quantum._require_psd(lowest, "atom")
        lowest[169, 1] = lowest[169, 5] = -1e-3
        lowest[169, 2] = -PSD_EIG_TOL  # at the tolerance, not below it
        with pytest.raises(NotPsd, match=r"^atom 1 has eigenvalue -1\.000e-03 below -1e-09$"):
            quantum._require_psd(lowest, "atom")

    def test_first_bad_index_is_named(self):
        atoms = _psd_atoms(6)
        atoms[2] = atoms[5] = np.diag([0.2, -0.1])
        with pytest.raises(NotPsd, match="atom 2 "):
            Dovm(atoms)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_rejected(self, bad):
        atoms = np.array([[[0.5, 0.0], [0.0, 0.5]]], dtype=complex)
        atoms[0, 0, 0] = bad
        for build in (Dovm, Povm):
            with pytest.raises(ValueError, match="finite"):
                build(atoms)
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(atoms[0])

    def test_nan_dovm_atom_used_to_construct(self):
        with pytest.raises(ValueError, match="finite"):
            Dovm(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))

    def test_stacked_sandwich_matches_per_matrix_products(self):
        rho = gen_dovm(17, 5, 3)
        inv_root, _ = psd_sqrt_pinv(rho.total)
        looped = np.stack([inv_root @ a @ inv_root for a in rho.atoms])
        assert np.array_equal(dovm_to_povm(rho).effects, Povm(looped).effects)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_agreement_event_matches_per_cell_loop(self, seed, dim):
        """The batched cell distances decide exactly as one trace norm per cell."""
        bundle = gen_unconstrained_scenario(seed, "quantum", 6, 3, dim=dim)
        model, rho = bundle.model, bundle.measure
        expected = (1 << model.n_worlds) - 1
        for agent, target in enumerate(bundle.targets):
            agent_mask = 0
            for cell in model.partitions[agent].cells:
                value = dovm_value(rho, cell)
                tr = float(value.trace().real)
                if tr > NULL_MASS_TOL and trace_norm(value / tr - target.matrix) <= MATCH_TOL:
                    agent_mask |= cell.mask
            expected &= agent_mask
        assert quantum_agreement_event(model, rho, bundle.targets).mask == expected


# The PSD certificate: a Cholesky factorisation of the stack shifted by
# tol/2 passes a stack, and eigvalsh decides only where it fails or is not
# trusted. These frozen eigvalsh-only checks are what every PSD check did
# before it, and every decision and message must stay theirs.
def _old_psd_stack(raw, what):
    h = quantum._hermitian_stack(raw, what)
    quantum._require_psd(np.linalg.eigvalsh(h)[..., 0], what)
    return h


def _old_psd_rows_in(vs, tol):
    tol = PSD_EIG_TOL if tol is None else tol
    return np.linalg.eigvalsh(gpt._devectorize_rows(vs))[:, 0] >= -tol


def _with_spectrum(rng, vals):
    """A Hermitian matrix with eigenvalues ``vals`` (up to round-off) in a random eigenbasis."""
    d = len(vals)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = (q * np.asarray(vals)) @ q.conj().T
    return (m + m.conj().T) / 2


def _certificate_cases(d, tol):
    """Named matrices around the decision at ``tol``: PSD, rank-deficient,
    the least eigenvalue a relative 1e-6 either side of ``-tol`` and at
    ``-tol/2``, and the boundary cases again with entries near 1e6 and 1e12."""
    rng = np.random.default_rng(100 * d + 7)
    cases = {"psd": _with_spectrum(rng, rng.uniform(0.1, 1.0, d)),
             "rank-deficient": _with_spectrum(rng, np.r_[np.zeros((d + 1) // 2), rng.uniform(0.1, 1.0, d // 2)])}
    for scale in (1.0, 1e6, 1e12):
        for name, low in (("below", -tol * (1 + 1e-6)), ("above", -tol * (1 - 1e-6)), ("half", -tol / 2)):
            cases[f"{name} x{scale:g}"] = _with_spectrum(rng, np.r_[low, scale * rng.uniform(0.1, 1.0, d - 1)])
    return cases


def _outcome(check, *args):
    """What ``check`` returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except ValueError as e:
        return type(e), str(e)


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.dtype == b.dtype and np.array_equal(a, b)


class TestPsdCertificate:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_psd_stack_decides_as_eigvalsh(self, d):
        """Each case alone, as entry 2 of a stack of PSD matrices, and all
        cases in one stack: the same block, or the same error."""
        cases = _certificate_cases(d, PSD_EIG_TOL)
        filler = _with_spectrum(np.random.default_rng(d), np.linspace(0.2, 1.0, d))
        blocks = [np.stack([c])[None] for c in cases.values()]
        blocks += [np.stack([filler, filler, c, filler])[None] for c in cases.values()]
        blocks.append(np.stack(list(cases.values()))[None])
        for block in blocks:
            assert _same(_outcome(quantum._psd_stack, block, "atom"), _outcome(_old_psd_stack, block, "atom"))

    @pytest.mark.parametrize("tol", [-1e-3, 0.0, 1e-9, 10.0, None])
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_psd_membership_decides_as_eigvalsh(self, d, tol):
        """``PsdCone._rows_in``, and membership through ``_members_in``, on
        each case alone and on all at once; a negative ``tol`` admits
        nothing below ``|tol|``."""
        cases = _certificate_cases(d, PSD_EIG_TOL if tol is None else tol)
        vs = gpt._vectorize_rows(np.stack(list(cases.values())))
        cone = PsdCone(d)
        for rows in [vs[[i]] for i in range(len(vs))] + [vs]:
            owners = np.zeros(len(rows), dtype=np.intp)
            want = _old_psd_rows_in(rows, tol)
            assert _same(PsdCone._rows_in([cone], rows, owners, tol), want)
            assert _same(gpt._members_in([cone], rows, owners, tol), want)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_certificate_decides_passing_stacks(self, d, monkeypatch):
        """A PSD or rank-deficient stack of unit scale is passed by the
        factorisation alone, at the default and at a large ``tol``."""
        eigvalsh = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: eigvalsh.append(h) or np.zeros(h.shape[:-1]))
        for tol in (PSD_EIG_TOL, 10.0):
            cases = _certificate_cases(d, tol)
            h = np.stack([cases["psd"], cases["rank-deficient"]])
            assert _same(quantum._least_eigenvalues(h, tol), np.zeros(2))
        assert eigvalsh == []

    def test_certificate_is_not_trusted_at_a_floor_or_at_large_entries(self, monkeypatch):
        """At ``tol <= 0``, and where the entries are too large for the
        backward-error bound, ``eigvalsh`` decides even a PSD stack."""
        h = np.stack([np.eye(2), np.diag([1e6, 1.0])]).astype(complex)
        for tol, stack in ((0.0, h[:1]), (-1e-3, h[:1]), (PSD_EIG_TOL, h[1:]), (PSD_EIG_TOL, h)):
            assert _same(quantum._least_eigenvalues(stack, tol), np.linalg.eigvalsh(stack)[:, 0])
        assert _same(quantum._least_eigenvalues(h[:1], PSD_EIG_TOL), np.zeros(1))

    @pytest.mark.parametrize("layer, cone_kind", [("quantum", "simplex"), ("gpt", "psd")])
    def test_generated_blocks_make_no_psd_eigensolve(self, layer, cone_kind, monkeypatch):
        """A 96-seed ``mix`` block at 6 worlds and 2 agents, generated and
        verified: every PSD check is decided by the certificate, and the
        trace-norm distances (quantum only) keep their two eigensolves."""
        calls = Counter()

        def counted(solver):
            def call(*args, **kwargs):
                calls[solver.__name__, sys._getframe(1).f_code.co_name] += 1
                return solver(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
        block = _scenarios(layer, [(672 + i, _planted("mix", i)) for i in range(96)], 6, 2, 2, cone_kind, None).block
        _statuses(block, MATCH_TOL)
        distances = {("eigvalsh", "_trace_norms"): 2} if layer == "quantum" else {}
        certificates = 6 if layer == "quantum" else 12  # the eigensolves of the PSD checks before the certificate
        assert dict(calls) == {("cholesky", "_least_eigenvalues"): certificates, **distances}

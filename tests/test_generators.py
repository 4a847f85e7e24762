import numpy as np
import pytest

from aumann import (
    Event,
    GptState,
    ScenarioBundle,
    VerdictStatus,
    conditional,
    conditional_state,
    cone_membership,
    gen_density,
    gen_dovm,
    gen_model,
    gen_partition,
    gen_planted_scenario,
    gen_polyhedral_cone,
    gen_povm,
    gen_probability,
    gen_svm,
    gen_unconstrained_scenario,
    gpt_conditional_state,
    verify_bundle,
)
from aumann.generators import LAYERS, _make_cone, _planted_model, _rng
from aumann.gpt import PsdCone, SimplexCone


class TestGenPartition:
    def test_trivial_when_one_cell(self):
        for seed in range(10):
            p = gen_partition(seed, 5, 1)
            assert len(p) == 1 and p.cells[0] == Event.full(5)

    def test_singleton_partition_reachable(self):
        p = gen_partition(3, 4, 4)
        assert sorted(c.worlds() for c in p.cells) == [(0,), (1,), (2,), (3,)]

    def test_golden_seed(self):
        # pinned at first run; Philox keyed by the raw seed
        p = gen_partition(3, 4, 2)
        assert [c.worlds() for c in p.cells] == [(2, 3), (0, 1)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_partition(0, 4, 0)
        with pytest.raises(ValueError):
            gen_partition(0, 4, 5)
        with pytest.raises(ValueError):
            gen_partition(-1, 4, 2)

    def test_determinism(self):
        assert gen_partition(99, 8, 5) == gen_partition(99, 8, 5)


class TestGenDensity:
    def test_dim_one(self):
        assert np.allclose(gen_density(0, 1).matrix, [[1.0]])

    def test_valid_state(self):
        for seed in range(5):
            d = gen_density(seed, 4)
            vals = np.linalg.eigvalsh(d.matrix)
            assert vals.min() >= -1e-12
            assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    def test_golden_seed(self):
        m = gen_density(7, 2).matrix
        assert m[0, 0].real == pytest.approx(0.8957912187364674, abs=1e-15)
        assert m[0, 1] == pytest.approx(-0.25535797593521875 - 0.06421836116387641j, abs=1e-15)


class TestGenPovmAndDovm:
    def test_povm_is_complete(self):
        povm = gen_povm(13, 4, 3)
        assert povm.is_complete

    def test_dovm_single_world_atom_is_the_state(self):
        rho = gen_dovm(5, 1, 3)
        assert rho.n_worlds == 1
        assert np.allclose(rho.atoms[0], rho.total)
        assert rho.total.trace().real == pytest.approx(1.0)

    def test_dovm_invariants_hold(self):
        rho = gen_dovm(8, 5, 2)  # Dovm construction validates
        assert rho.n_worlds == 5

    def test_golden_seed(self):
        atom = gen_dovm(5, 3, 2).atoms[0]
        assert atom[0, 0].real == pytest.approx(0.5013599638829789, abs=1e-15)
        assert atom[0, 1] == pytest.approx(-0.12702148045418218 - 0.05901954666640537j, abs=1e-15)


class TestGenGpt:
    def test_polyhedral_cone_valid(self):
        cone = gen_polyhedral_cone(3, 5, 9)
        assert cone.generators.shape == (9, 5)
        for g in cone.generators:
            assert cone_membership(cone, g)

    def test_svm_all_kinds(self):
        for cone in (SimplexCone(3), PsdCone(2), gen_polyhedral_cone(1, 3, 5)):
            svm = gen_svm(6, cone, 4)
            assert svm.n_worlds == 4
            assert svm.cone.unit @ svm.total == pytest.approx(1.0)

    def test_unknown_cone_kind(self):
        with pytest.raises(ValueError):
            gen_planted_scenario(0, "gpt", 4, 2, cone_kind="lorentz")


class TestScenarioGenerators:
    @pytest.mark.parametrize("layer", ["classical", "quantum", "gpt"])
    def test_determinism_bit_identical(self, layer):
        a = gen_planted_scenario(123, layer, 6, 3, dim=2)
        b = gen_planted_scenario(123, layer, 6, 3, dim=2)
        assert a.model == b.model
        assert a.hypothesis == b.hypothesis
        assert a.planted_cell == b.planted_cell
        if layer == "classical":
            assert np.array_equal(a.measure.weights, b.measure.weights)
            assert a.targets == b.targets
        elif layer == "quantum":
            assert np.array_equal(a.measure.atoms, b.measure.atoms)
            assert np.array_equal(a.targets[0].matrix, b.targets[0].matrix)
        else:
            assert np.array_equal(a.measure.atoms, b.measure.atoms)
            assert np.array_equal(a.targets[0].coords, b.targets[0].coords)

    def test_classical_worlds_fit_the_hypothesis_draw(self):
        with pytest.raises(ValueError, match="at most 63 worlds, got 64"):
            gen_planted_scenario(0, "classical", 64, 2)
        assert gen_planted_scenario(0, "classical", 63, 2).model.n_worlds == 63

    def test_planted_cell_is_shared(self):
        bundle = gen_planted_scenario(77, "classical", 7, 3)
        cell = bundle.planted_cell
        for p in bundle.model.partitions:
            assert cell in p.cells

    def test_plant_soundness_classical_at_scale(self):
        # plants must be non-vacuous for every seed, not just almost surely
        for seed in range(10_000):
            bundle = gen_planted_scenario(seed, "classical", 2 + seed % 7, 1 + seed % 3)
            v = verify_bundle(bundle)
            assert not v.is_vacuous, (seed, v.status)
            assert v.status is VerdictStatus.HOLDS, seed

    @pytest.mark.parametrize("layer", ["quantum", "gpt"])
    def test_plant_soundness_sample(self, layer):
        for seed in range(300):
            bundle = gen_planted_scenario(seed, layer, 2 + seed % 7, 1 + seed % 3)
            v = verify_bundle(bundle)
            assert not v.is_vacuous, (layer, seed, v.status)
            assert v.status is VerdictStatus.HOLDS, (layer, seed)

    def test_unconstrained_anchoring(self):
        # find an anchored classical bundle and check the targets match
        from aumann import conditional

        for seed in range(20):
            bundle = gen_unconstrained_scenario(seed, "classical", 5, 2)
            if bundle.anchor_world is not None:
                for i, q in enumerate(bundle.targets):
                    cell = bundle.model.partitions[i].cell_of(bundle.anchor_world)
                    assert q == conditional(bundle.measure, bundle.hypothesis, cell)
                return
        pytest.fail("no anchored bundle in 20 seeds")

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            gen_planted_scenario(0, "thermal", 4, 2)
        with pytest.raises(ValueError):
            gen_planted_scenario(0, "classical", 1, 2)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            gen_probability(-3, 4)
        with pytest.raises(ValueError):
            gen_probability(1 << 64, 4)

    def test_probability_floor(self):
        for seed in range(50):
            mu = gen_probability(seed, 12)
            assert mu.weights.min() >= 1e-3 / 12 / 2


class TestHermitianSandwich:
    def test_psd_dim3_seed_166_generates(self):
        # the raw sandwich product missed HERMITIAN_TOL by round-off (1.165e-12)
        bundle = gen_unconstrained_scenario(166, "gpt", 6, 2, dim=3, cone_kind="psd")
        assert bundle.measure.atoms.shape == (6, 9)
        assert verify_bundle(bundle).status is not VerdictStatus.VIOLATED

    def test_sandwich_is_exactly_hermitian(self):
        for seed in range(20):
            effects = gen_povm(seed, 6, 3).effects
            assert np.array_equal(effects, effects.conj().transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# The two scenario families as they were written before they shared one
# per-layer draw, each with its own three-way layer dispatch. They are the
# reference the shared draw must reproduce bit for bit; the helpers they
# call (model, measure and cone draws) are the package's own.

def _old_random_state(rng, cone):
    single = gen_svm(rng, cone, 1)
    return GptState(cone, single.atoms[0])


def _old_gen_planted_scenario(seed, layer, n_worlds, n_agents, dim=2, cone_kind="simplex", n_generators=None):
    if layer not in LAYERS:
        raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
    if n_worlds < 2:
        raise ValueError("planted scenarios need at least 2 worlds")
    rng = _rng(seed)
    model, shared = _planted_model(rng, n_worlds, n_agents)
    if layer == "classical":
        mu = gen_probability(rng, n_worlds)
        hypothesis = Event(int(rng.integers(0, 1 << n_worlds)), n_worlds)
        q = conditional(mu, hypothesis, shared)
        return ScenarioBundle("classical", model, mu, hypothesis, (q,) * n_agents, planted_cell=shared)
    if layer == "quantum":
        rho = gen_dovm(rng, n_worlds, dim)
        sigma = conditional_state(rho, shared)
        return ScenarioBundle("quantum", model, rho, None, (sigma,) * n_agents, planted_cell=shared)
    cone = _make_cone(rng, cone_kind, dim, n_generators)
    svm = gen_svm(rng, cone, n_worlds)
    target = gpt_conditional_state(svm, shared)
    return ScenarioBundle("gpt", model, svm, None, (target,) * n_agents, planted_cell=shared)


def _old_gen_unconstrained_scenario(seed, layer, n_worlds, n_agents, dim=2, cone_kind="simplex", n_generators=None):
    if layer not in LAYERS:
        raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
    rng = _rng(seed)
    model = gen_model(rng, n_worlds, n_agents)
    anchored = bool(rng.integers(0, 2))
    anchor = int(rng.integers(0, n_worlds)) if anchored else None
    if layer == "classical":
        mu = gen_probability(rng, n_worlds)
        hypothesis = Event(int(rng.integers(0, 1 << n_worlds)), n_worlds)
        if anchored:
            targets = tuple(
                conditional(mu, hypothesis, model.partitions[i].cell_of(anchor))
                for i in range(n_agents)
            )
        else:
            targets = tuple(float(x) for x in rng.random(n_agents))
        return ScenarioBundle("classical", model, mu, hypothesis, targets, anchor_world=anchor)
    if layer == "quantum":
        rho = gen_dovm(rng, n_worlds, dim)
        if anchored:
            targets = tuple(
                conditional_state(rho, model.partitions[i].cell_of(anchor)) for i in range(n_agents)
            )
        else:
            targets = tuple(gen_density(rng, dim) for _ in range(n_agents))
        return ScenarioBundle("quantum", model, rho, None, targets, anchor_world=anchor)
    cone = _make_cone(rng, cone_kind, dim, n_generators)
    svm = gen_svm(rng, cone, n_worlds)
    if anchored:
        targets = tuple(
            gpt_conditional_state(svm, model.partitions[i].cell_of(anchor)) for i in range(n_agents)
        )
    else:
        targets = tuple(_old_random_state(rng, cone) for _ in range(n_agents))
    return ScenarioBundle("gpt", model, svm, None, targets, anchor_world=anchor)


def _target_bytes(t) -> tuple:
    if isinstance(t, float):
        return "float", np.float64(t).tobytes()
    a = t.coords if isinstance(t, GptState) else t.matrix
    return type(t).__name__, a.dtype.str, a.shape, a.tobytes()


def _bundle_bytes(b: ScenarioBundle) -> tuple:
    """Everything a bundle holds, as bytes and ints: equal tuples mean
    bit-identical bundles."""
    m = b.measure
    raw = m.weights if b.layer == "classical" else m.atoms
    cone = getattr(m, "cone", None)
    cone_bytes = None
    if cone is not None:
        gens = getattr(cone, "generators", None)
        cone_bytes = (cone.kind, cone.dim, cone.unit.tobytes(), None if gens is None else gens.tobytes())
    return (
        b.layer,
        b.model.n_worlds,
        tuple(tuple(p.masks) for p in b.model.partitions),
        type(m).__name__, raw.dtype.str, raw.shape, raw.tobytes(),
        cone_bytes,
        tuple(_target_bytes(t) for t in b.targets),
        None if b.hypothesis is None else b.hypothesis.mask,
        None if b.planted_cell is None else b.planted_cell.mask,
        b.anchor_world,
    )


_PINNED_KINDS = {
    "classical": ("classical", {}),
    "quantum-d2": ("quantum", {"dim": 2}),
    "quantum-d3": ("quantum", {"dim": 3}),
    "gpt-simplex": ("gpt", {"cone_kind": "simplex", "dim": 3}),
    "gpt-psd": ("gpt", {"cone_kind": "psd", "dim": 2}),
    "gpt-polyhedral": ("gpt", {"cone_kind": "polyhedral", "dim": 3}),
    "gpt-polyhedral-5gen": ("gpt", {"cone_kind": "polyhedral", "dim": 4, "n_generators": 5}),
}
_PINNED_SIZES = ((2, 1), (6, 2), (12, 3), (48, 6))  # (worlds, agents)
_FAMILIES = {
    "planted": (gen_planted_scenario, _old_gen_planted_scenario),
    "unconstrained": (gen_unconstrained_scenario, _old_gen_unconstrained_scenario),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("kind", list(_PINNED_KINDS))
def test_bundles_match_the_per_family_dispatch(family, kind):
    """The shared per-layer draw gives every family the bundles, bit for bit,
    that its own dispatch gave: same draws, in the same order."""
    gen, old = _FAMILIES[family]
    layer, kw = _PINNED_KINDS[kind]
    for n_worlds, n_agents in _PINNED_SIZES:
        for seed in range(40):
            args = (seed, layer, n_worlds, n_agents)
            assert _bundle_bytes(gen(*args, **kw)) == _bundle_bytes(old(*args, **kw)), (args, kw)

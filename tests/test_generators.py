import numpy as np
import pytest

from aumann import (
    Event,
    GptState,
    KnowledgeModel,
    Partition,
    ScenarioBundle,
    VerdictStatus,
    conditional,
    conditional_state,
    cone_membership,
    dovm_value,
    gen_density,
    gen_dovm,
    gen_partition,
    gen_planted_scenario,
    gen_polyhedral_cone,
    gen_povm,
    gen_probability,
    gen_svm,
    gen_unconstrained_scenario,
    gpt_conditional_state,
    probability,
    svm_value,
    verify_bundle,
)
from aumann import generators, quantum, verdicts
from aumann.classical import ProbabilityMeasure
from aumann.errors import ConditioningOnNull, NotPsd
from aumann.generators import BLOCK_SEEDS, LAYERS, _rng, _scenarios
from aumann.gpt import PolyhedralCone, PsdCone, SimplexCone, Svm, _polyhedral_cones, _vectorize_rows
from aumann.quantum import DensityOperator, Dovm, Povm, _instances, require_hermitian
from aumann.scenario import run_gen, serialize_scenario
from aumann.tolerances import NULL_MASS_TOL


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


def _plain(state):
    """A bit generator's state with its arrays as lists, comparable with ``==``."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1])
def test_rng_is_philox_keyed_by_the_seed(seed):
    """``_rng`` keys Philox without ``Philox(key=)``'s throwaway
    SeedSequence, and gets its state and its words."""
    got, want = _rng(seed).bit_generator, np.random.Philox(key=seed)
    assert type(got) is np.random.Philox
    assert _plain(got.state) == _plain(want.state)
    assert _plain(got.state)["state"] == {"counter": [0, 0, 0, 0], "key": [seed, 0]}
    assert got.random_raw(64).tolist() == want.random_raw(64).tolist()
    assert _plain(got.state) == _plain(want.state)
    draws = np.random.Generator(np.random.Philox(key=seed)).standard_normal(9)
    assert _rng(seed).standard_normal(9).tobytes() == draws.tobytes()


def _mixed_draws(rng):
    """Draws that read whole 64-bit words, 32-bit halves and bounded integers."""
    return [rng.standard_normal(5).tobytes(), rng.random(3, dtype=np.float32).tobytes(),
            rng.integers(0, 7, size=9).tobytes(), rng.integers(0, 10, size=3, dtype=np.uint32).tobytes(),
            rng.bit_generator.random_raw(6).tobytes()]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7, 2**64 - 1])
@pytest.mark.parametrize("leftover", ["none", "half-used uint32", "partly read buffer"])
def test_a_rekeyed_generator_draws_the_seeds_own_stream(seed, leftover):
    """A block's one generator, rekeyed to ``seed`` after the previous seed
    drew, has the state of ``Philox(key=seed)`` and draws its numbers bit
    for bit, whatever the previous seed left buffered."""
    rng = generators._stream(5, np.random.Generator(np.random.Philox(key=99)))
    if leftover != "none":
        _mixed_draws(rng)
    if leftover == "half-used uint32":
        while not rng.bit_generator.state["has_uint32"]:
            rng.random(dtype=np.float32)
    elif leftover == "partly read buffer":
        while not 0 < rng.bit_generator.state["buffer_pos"] < 4:
            rng.bit_generator.random_raw(1)
    assert generators._stream(seed, rng) is rng
    want = np.random.Generator(np.random.Philox(key=seed))
    assert _plain(rng.bit_generator.state) == _plain(want.bit_generator.state)
    assert _mixed_draws(rng) == _mixed_draws(want)
    assert _plain(rng.bit_generator.state) == _plain(want.bit_generator.state)


def test_no_generator_outlives_its_call():
    """The module keeps no generator, so concurrent ``gen_*`` calls stay independent."""
    assert not [name for name, value in vars(generators).items()
                if isinstance(value, (np.random.Generator, np.random.BitGenerator))]


@pytest.mark.parametrize("seeds, bad", [([2**64], 2**64), ([-1], -1), ([2**64 - 2, 2**64 - 1, 2**64], 2**64),
                                        ([-3, -2], -3)])
def test_a_block_names_a_seed_out_of_range(seeds, bad):
    """A block names its first seed out of the 64-bit range as a search or ``_rng`` would."""
    with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, got {bad}$"):
        _scenarios("quantum", [(seed, True) for seed in seeds], 6, 2, 2, "simplex", None)
    if len(seeds) == 1:
        with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, got {bad}$"):
            gen_planted_scenario(seeds[0], "quantum", 6, 2)


@pytest.mark.parametrize("layer, cone_kind", [("classical", "simplex"), ("quantum", "simplex"), ("gpt", "psd"),
                                              ("gpt", "polyhedral")])
def test_a_generator_seed_is_drawn_from_as_it_is(layer, cone_kind):
    """A ``np.random.Generator`` passed as the seed of a scenario generator
    or ``run_gen`` is its own stream: ``Generator(Philox(key=7))`` gives the
    bits of seed 7, and the generator is drawn from, not rekeyed."""
    for gen, planted in ((gen_planted_scenario, True), (gen_unconstrained_scenario, False)):
        rng = np.random.Generator(np.random.Philox(key=7))
        got = gen(rng, layer, 6, 2, dim=2, cone_kind=cone_kind)
        assert _bundle_bytes(got) == _bundle_bytes(gen(7, layer, 6, 2, dim=2, cone_kind=cone_kind))
        assert rng.bit_generator.state["state"]["key"].tolist() == [7, 0]
        assert rng.bit_generator.state["state"]["counter"].tolist() != [0, 0, 0, 0]
        want = serialize_scenario(run_gen(layer, 7, cone_kind=cone_kind, planted=planted))
        rng = np.random.Generator(np.random.Philox(key=7))
        assert serialize_scenario(run_gen(layer, rng, cone_kind=cone_kind, planted=planted)) == want


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
        for bad in (lambda: gen_planted_scenario(0, "quantum", 4, 2, dim=0), lambda: gen_svm(0, PsdCone(2), 0)):
            with pytest.raises(ValueError, match="dim and n_worlds must be positive"):
                bad()

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
# The reference the generators must reproduce bit for bit: the two scenario
# families as they were written before they shared one per-layer draw, each
# with its own three-way layer dispatch, over the measure draws as they were
# written before blocks of seeds were built as one stack, one seed at a
# time, with the square roots and sandwiches of that time. The model draws
# are frozen as they were before a block built its partitions from one
# label stack, one partition at a time through the cell constructor. Only
# the probability draw and the polyhedral cone draw are the package's own;
# the constructors run their checks on each object alone.
# The three conditionals are frozen too, as they were before every layer
# conditioned through the pipeline's one event sum: a pure-Python sum of
# weights, the atoms' sum over the event's worlds, and a division by the
# trace or by one dot with the unit.

def _old_cell_labels(rng, n, max_cells):
    k = int(rng.integers(1, max_cells + 1))
    order = rng.permutation(n)
    labels = np.empty(n, dtype=np.intp)
    labels[order[:k]] = np.arange(k)
    if n > k:
        labels[order[k:]] = rng.integers(0, k, size=n - k)
    return labels


def _old_partition(labels, n):
    """The partition whose cell ``k`` holds the worlds labelled ``k``, built from its cells."""
    return Partition(Event.from_worlds(np.flatnonzero(labels == k).tolist(), n) for k in range(int(labels.max()) + 1))


def _old_gen_model(rng, n_worlds, n_agents):
    partitions = tuple(_old_partition(_old_cell_labels(rng, n_worlds, n_worlds), n_worlds) for _ in range(n_agents))
    return KnowledgeModel(n_worlds, partitions)


def _old_planted_model(rng, n_worlds, n_agents):
    size = int(rng.integers(1, n_worlds))
    perm = rng.permutation(n_worlds)
    rest = np.sort(perm[size:])
    partitions = []
    for _ in range(n_agents):
        labels = np.zeros(n_worlds, dtype=np.intp)  # cell 0 is the shared cell
        labels[rest] = _old_cell_labels(rng, rest.size, rest.size) + 1
        partitions.append(_old_partition(labels, n_worlds))
    return KnowledgeModel(n_worlds, tuple(partitions)), Event(partitions[0].masks[0], n_worlds)


def _old_probability(mu, e):
    w = mu.weights.tolist()
    total = 0.0
    for world in e:
        total += w[world]
    return total


def _old_conditional(mu, h, lam):
    p_lam = _old_probability(mu, lam)
    if p_lam <= NULL_MASS_TOL:
        raise ConditioningOnNull(f"event {lam.worlds()} has mass {p_lam!r}")
    return _old_probability(mu, h & lam) / p_lam


def _old_event_value(atoms, e):
    if not e:
        return np.zeros(atoms.shape[1:], dtype=atoms.dtype)
    return atoms[np.fromiter(e, dtype=np.intp)].sum(axis=0)


def _old_conditional_state(rho, lam):
    value = _old_event_value(rho.atoms, lam)
    tr = float(value.trace().real)
    if tr <= NULL_MASS_TOL:
        raise ConditioningOnNull(f"event {lam.worlds()} has trace mass {tr!r}")
    return DensityOperator(value / tr)


def _old_gpt_conditional_state(mu, lam):
    value = _old_event_value(mu.atoms, lam)
    u = float(mu.cone.unit @ value)
    if u <= NULL_MASS_TOL:
        raise ConditioningOnNull(f"event {lam.worlds()} has unit mass {u!r}")
    return GptState(mu.cone, value / u)


def _old_sandwich(root, stack):
    p = root @ stack @ root
    return (p + p.conj().transpose(0, 2, 1)) / 2.0


def _old_eigh(m):
    return np.linalg.eigh(require_hermitian(m))


def _old_psd_sqrt(m):
    vals, vecs = _old_eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _old_psd_sqrt_pinv(m):
    vals, vecs = _old_eigh(m)
    keep = vals > 1e-12
    inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.where(keep, vals, 1.0)), 0.0)
    return (vecs * inv_sqrt) @ vecs.conj().T


def _old_ginibre_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def _old_gen_density(rng, dim):
    m = _old_ginibre_psd(rng, dim)
    return DensityOperator(m / m.trace().real)


def _old_gen_povm(rng, n_worlds, dim):
    atoms = np.stack([_old_ginibre_psd(rng, dim) for _ in range(n_worlds)])
    inv_root = _old_psd_sqrt_pinv(atoms.sum(axis=0))
    return Povm(_old_sandwich(inv_root, atoms))


def _old_gen_dovm(rng, n_worlds, dim):
    povm = _old_gen_povm(rng, n_worlds, dim)
    sigma = _old_gen_density(rng, dim)
    return Dovm(_old_sandwich(_old_psd_sqrt(sigma.matrix), povm.effects))


def _old_gen_svm(rng, cone, n_worlds):
    if isinstance(cone, SimplexCone):
        atoms = rng.uniform(0.1, 1.0, size=(n_worlds, cone.dim))
    elif isinstance(cone, PsdCone):
        rho = _old_gen_dovm(rng, n_worlds, cone.matrix_dim)
        return Svm(PsdCone(rho.dim), _vectorize_rows(rho.atoms))
    else:
        weights = rng.uniform(0.1, 1.0, size=(n_worlds, cone.generators.shape[0]))
        atoms = weights @ cone.generators
    total_u = float(cone.unit @ atoms.sum(axis=0))
    return Svm(cone, atoms / total_u)


def _old_make_cone(rng, cone_kind, dim, n_generators):
    if cone_kind == "simplex":
        return SimplexCone(dim)
    if cone_kind == "psd":
        return PsdCone(dim)
    return gen_polyhedral_cone(rng, dim, n_generators or 2 * dim)


def _old_random_state(rng, cone):
    single = _old_gen_svm(rng, cone, 1)
    return GptState(cone, single.atoms[0])


def _old_gen_planted_scenario(seed, layer, n_worlds, n_agents, dim=2, cone_kind="simplex", n_generators=None):
    if layer not in LAYERS:
        raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
    if n_worlds < 2:
        raise ValueError("planted scenarios need at least 2 worlds")
    rng = _rng(seed)
    model, shared = _old_planted_model(rng, n_worlds, n_agents)
    if layer == "classical":
        mu = gen_probability(rng, n_worlds)
        hypothesis = Event(int(rng.integers(0, 1 << n_worlds)), n_worlds)
        q = _old_conditional(mu, hypothesis, shared)
        return ScenarioBundle("classical", model, mu, hypothesis, (q,) * n_agents, planted_cell=shared)
    if layer == "quantum":
        rho = _old_gen_dovm(rng, n_worlds, dim)
        sigma = _old_conditional_state(rho, shared)
        return ScenarioBundle("quantum", model, rho, None, (sigma,) * n_agents, planted_cell=shared)
    cone = _old_make_cone(rng, cone_kind, dim, n_generators)
    svm = _old_gen_svm(rng, cone, n_worlds)
    target = _old_gpt_conditional_state(svm, shared)
    return ScenarioBundle("gpt", model, svm, None, (target,) * n_agents, planted_cell=shared)


def _old_gen_unconstrained_scenario(seed, layer, n_worlds, n_agents, dim=2, cone_kind="simplex", n_generators=None):
    if layer not in LAYERS:
        raise ValueError(f"layer must be one of {LAYERS}, got {layer!r}")
    rng = _rng(seed)
    model = _old_gen_model(rng, n_worlds, n_agents)
    anchored = bool(rng.integers(0, 2))
    anchor = int(rng.integers(0, n_worlds)) if anchored else None
    if layer == "classical":
        mu = gen_probability(rng, n_worlds)
        hypothesis = Event(int(rng.integers(0, 1 << n_worlds)), n_worlds)
        if anchored:
            targets = tuple(
                _old_conditional(mu, hypothesis, model.partitions[i].cell_of(anchor))
                for i in range(n_agents)
            )
        else:
            targets = tuple(float(x) for x in rng.random(n_agents))
        return ScenarioBundle("classical", model, mu, hypothesis, targets, anchor_world=anchor)
    if layer == "quantum":
        rho = _old_gen_dovm(rng, n_worlds, dim)
        if anchored:
            targets = tuple(
                _old_conditional_state(rho, model.partitions[i].cell_of(anchor)) for i in range(n_agents)
            )
        else:
            targets = tuple(_old_gen_density(rng, dim) for _ in range(n_agents))
        return ScenarioBundle("quantum", model, rho, None, targets, anchor_world=anchor)
    cone = _old_make_cone(rng, cone_kind, dim, n_generators)
    svm = _old_gen_svm(rng, cone, n_worlds)
    if anchored:
        targets = tuple(
            _old_gpt_conditional_state(svm, model.partitions[i].cell_of(anchor)) for i in range(n_agents)
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
        tuple((p.labels.dtype.str, p.labels.tobytes(), tuple(p.masks)) for p in b.model.partitions),
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
    # 12 generators need C(12, 5) * 6 minors, past gpt._MAX_FACET_MINORS: the fit certificate and the NNLS decide
    "gpt-polyhedral-dim6": ("gpt", {"cone_kind": "polyhedral", "dim": 6}),
}
_PINNED_SIZES = ((2, 1), (6, 2), (12, 3), (48, 6))  # (worlds, agents)
_FAMILIES = {
    "planted": (gen_planted_scenario, _old_gen_planted_scenario),
    "unconstrained": (gen_unconstrained_scenario, _old_gen_unconstrained_scenario),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("kind", list(_PINNED_KINDS))
def test_bundles_match_the_per_family_dispatch(family, kind):
    """The shared per-seed draw and block build give every family the
    bundles, bit for bit, that its own dispatch gave: same draws, in the
    same order, and the same arithmetic."""
    gen, old = _FAMILIES[family]
    layer, kw = _PINNED_KINDS[kind]
    for n_worlds, n_agents in _PINNED_SIZES:
        for seed in range(40):
            args = (seed, layer, n_worlds, n_agents)
            assert _bundle_bytes(gen(*args, **kw)) == _bundle_bytes(old(*args, **kw)), (args, kw)


def _block(layer, seeds, n_worlds, n_agents, dim=2, cone_kind="simplex", n_generators=None):
    return _scenarios(layer, seeds, n_worlds, n_agents, dim, cone_kind, n_generators)


def _family(b: ScenarioBundle) -> str:
    return "planted" if b.planted_cell is not None else "free" if b.anchor_world is None else "anchored"


@pytest.mark.parametrize("kind", list(_PINNED_KINDS))
def test_blocks_match_the_per_seed_reference(kind):
    """A block that mixes planted, anchored and free seeds gives every seed
    the bundle, bit for bit, that the per-seed reference gives it alone:
    each seed draws from its own stream, and the block's stacked arithmetic
    rounds as the per-seed arithmetic did."""
    layer, kw = _PINNED_KINDS[kind]
    for n_worlds, n_agents in _PINNED_SIZES:
        families = set()
        for length in (1, 2, BLOCK_SEEDS + 1):
            for first in range(0, 120, max(length, 20)):
                seeds = [(first + i, (first + i) % 3 == 0) for i in range(length)]
                block = _block(layer, seeds, n_worlds, n_agents, **kw)
                assert len(block) == length
                for (seed, planted), got in zip(seeds, block):
                    old = _old_gen_planted_scenario if planted else _old_gen_unconstrained_scenario
                    assert _bundle_bytes(got) == _bundle_bytes(old(seed, layer, n_worlds, n_agents, **kw)), (
                        seed, length, n_worlds, n_agents)
                families.update(_family(b) for b in block)
        assert families == {"planted", "anchored", "free"}


@pytest.mark.parametrize("kind", ["quantum-d2", "gpt-simplex"])
def test_blocks_past_64_worlds_match_the_per_seed_reference(kind):
    """At 70 worlds a cell's mask takes two 64-bit words in the block's
    partition build; every seed still gets the per-seed reference's bundle
    bit for bit."""
    layer, kw = _PINNED_KINDS[kind]
    seeds = [(i, i % 3 == 0) for i in range(BLOCK_SEEDS + 1)]
    block = _block(layer, seeds, 70, 3, **kw)
    for (seed, planted), got in zip(seeds, block):
        old = _old_gen_planted_scenario if planted else _old_gen_unconstrained_scenario
        assert _bundle_bytes(got) == _bundle_bytes(old(seed, layer, 70, 3, **kw)), seed
    assert {_family(b) for b in block} == {"planted", "anchored", "free"}
    low = (1 << 64) - 1
    assert any(m & low and m >> 64 for b in block for p in b.model.partitions for m in p.masks)  # joined words


def _null_world_zero(m):
    """``m`` with world 0's atom (or weight) added to world 1's and set to zero."""
    raw = (m.weights if isinstance(m, ProbabilityMeasure) else m.atoms).copy()
    raw[1] += raw[0]
    raw[0] = 0.0
    if isinstance(m, ProbabilityMeasure):
        return ProbabilityMeasure(raw)
    return Dovm(raw) if isinstance(m, Dovm) else Svm(m.cone, raw)


def _public_and_frozen(layer, m, h):
    """(public, frozen) pairs of functions of an event: the conditional and
    the measure value, as arrays or floats."""
    if layer == "classical":
        return [(lambda e: conditional(m, h, e), lambda e: _old_conditional(m, h, e)),
                (lambda e: probability(m, e), lambda e: _old_probability(m, e))]
    if layer == "quantum":
        return [(lambda e: conditional_state(m, e).matrix, lambda e: _old_conditional_state(m, e).matrix),
                (lambda e: dovm_value(m, e), lambda e: _old_event_value(m.atoms, e))]
    return [(lambda e: gpt_conditional_state(m, e).coords, lambda e: _old_gpt_conditional_state(m, e).coords),
            (lambda e: svm_value(m, e), lambda e: _old_event_value(m.atoms, e))]


def _value_bytes(x) -> tuple:
    if isinstance(x, float):
        return "float", np.float64(x).tobytes()
    return x.dtype.str, x.shape, x.tobytes()


@pytest.mark.parametrize("n_worlds, n_agents", _PINNED_SIZES)
@pytest.mark.parametrize("kind", list(_PINNED_KINDS))
def test_public_conditionals_match_the_frozen_ones(kind, n_worlds, n_agents):
    """``conditional``, ``conditional_state`` and ``gpt_conditional_state``,
    now blocks of one through the pipeline's event sum, and ``probability``,
    ``dovm_value`` and ``svm_value`` give the frozen per-layer code's values
    bit for bit on the empty and full events, every cell and random events,
    and raise :class:`ConditioningOnNull` where it raised: on the empty
    event, and on a world whose atom is zero."""
    layer, kw = _PINNED_KINDS[kind]
    for seed in range(3):
        bundle = gen_unconstrained_scenario(seed, layer, n_worlds, n_agents, **kw)
        rng = _rng(50_000 + seed)
        events = [Event.empty(n_worlds), Event.full(n_worlds), Event.from_worlds([0], n_worlds)]
        events += [cell for p in bundle.model.partitions for cell in p.cells]
        events += [Event(int(rng.integers(0, 1 << 62)) & ((1 << n_worlds) - 1), n_worlds) for _ in range(6)]
        raised = set()
        for k, m in enumerate((bundle.measure, _null_world_zero(bundle.measure))):
            for public, frozen in _public_and_frozen(layer, m, bundle.hypothesis):
                for e in events:
                    try:
                        expected = frozen(e)
                    except ConditioningOnNull:
                        with pytest.raises(ConditioningOnNull, match=r"^event \(.*\) has mass 0\.0$"):
                            public(e)
                        raised.add((k, e.mask))
                        continue
                    assert _value_bytes(public(e)) == _value_bytes(expected), (seed, e)
        assert {(0, 0), (1, 0), (1, 1)} <= raised  # the empty event, and world 0 once it is null


def _array_bytes(obj) -> bytes:
    return next(v for v in vars(obj).values() if isinstance(v, np.ndarray)).tobytes()


def _faulty(block: np.ndarray, k: int, fault: str) -> np.ndarray:
    """``block`` with entry ``k`` broken: a NaN, a non-Hermitian matrix, or
    a non-PSD matrix of unchanged total (item 1 of a stack)."""
    bad = block.copy()
    m = bad[k] if bad.ndim == 3 else bad[k, 1]
    d = m.shape[-1]
    if fault == "nan":
        m[0, d - 1] = np.nan
    elif fault == "non-hermitian":
        m[0, d - 1] += 0.25
    else:
        shift = np.diag(np.r_[2.0, -2.0, np.zeros(d - 2)])
        m -= shift if bad.ndim == 3 else 2 * np.eye(d)
        if bad.ndim == 4:
            bad[k, 0] += 2 * np.eye(d)  # keeps the stack's total
    return bad


def _polyhedral_stack(n: int = 4, dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The generators and units of ``n`` random cones, stacked."""
    return np.stack([gen_polyhedral_cone(seed, dim, 2 * dim).generators for seed in range(n)]), np.eye(dim)[[0] * n]


def _state_coords(k: int, fault: str) -> tuple[list, np.ndarray]:
    """A cone per entry and a state of each, entry ``k`` broken: a NaN, or
    a point of unit value 1 outside its cone (a PSD one; or a polyhedral
    one, the point lying in another cone of the block)."""
    if fault != "outside-own-cone":
        cones = [PsdCone(2)] * 4
        coords = np.stack([gen_svm(seed, cones[0], 1).atoms[0] for seed in range(4)])
        if fault == "nan":
            coords[k, 1] = np.nan
        else:  # diag(1.5, -0.5): unit trace, outside the cone
            coords[k] = [1.5, -0.5, 0.0, 0.0]
        return cones, coords
    cones = _polyhedral_cones(*_polyhedral_stack())
    coords = np.stack([gen_svm(seed, cone, 1).atoms[0] for seed, cone in enumerate(cones)])
    # the centroid of another cone's generators (1, x), well inside that cone
    coords[k] = next(c for c in (cone.generators.mean(axis=0) for cone in cones) if not cones[k].contains(c))
    return cones, coords


_BLOCKS = {
    "DensityOperator": (DensityOperator, (), lambda: np.stack([gen_density(s, 3).matrix for s in range(4)])),
    "Povm": (Povm, (), lambda: np.stack([gen_povm(s, 3, 3).effects for s in range(4)])),
    "Dovm": (Dovm, (), lambda: np.stack([gen_dovm(s, 3, 3).atoms for s in range(4)])),
}


@pytest.mark.parametrize(
    "name, fault",
    [(name, fault) for name in _BLOCKS for fault in ("nan", "non-hermitian", "non-psd")]
    # coordinates are real; a GPT check takes a cone per entry
    + [(name, fault) for name in ("Svm", "GptState") for fault in ("nan", "non-psd", "outside-own-cone")],
)
def test_stacked_checks_raise_what_single_constructors_raise(name, fault):
    """A bad entry at index k of a block raises the exception, message
    included, that building that entry alone raises."""
    k = 2
    if name in _BLOCKS:
        cls, heads, make = _BLOCKS[name]
        bad = _faulty(make(), k, fault)
    else:
        cls = Svm if name == "Svm" else GptState
        cones, coords = _state_coords(k, fault)
        heads = (cones,)
        bad = np.stack([coords] * 3, axis=1) / 3 if cls is Svm else coords
    with pytest.raises(ValueError) as alone:
        cls(*(h[k] for h in heads), bad[k])
    with pytest.raises(ValueError) as block:
        cls._check(*heads, bad)
    assert type(block.value) is type(alone.value)
    assert str(block.value) == str(alone.value)
    good = np.delete(bad, k, axis=0)  # the other entries pass, and wrap as if built alone
    heads = [h[:k] + h[k + 1:] for h in heads]
    for j, (entry, obj) in enumerate(zip(good, _instances(cls, cls._check(*heads, good), *heads))):
        assert _array_bytes(obj) == _array_bytes(cls(*(h[j] for h in heads), entry))


def _certificate_bytes(cone: PolyhedralCone) -> tuple:
    stack, k = cone._stack, cone._at
    own = max(stack.counts[k], 1)
    return tuple(a.tobytes() for a in (stack.normals[k, :own], stack.counts[k], stack.margins[k], stack.fitted[k],
                                       stack.fits[k], stack.bases[k], cone.generators, cone.unit))


@pytest.mark.parametrize("fault, message", [
    pytest.param("non-pointed", "cone is not pointed: -generators[0] lies in the cone", id="non-pointed"),
    pytest.param("unit-not-positive", "unit functional must be strictly positive on every generator",
                 id="unit-not-positive"),
])
def test_stacked_cone_build_raises_what_building_alone_raises(fault, message):
    """A bad cone at index k of a stack raises the exception, message
    included, that building it alone raises; the other cones get the
    certificates, bit for bit, that they get alone."""
    k = 2
    gens, units = _polyhedral_stack()
    if fault == "non-pointed":
        gens[k, 1] = -gens[k, 0]
    else:  # (0, x) is pointed with the rest, but has unit value 0
        gens[k, 1, 0] = 0.0
    with pytest.raises(ValueError) as alone:
        PolyhedralCone(gens[k], units[k])
    with pytest.raises(ValueError) as block:
        _polyhedral_cones(gens, units)
    assert type(block.value) is type(alone.value) is ValueError
    assert str(block.value) == str(alone.value) == message
    good, units = np.delete(gens, k, axis=0), units[1:]
    for g, u, cone in zip(good, units, _polyhedral_cones(good, units)):
        assert _certificate_bytes(cone) == _certificate_bytes(PolyhedralCone(g, u))


class TestBlockChecks:
    """A fault in the block's own arithmetic is caught by the check the
    object's constructor runs, and reported as that constructor reports it."""

    seeds = [(s, s % 2 == 0) for s in range(6)]

    def test_dovm_atoms_pass_the_psd_check(self, monkeypatch):
        made = []

        def sandwich(root, stack):
            out = quantum._sandwich(root, stack)
            if len(made) == 1:  # the second sandwich: the effects conjugated by the states' roots
                out = _faulty(out, 3, "non-psd")
            made.append(out)
            return out

        monkeypatch.setattr(generators, "_sandwich", sandwich)
        with pytest.raises(NotPsd) as block:
            _block("quantum", self.seeds, 6, 2)
        with pytest.raises(NotPsd) as alone:
            Dovm(made[1][3])
        assert str(block.value) == str(alone.value) and "atom 1 " in str(alone.value)

    def test_a_non_psd_atom_at_the_end_of_a_search_block_is_named(self, monkeypatch):
        """A search block at 6 worlds and 2 agents holds 170 quantum seeds;
        a non-PSD atom made for its last seed is named as it is when that
        seed is built alone with the same fault."""
        n_seeds = generators._block_seeds("quantum", 6, 2, 2, "simplex")
        assert n_seeds == 170
        seeds = [(s, s % 2 == 0) for s in range(n_seeds)]
        errors = []
        for block in (seeds, seeds[-1:]):
            made = []

            def sandwich(root, stack):
                out = quantum._sandwich(root, stack)
                if len(made) == 1:  # the second sandwich: the effects conjugated by the states' roots
                    out = _faulty(out, len(block) - 1, "non-psd")
                made.append(out)
                return out

            monkeypatch.setattr(generators, "_sandwich", sandwich)
            with pytest.raises(NotPsd) as raised:
                _block("quantum", block, 6, 2)
            assert len(made[1]) == len(block)
            errors.append(str(raised.value))
        with pytest.raises(NotPsd) as alone:
            Dovm(made[1][0])
        assert errors[0] == errors[1] == str(alone.value) and "atom 1 " in errors[0]

    def test_quantum_targets_pass_the_density_operator_check(self, monkeypatch):
        made = []

        def conditionals(layers, events):
            values = verdicts._conditionals(layers, events)
            values[2] -= np.diag([2.0, -2.0])  # unit trace, not PSD
            made.append(values)
            return values

        monkeypatch.setattr(generators, "_conditionals", conditionals)
        with pytest.raises(NotPsd) as block:
            _block("quantum", self.seeds, 6, 2)
        with pytest.raises(NotPsd) as alone:
            DensityOperator(made[0][2])
        assert len(made) == 1  # one call conditions the block's planted and anchored targets
        assert str(block.value) == str(alone.value)

    def test_gpt_targets_pass_the_state_check(self, monkeypatch):
        made = []

        def conditionals(layers, events):
            values = verdicts._conditionals(layers, events)
            values[1] = [1.5, -0.5, 0.0, 0.0]  # unit value 1, outside the PSD cone
            made.append(values)
            return values

        monkeypatch.setattr(generators, "_conditionals", conditionals)
        with pytest.raises(ValueError, match="^coordinates lie outside the cone$") as block:
            _block("gpt", self.seeds, 6, 2, dim=2, cone_kind="psd")
        with pytest.raises(ValueError) as alone:
            GptState(PsdCone(2), made[0][1])
        assert len(made) == 1
        assert str(block.value) == str(alone.value)

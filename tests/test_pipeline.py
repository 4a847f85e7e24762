"""The shared agreement pipeline and the merged fixpoint loop, checked against
the per-layer agreement events, verifiers and fixpoint loops they replaced.

The ``_old_*`` functions below are those implementations, kept as the
reference: agreement events, statuses and common events must be equal, and
pooled posteriors equal bit for bit, on generated bundles of every layer and
cone kind, including targets placed at ``tol`` (and at the floats next to it)
from a cell conditional.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from aumann import (
    DensityOperator,
    Event,
    GptState,
    KnowledgeModel,
    ProbabilityMeasure,
    ScenarioFile,
    agreement_event,
    common_knowledge,
    dovm_value,
    gen_model,
    gen_planted_scenario,
    gen_unconstrained_scenario,
    gpt_agreement_event,
    gpt_conditional_state,
    mutual_knowledge,
    mutual_knowledge_chain,
    posterior_function,
    probability,
    quantum_agreement_event,
    require_hermitian,
    run_agree,
    run_analyze,
    scenario_from_bundle,
    svm_value,
    trace_norm,
    verify_aumann,
    verify_bundle,
    verify_gpt_aumann,
    verify_quantum_aumann,
)
from aumann.errors import require_worlds
import aumann.scenario as scenario
from aumann.generators import BLOCK_SEEDS, _rng, _scenarios
from aumann.gpt import PolyhedralCone, PsdCone, SimplexCone
from aumann.quantum import _hermitian_stack, _trace_norms
from aumann.tolerances import MATCH_TOL, NULL_MASS_TOL
from aumann.verdicts import (
    AgreementVerdict,
    VerdictStatus,
    _agreement_events,
    _cell_conditionals,
    _common_events,
    _event_conditionals,
    _event_sums,
    _mask_rows,
    _Measures,
    _outcomes,
    _statuses,
    _sums,
    _verdicts,
)


# ---------------------------------------------------------------------------
# the fixpoint loops before the merge

def _old_know_mask(cell_masks, e_mask):
    out = 0
    for c in cell_masks:
        if c & ~e_mask == 0:
            out |= c
    return out


def _old_everybody_knows(model, mask):
    acc = (1 << model.n_worlds) - 1
    for p in model.partitions:
        acc &= _old_know_mask(p.masks, mask)
        if not acc:
            break
    return acc


def _old_mutual_knowledge(model, e, m):
    if m < 0:
        raise ValueError("degree m must be nonnegative")
    require_worlds("event", e.n, "model", model.n_worlds)
    cur = e.mask
    for _ in range(m):
        nxt = _old_everybody_knows(model, cur)
        if nxt == cur:
            break
        cur = nxt
    return Event(cur, model.n_worlds)


def _old_mutual_knowledge_chain(model, e, max_iters=None):
    require_worlds("event", e.n, "model", model.n_worlds)
    limit = model.n_worlds + 1 if max_iters is None else max_iters
    trace = []
    cur = e.mask
    for _ in range(limit):
        nxt = _old_everybody_knows(model, cur)
        trace.append(Event(nxt, model.n_worlds))
        if nxt == cur:
            return trace
        cur = nxt
    raise RuntimeError(f"mutual-knowledge chain did not stabilize within {limit} iterations")


def _old_common_knowledge(model, e, max_iters=None):
    require_worlds("event", e.n, "model", model.n_worlds)
    limit = model.n_worlds + 1 if max_iters is None else max_iters
    cur = e.mask
    for _ in range(limit):
        nxt = _old_everybody_knows(model, cur)
        if nxt == cur:
            return Event(cur, model.n_worlds)
        cur = nxt
    raise RuntimeError(f"common-knowledge fixpoint not reached within {limit} iterations")


# ---------------------------------------------------------------------------
# the three agreement events and verifiers before the merge

def _cell_values(atoms, partition):
    """Each cell's sum of ``atoms``, stacked in cell order, by the pipeline's one scatter."""
    return _sums(len(partition), partition.labels, atoms)


def _unit_dots(values, unit):
    """The unit value of each row of ``values``, the products added one
    coordinate at a time: the one rounding rule of every GPT mass."""
    out = values[:, 0] * unit[0]
    for j in range(1, len(unit)):
        out = out + values[:, j] * unit[j]
    return out


def _old_cell_posteriors(partition, weights, joint):
    k = len(partition)
    p_cell = np.bincount(partition.labels, weights=weights, minlength=k)
    p_joint = np.bincount(partition.labels, weights=joint, minlength=k)
    return np.divide(p_joint, p_cell, out=np.full(k, np.nan), where=p_cell > NULL_MASS_TOL)


def _indicator(e):
    """0/1 per world: whether it lies in ``e``."""
    raw = np.frombuffer(e.mask.to_bytes((e.n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=e.n, bitorder="little")


def _old_agreement_event(model, mu, h, q, tol=MATCH_TOL):
    require_worlds("event", h.n, "model", model.n_worlds)
    require_worlds("event", h.n, "measure", mu.n_worlds)
    if len(q) != model.n_agents:
        raise ValueError(f"expected {model.n_agents} targets, got {len(q)}")
    joint = mu.weights * _indicator(h)
    acc = (1 << model.n_worlds) - 1
    for partition, q_i in zip(model.partitions, q):
        posteriors = _old_cell_posteriors(partition, mu.weights, joint)
        masks = partition.masks
        agent_mask = 0
        for k in np.flatnonzero(np.abs(posteriors - q_i) <= tol).tolist():
            agent_mask |= masks[k]
        acc &= agent_mask
        if not acc:
            break
    return Event(acc, model.n_worlds)


def _old_verify_aumann(model, mu, h, q, tol=MATCH_TOL, *, max_iters=None):
    e = _old_agreement_event(model, mu, h, q, tol)
    c = _old_common_knowledge(model, e, max_iters=max_iters)
    posteriors = tuple(float(x) for x in q)
    if not c:
        return AgreementVerdict(VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE, c, posteriors, None)
    p_c = probability(mu, c)
    if p_c <= NULL_MASS_TOL:
        return AgreementVerdict(VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE, c, posteriors, None)
    pooled = probability(mu, h & c) / p_c
    ok = all(abs(q_i - pooled) <= tol for q_i in posteriors)
    status = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return AgreementVerdict(status, c, posteriors, pooled)


def _old_as_matrix(target):
    if isinstance(target, DensityOperator):
        return target.matrix
    return require_hermitian(target, tol=1e-9)


def _old_quantum_agreement_event(model, rho, sigmas, tol=MATCH_TOL):
    if rho.n_worlds != model.n_worlds:
        raise ValueError(f"DOVM over {rho.n_worlds} worlds, model has {model.n_worlds}")
    if len(sigmas) != model.n_agents:
        raise ValueError(f"expected {model.n_agents} targets, got {len(sigmas)}")
    targets = [_old_as_matrix(s) for s in sigmas]
    acc = (1 << model.n_worlds) - 1
    for partition, target in zip(model.partitions, targets):
        values = _cell_values(rho.atoms, partition)
        masses = values.trace(axis1=1, axis2=2).real
        live = np.flatnonzero(masses > NULL_MASS_TOL)
        diffs = _hermitian_stack([values[live] / masses[live, None, None] - target], "cell conditional", tol=1e-9)[0]
        agent_mask = 0
        for k in live[_trace_norms(diffs) <= tol].tolist():
            agent_mask |= partition.masks[k]
        acc &= agent_mask
        if not acc:
            break
    return Event(acc, model.n_worlds)


def _old_verify_quantum_aumann(model, rho, sigmas, tol=MATCH_TOL, *, max_iters=None):
    e = _old_quantum_agreement_event(model, rho, sigmas, tol)
    c = _old_common_knowledge(model, e, max_iters=max_iters)
    posteriors = tuple(_old_as_matrix(s) for s in sigmas)
    if not c:
        return AgreementVerdict(VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE, c, posteriors, None)
    value = dovm_value(rho, c)
    tr = float(value.trace().real)
    if tr <= NULL_MASS_TOL:
        return AgreementVerdict(VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE, c, posteriors, None)
    pooled = DensityOperator(value / tr)
    ok = all(trace_norm(t - pooled.matrix) <= tol for t in posteriors)
    status = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return AgreementVerdict(status, c, posteriors, pooled)


def _old_as_coords(cone, target):
    if isinstance(target, GptState):
        return target.coords
    return cone._coerce(target, "target")


def _old_gpt_agreement_event(model, mu, targets, tol=MATCH_TOL):
    if mu.n_worlds != model.n_worlds:
        raise ValueError(f"SVM over {mu.n_worlds} worlds, model has {model.n_worlds}")
    if len(targets) != model.n_agents:
        raise ValueError(f"expected {model.n_agents} targets, got {len(targets)}")
    coords = [_old_as_coords(mu.cone, t) for t in targets]
    unit = mu.cone.unit
    acc = (1 << model.n_worlds) - 1
    for partition, target in zip(model.partitions, coords):
        values = _cell_values(mu.atoms, partition)
        masses = _unit_dots(values, unit)
        live = np.flatnonzero(masses > NULL_MASS_TOL)
        distances = np.abs(values[live] / masses[live, None] - target).max(axis=1)
        agent_mask = 0
        for k in live[distances <= tol].tolist():
            agent_mask |= partition.masks[k]
        acc &= agent_mask
        if not acc:
            break
    return Event(acc, model.n_worlds)


def _old_verify_gpt_aumann(model, mu, targets, tol=MATCH_TOL, *, max_iters=None):
    e = _old_gpt_agreement_event(model, mu, targets, tol)
    c = _old_common_knowledge(model, e, max_iters=max_iters)
    posteriors = tuple(_old_as_coords(mu.cone, t) for t in targets)
    if not c:
        return AgreementVerdict(VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE, c, posteriors, None)
    value = svm_value(mu, c)
    u = float(_unit_dots(value[None], mu.cone.unit)[0])
    if u <= NULL_MASS_TOL:
        return AgreementVerdict(VerdictStatus.VACUOUS_NULL_COMMON_KNOWLEDGE, c, posteriors, None)
    pooled = GptState(mu.cone, value / u)
    ok = all(float(np.abs(t - pooled.coords).max()) <= tol for t in posteriors)
    status = VerdictStatus.HOLDS if ok else VerdictStatus.VIOLATED
    return AgreementVerdict(status, c, posteriors, pooled)


# ---------------------------------------------------------------------------
# comparison

KINDS = [
    ("classical", "simplex", 2),
    ("quantum", "simplex", 2),
    ("quantum", "simplex", 3),
    ("gpt", "simplex", 4),
    ("gpt", "psd", 2),
    ("gpt", "polyhedral", 3),
]


def _pair(bundle, tol):
    """(new, old) verifier and event calls for a bundle with its layer's arguments."""
    m, mu, h = bundle.model, bundle.measure, bundle.hypothesis
    if bundle.layer == "classical":
        return (
            lambda q: (agreement_event(m, mu, h, q, tol), verify_aumann(m, mu, h, q, tol)),
            lambda q: (_old_agreement_event(m, mu, h, q, tol), _old_verify_aumann(m, mu, h, q, tol)),
        )
    if bundle.layer == "quantum":
        return (
            lambda q: (quantum_agreement_event(m, mu, q, tol), verify_quantum_aumann(m, mu, q, tol)),
            lambda q: (_old_quantum_agreement_event(m, mu, q, tol), _old_verify_quantum_aumann(m, mu, q, tol)),
        )
    return (
        lambda q: (gpt_agreement_event(m, mu, q, tol), verify_gpt_aumann(m, mu, q, tol)),
        lambda q: (_old_gpt_agreement_event(m, mu, q, tol), _old_verify_gpt_aumann(m, mu, q, tol)),
    )


def _pooled_array(v):
    p = v.pooled_posterior
    if p is None or isinstance(p, float):
        return p
    return p.matrix if isinstance(p, DensityOperator) else p.coords


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cell_conditional(bundle, world, agent):
    """The conditional value of the agent's cell containing ``world``, in array form."""
    cell = bundle.model.partitions[agent].cell_of(world)
    mu = bundle.measure
    if bundle.layer == "classical":
        return probability(mu, bundle.hypothesis & cell) / probability(mu, cell)
    if bundle.layer == "quantum":
        value = dovm_value(mu, cell)
        return value / float(value.trace().real)
    value = svm_value(mu, cell)
    return value / float(_unit_dots(value[None], mu.cone.unit)[0])


def _shifted(bundle, base, delta, rng):
    """``base`` moved by ``delta`` in the layer's distance: |.| (classical),
    trace norm along a unit-trace rank-one projector (quantum), or max-norm
    along one coordinate (gpt)."""
    if bundle.layer == "classical":
        return base + delta
    if bundle.layer == "quantum":
        d = base.shape[0]
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        return base + delta * np.outer(v, v.conj())
    out = base.copy()
    out[int(rng.integers(0, out.size))] += delta
    return out


def _deltas(tol):
    """Offsets at and around ``tol``: zero, ±tol and the floats next to ±tol."""
    out = [0.0]
    for t in (tol, -tol):
        out += [t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)]
    return out


def _check(bundle, targets, tol):
    new, old = _pair(bundle, tol)
    e_new, v_new = new(targets)
    e_old, v_old = old(targets)
    assert e_new == e_old
    assert v_new.status is v_old.status
    assert v_new.common_event == v_old.common_event
    assert _same_bits(_pooled_array(v_new), _pooled_array(v_old))
    return v_new.status


@pytest.mark.parametrize("layer, cone_kind, dim", KINDS)
@pytest.mark.parametrize("n_worlds", [6, 9, 48])
def test_pipeline_matches_per_layer_verifiers(layer, cone_kind, dim, n_worlds):
    seen = set()
    for seed in range(12):
        for gen in (gen_planted_scenario, gen_unconstrained_scenario):
            bundle = gen(seed, layer, n_worlds, 1 + seed % 3, dim=dim, cone_kind=cone_kind)
            for tol in (MATCH_TOL, 1e-6, 1e-3):
                seen.add(_check(bundle, bundle.targets, tol))
            # targets at tol (and the next floats) from each agent's cell conditional at one world
            rng = _rng(10_000 + seed)
            world = int(rng.integers(0, n_worlds))
            for tol in (MATCH_TOL, 1e-3):
                for delta in _deltas(tol):
                    targets = tuple(
                        _shifted(bundle, _cell_conditional(bundle, world, i), delta, rng)
                        for i in range(bundle.model.n_agents)
                    )
                    seen.add(_check(bundle, targets, tol))
    assert VerdictStatus.HOLDS in seen


def test_verify_bundle_matches_per_layer_verifiers():
    for layer, cone_kind, dim in KINDS:
        for seed in range(20):
            bundle = gen_unconstrained_scenario(seed, layer, 9, 3, dim=dim, cone_kind=cone_kind)
            _, old = _pair(bundle, MATCH_TOL)
            expected = old(bundle.targets)[1]
            got = verify_bundle(bundle)
            assert got.status is expected.status
            assert got.common_event == expected.common_event
            assert _same_bits(_pooled_array(got), _pooled_array(expected))


# ---------------------------------------------------------------------------
# blocks: a search verifies its bundles as one stack

# the kinds pinned in test_generators.py
BLOCK_KINDS = {
    "classical": ("classical", {}),
    "quantum-d2": ("quantum", {"dim": 2}),
    "quantum-d3": ("quantum", {"dim": 3}),
    "gpt-simplex": ("gpt", {"cone_kind": "simplex", "dim": 3}),
    "gpt-psd": ("gpt", {"cone_kind": "psd", "dim": 2}),
    "gpt-polyhedral": ("gpt", {"cone_kind": "polyhedral", "dim": 3}),
    "gpt-polyhedral-5gen": ("gpt", {"cone_kind": "polyhedral", "dim": 4, "n_generators": 5}),
}


def _gen_block(layer, seeds, n_worlds, n_agents, dim=2, cone_kind="simplex", n_generators=None):
    return _scenarios(layer, seeds, n_worlds, n_agents, dim, cone_kind, n_generators)


def _target_stack(bundles, targets):
    """Each bundle's targets, as its layer's adapter takes them, stacked as one block's targets."""
    return np.stack([scenario._KINDS[b.layer].block(b.model, b.measure, b.hypothesis, t).targets[0]
                     for b, t in zip(bundles, targets)])


def _check_block(scenarios, targets, tol):
    """The agreement events and verdicts of a generated block with these
    targets, verified as one block through the search's path (agreement
    events, common events, outcomes), against the reference verifiers
    scenario by scenario; returns the statuses seen."""
    bundles = list(scenarios)
    block = scenarios.block._replace(targets=_target_stack(bundles, targets))
    events = _agreement_events(block, tol)
    commons = _common_events(block, events)
    outcomes = _outcomes(block, commons, tol)
    verdicts = _verdicts(block, commons, tol)
    assert len(events) == len(outcomes.statuses) == len(verdicts) == len(bundles)
    assert _statuses(block, tol) == outcomes.statuses
    pooled = dict(zip(outcomes.pooled_at, outcomes.pooled))
    for s, (b, t, e, c, v) in enumerate(zip(bundles, targets, events, commons, verdicts)):
        e_old, v_old = _pair(b, tol)[1](t)
        assert e == e_old.mask
        assert outcomes.statuses[s] is v.status is v_old.status
        assert c == v_old.common_event.mask and v.common_event == v_old.common_event
        assert _same_bits(pooled.get(s), _pooled_array(v_old))
        assert _same_bits(_pooled_array(v), _pooled_array(v_old))
    return set(outcomes.statuses)


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
def test_block_verdicts_match_the_per_seed_reference(kind):
    """Blocks of 1, 2 and ``BLOCK_SEEDS + 1`` seeds that mix planted,
    anchored and free seeds give every seed the agreement event, status,
    common event and pooled value, bit for bit, of the reference verifier
    run on it alone, also with each seed's targets at ``tol`` (and at the
    floats next to it) from its cell conditionals."""
    layer, kw = BLOCK_KINDS[kind]
    seen, families = set(), set()
    for n_worlds, n_agents in ((2, 1), (6, 2), (48, 6)):
        for length in (1, 2, BLOCK_SEEDS + 1):
            seeds = [(length + i, (length + i) % 3 == 0) for i in range(length)]
            scenarios = _gen_block(layer, seeds, n_worlds, n_agents, **kw)
            bundles = list(scenarios)
            families.update("planted" if b.planted_cell is not None else "free" if b.anchor_world is None
                            else "anchored" for b in bundles)
            for tol in (MATCH_TOL, 1e-6, 1e-3):
                seen |= _check_block(scenarios, [b.targets for b in bundles], tol)
            rng = _rng(40_000 + length)
            worlds = [int(rng.integers(0, n_worlds)) for _ in bundles]
            for tol in (MATCH_TOL, 1e-3):
                for delta in _deltas(tol):
                    targets = [
                        tuple(_shifted(b, _cell_conditional(b, w, i), delta, rng) for i in range(n_agents))
                        for b, w in zip(bundles, worlds)
                    ]
                    seen |= _check_block(scenarios, targets, tol)
    assert families == {"planted", "anchored", "free"}
    assert {VerdictStatus.HOLDS, VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE} <= seen
    assert VerdictStatus.VIOLATED not in seen


def test_gpt_masses_follow_one_rule():
    """A GPT mass is its sum's unit value with the products added in
    coordinate order, wherever it is taken: every cell's mass and
    conditional in a block have the bits of the coordinate loop here, of
    that cell taken alone as an event, and of ``gpt_conditional_state``. In
    this block (gpt-simplex dim 4, as search-wide runs it) one matrix
    product per partition's cell stack rounds some masses differently in
    the last bit, so a mass taken by the shape of its stack would fail here."""
    scenarios = _gen_block("gpt", [(i, i % 3 == 0) for i in range(BLOCK_SEEDS + 1)], 6, 2, dim=4)
    block = list(scenarios)
    live, conditionals = _cell_conditionals(scenarios.block)
    unit = block[0].measure.cone.unit  # the block's one simplex cone
    values = [_cell_values(b.measure.atoms, p) for b in block for p in b.model.partitions]
    assert scenarios.block.starts.tolist() == [0, *np.cumsum([len(v) for v in values]).tolist()]
    sums = np.concatenate(values)
    masses = _unit_dots(sums, unit)
    assert not np.array_equal(np.concatenate([v @ unit for v in values]), masses)
    assert np.array_equal(live, np.flatnonzero(masses > NULL_MASS_TOL)) and len(live) == len(sums)
    assert _same_bits(conditionals, sums / masses[:, None])
    cells = [(s, cell) for s, b in enumerate(block) for p in b.model.partitions for cell in p.cells]
    owners = [s for s, _ in cells]
    measures = scenarios.block.measures
    own = _Measures(measures.atoms[owners], measures.rule, [measures.spaces[s] for s in owners])
    got, heavy, alone = _event_conditionals(own, _mask_rows([cell.mask for _, cell in cells], 6), NULL_MASS_TOL)
    assert _same_bits(got, masses) and heavy.all()
    assert _same_bits(alone, conditionals)
    states = np.array([gpt_conditional_state(block[s].measure, cell).coords for s, cell in cells])
    assert _same_bits(states, conditionals)


def _stack_of(measures, k):
    """A stack of one measure repeated ``k`` times."""
    return _Measures(np.repeat(measures.atoms, k, axis=0), measures.rule, list(measures.spaces) * k)


_OTHER_STATE = {  # a state of another cone of the same dimension
    "gpt-simplex": lambda: GptState(PsdCone(2), [0.5, 0.5, 0.0, 0.0]),
    "gpt-psd": lambda: GptState(SimplexCone(4), [0.25] * 4),
    "gpt-polyhedral": lambda: GptState(PolyhedralCone(np.array([[1.0, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]),
                                                      np.array([1.0, 0, 0])), [1.0, 0.0, 0.0]),
}


def _faulty_targets(bundle, kind, fault):
    """The bundle's targets with one fault: a NaN in agent 1's, one target
    too few, agent 1's of the wrong shape, or agent 1's a state of another cone."""
    targets = list(bundle.targets)
    if fault == "count":
        return tuple(targets[:-1])
    if fault == "cone":
        targets[1] = _OTHER_STATE[kind]()
    elif bundle.layer == "classical":
        targets[1] = float("nan")
    else:
        raw = targets[1].matrix if bundle.layer == "quantum" else targets[1].coords
        if fault == "nan":
            raw = raw.copy()
            raw.flat[0] = np.nan
        else:
            raw = np.zeros(tuple(n + 1 for n in raw.shape), dtype=raw.dtype)
        targets[1] = raw
    return tuple(targets)


_FAULTS = [("classical", f) for f in ("nan", "count")] + [
    (k, f) for k in ("quantum-d2", "gpt-simplex", "gpt-psd", "gpt-polyhedral") for f in ("nan", "count", "shape")
] + [(k, "cone") for k in _OTHER_STATE]
_BLOCK_FAULT_KINDS = dict(BLOCK_KINDS, **{"gpt-simplex": ("gpt", {"cone_kind": "simplex", "dim": 4})})


@pytest.mark.parametrize("kind, fault", _FAULTS)
def test_a_block_raises_what_its_bad_scenario_raises(kind, fault):
    """A scenario with a bad target raises the same type and message from
    ``verify_bundle``, from its block of one and from the public verifier and
    agreement event, whichever agent the fault is at. A fault that a target
    stack can hold (a NaN) raises it also from a search's block whose
    scenario 2 has it. A count, shape or cone fault cannot be stacked: the
    layer's adapter or the count check of a block of one raises it."""
    layer, kw = _BLOCK_FAULT_KINDS[kind]
    scenarios = _gen_block(layer, [(i, i % 2 == 0) for i in range(5)], 6, 2, **kw)
    bad = replace(list(scenarios)[2], targets=_faulty_targets(list(scenarios)[2], kind, fault))
    with pytest.raises(ValueError) as alone:
        _pair(bad, MATCH_TOL)[0](bad.targets)
    message = f"^{re.escape(str(alone.value))}$"
    assert re.search(r"target|expected", str(alone.value))
    with pytest.raises(type(alone.value), match=message):
        verify_bundle(bad)
    with pytest.raises(type(alone.value), match=message):
        _agreement_events(scenario._KINDS[layer].block(bad.model, bad.measure, bad.hypothesis, bad.targets), MATCH_TOL)
    if fault == "nan":
        targets = scenarios.block.targets.copy()
        targets[(2, 1) + (0,) * (targets.ndim - 2)] = np.nan  # the first entry of agent 1's target, as in bad
        block = scenarios.block._replace(targets=targets)
        with pytest.raises(type(alone.value), match=message):
            _statuses(block, MATCH_TOL)
        with pytest.raises(type(alone.value), match=message):
            _agreement_events(block, MATCH_TOL)


def _expected_table(bundle, agent):
    """Each cell's conditional value, ``None`` for a null cell: a GPT cell's
    is ``gpt_conditional_state`` of it, the others' by the reference sums."""
    mu = bundle.measure
    cells = bundle.model.partitions[agent].cells
    if bundle.layer == "gpt":
        masses = _unit_dots(np.stack([svm_value(mu, cell) for cell in cells]), mu.cone.unit)
        return [None if m <= NULL_MASS_TOL else gpt_conditional_state(mu, cell).coords
                for cell, m in zip(cells, masses)]
    if bundle.layer == "quantum":
        masses = [float(dovm_value(mu, cell).trace().real) for cell in cells]
    else:
        masses = [probability(mu, cell) for cell in cells]
    return [None if m <= NULL_MASS_TOL else _cell_conditional(bundle, min(cell), agent)
            for cell, m in zip(cells, masses)]


def _table_bundles(n_worlds):
    """Bundles of every kind, some with a null cell: one agent's cell whose
    worlds have their weight moved to the other worlds (classical only)."""
    for layer, cone_kind, dim in KINDS:
        for seed in range(6):
            for gen in (gen_planted_scenario, gen_unconstrained_scenario):
                bundle = gen(seed, layer, n_worlds, 1 + seed % 3, dim=dim, cone_kind=cone_kind)
                yield bundle
                if layer == "classical" and len(bundle.model.partitions[0]) > 1:
                    w = bundle.measure.weights.copy()
                    w[list(bundle.model.partitions[0].cell_of(0))] = 0.0
                    yield replace(bundle, measure=ProbabilityMeasure(w / w.sum()))


@pytest.mark.parametrize("n_worlds", [6, 48])
def test_analysis_table_matches_the_cell_conditionals(n_worlds):
    """Every entry of the analysis cell table, and every classical
    ``posterior_function`` value, is the cell conditional of the reference
    sums bit for bit; a null cell gives ``None`` and NaN."""
    nulls = 0
    for bundle in _table_bundles(n_worlds):
        report = run_analyze(scenario_from_bundle(bundle))
        for agent, rows in enumerate(report.posteriors_by_cell):
            expected = _expected_table(bundle, agent)
            assert [cell for cell, _ in rows] == list(bundle.model.partitions[agent].cells)
            assert all(_same_bits(value, e) for (_, value), e in zip(rows, expected))
            nulls += sum(e is None for e in expected)
            if bundle.layer == "classical":
                per_world = posterior_function(bundle.model, bundle.measure, agent, bundle.hypothesis)
                for (cell, _), e in zip(rows, expected):
                    want = np.nan if e is None else e
                    assert all(_same_bits(per_world[w], want) for w in cell)
    assert nulls


def _loop_sum(atoms, worlds):
    """The atoms of ``worlds`` added one at a time, in increasing order, starting from zeros."""
    total = np.zeros(atoms.shape[1:], dtype=atoms.dtype)
    for w in sorted(worlds):
        total = total + atoms[w]
    return total


@pytest.mark.parametrize("layer, cone_kind, dim", KINDS)
@pytest.mark.parametrize("n_worlds", [6, 48, 63])
def test_sums_add_worlds_in_increasing_order(layer, cone_kind, dim, n_worlds):
    """``_sums`` over each partition's cells and, on a block of events,
    ``_event_sums`` on each layer's atom stack equal a per-cell loop bit for
    bit, and, on the classical stack, ``probability`` of the hypothesis
    within the cell and of the cell; ``_event_conditionals`` divides those
    sums by their masses."""
    for seed in range(4):
        bundle = gen_unconstrained_scenario(seed, layer, n_worlds, 1 + seed % 3, dim=dim, cone_kind=cone_kind)
        model, mu, h = bundle.model, bundle.measure, bundle.hypothesis
        own = scenario._KINDS[layer].block(model, mu, h, ()).measures
        atoms = own.atoms[0]
        rng = _rng(30_000 + seed)
        events = [Event.empty(n_worlds), Event.full(n_worlds)]
        events += [Event(int(rng.integers(0, 1 << 62)) & ((1 << n_worlds) - 1), n_worlds) for _ in range(8)]
        for partition in model.partitions:
            values = _cell_values(atoms, partition)
            assert values.dtype == atoms.dtype and values.shape == (len(partition),) + atoms.shape[1:]
            for k, cell in enumerate(partition.cells):
                assert _same_bits(values[k], _loop_sum(atoms, cell))
            events += partition.cells
        rows = _mask_rows([e.mask for e in events], n_worlds)
        sums = _event_sums(_stack_of(own, len(events)).atoms, rows)
        masses, heavy, conditioned = _event_conditionals(_stack_of(own, len(events)), rows, NULL_MASS_TOL)
        assert sums.dtype == atoms.dtype and sums.shape == (len(events),) + atoms.shape[1:]
        assert heavy.tolist() == [m > NULL_MASS_TOL for m in masses.tolist()] and not heavy[0]  # the empty event
        for e, value in zip(events, sums):
            assert _same_bits(value, _loop_sum(atoms, e))
            if layer == "classical":
                assert _same_bits(value, np.array([probability(mu, h & e), probability(mu, e)]))
        parts = [_loop_sum(atoms, e)[..., 0] / m if layer == "classical" else _loop_sum(atoms, e) / m
                 for e, m in zip(events, masses) if m > NULL_MASS_TOL]
        assert _same_bits(conditioned, np.array(parts))


def _check_run_limits(model, e, limits):
    """``run_analyze`` of a uniform classical scenario with hypothesis ``e``,
    and ``run_agree`` of it with the targets of world 0's cells, pass each
    ``max_iters`` in ``limits(k)`` that is at least the length ``k`` of the
    chain of the event they analyze, and raise the old loop's error for the
    others."""
    n = model.n_worlds
    mu = ProbabilityMeasure(np.full(n, 1 / n))
    sf = ScenarioFile([f"w{w}" for w in range(n)], [f"a{i}" for i in range(model.n_agents)], model, "classical", mu, e)
    targets = tuple(next(v for cell, v in rows if 0 in cell) for rows in run_analyze(sf).posteriors_by_cell)
    for run, scenario in ((run_analyze, sf), (run_agree, replace(sf, targets=targets))):
        event = run(scenario).event
        chain = _old_mutual_knowledge_chain(model, event)
        for limit in limits(len(chain)):
            if limit >= len(chain):
                assert run(scenario, max_iters=limit).common == chain[-1]
                continue
            with pytest.raises(RuntimeError) as old:
                _old_common_knowledge(model, event, max_iters=limit)
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(old.value))}$"):
                run(scenario, max_iters=limit)


def test_fixpoint_readers_match_the_old_loops():
    for seed in range(200):
        n = 1 + seed % 24
        model = gen_model(seed, n, 1 + seed % 4)
        e = Event(int(_rng(seed).integers(0, 1 << n)), n)
        chain = mutual_knowledge_chain(model, e)
        assert chain == _old_mutual_knowledge_chain(model, e)
        assert common_knowledge(model, e) == _old_common_knowledge(model, e) == chain[-1]
        for m in range(n + 3):
            assert mutual_knowledge(model, e, m) == _old_mutual_knowledge(model, e, m)
        _check_run_limits(model, e, lambda k: range(-1, k + 1))


def test_email_chain_fixpoint_steps():
    n = 40
    sender = [[i, i + 1] for i in range(0, n, 2)]
    receiver = [[0]] + [[i, i + 1] for i in range(1, n - 1, 2)] + [[n - 1]]
    model = KnowledgeModel.from_blocks(n, [sender, receiver])
    e = model.event(range(n - 2))
    chain = mutual_knowledge_chain(model, e)
    assert chain == _old_mutual_knowledge_chain(model, e)
    assert len(chain) == n - 1 and not chain[-1]


def _email_chain_model(n):
    """The electronic-mail game: sender cells {0,1}, {2,3}, ...; receiver cells {0}, {1,2}, ..., {n-1}."""
    sender = [[i, i + 1] for i in range(0, n, 2)]
    receiver = [[0]] + [[i, i + 1] for i in range(1, n - 1, 2)] + [[n - 1]]
    return KnowledgeModel.from_blocks(n, [sender, receiver])


def _check_chain_readers(model, e):
    """Every fixpoint reader, and every ``max_iters`` error of the scenario
    runs, agrees with the old loop."""
    chain = mutual_knowledge_chain(model, e)
    assert chain == _old_mutual_knowledge_chain(model, e)
    assert common_knowledge(model, e) == _old_common_knowledge(model, e) == chain[-1]
    _check_run_limits(model, e, lambda k: (0, 1, k - 1, k))
    return chain


@pytest.mark.parametrize("n", [256, 512])
def test_long_email_chain_matches_the_old_loop(n):
    """Each step removes one world, so every agent's knowledge is updated, not rescanned."""
    model = _email_chain_model(n)
    chain = _check_chain_readers(model, model.event(range(n - 2)))
    assert len(chain) == n - 1 and not chain[-1]
    for m in (0, 1, n // 2, n - 2, n - 1, n + 5):
        e = model.event(range(n - 2))
        assert mutual_knowledge(model, e, m) == _old_mutual_knowledge(model, e, m)
    # a hypothesis that leaves the middle out: two chains shrink from both ends of the gap
    e = model.event([w for w in range(n) if abs(w - n // 2) > 3])
    assert not _check_chain_readers(model, e)[-1]


def test_random_models_match_the_old_loop():
    """Random models and events of every density, so that steps remove fewer
    worlds than an agent has cells (cells cleared) as well as more (rescan)."""
    for seed in range(300):
        n = 2 + seed % 47
        model = gen_model(seed, n, 1 + seed % 6)
        rng = _rng(20_000 + seed)
        for density in (0.5, 0.9, 0.99):
            worlds = np.flatnonzero(rng.random(n) < density).tolist()
            _check_chain_readers(model, model.event(worlds))

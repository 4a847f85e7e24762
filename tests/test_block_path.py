"""A search's block path against verifying each seed alone.

A search draws a block of seeds into one checked block of stacks and
verifies it as one, with no partition, measure, bundle or verdict objects.
``verify_bundle`` verifies one generated bundle as a block of one. Every
seed must get the same status, common event and pooled value from both,
bit for bit, and a block with one bad label row or target raises what that
seed alone raises.
"""

from dataclasses import replace

import numpy as np
import pytest

import aumann.generators as generators
import aumann.scenario as scenario
from aumann import Event, Partition, common_knowledge, gen_planted_scenario, gen_unconstrained_scenario, verify_bundle
from aumann.generators import BLOCK_SEEDS, _rng, _scenarios
from aumann.tolerances import MATCH_TOL
from aumann.verdicts import VerdictStatus, _agreement_events, _common_events, _outcomes, _statuses

# the kinds pinned in test_generators.py
PINNED_KINDS = {
    "classical": ("classical", {}),
    "quantum-d2": ("quantum", {"dim": 2}),
    "quantum-d3": ("quantum", {"dim": 3}),
    "gpt-simplex": ("gpt", {"cone_kind": "simplex", "dim": 3}),
    "gpt-psd": ("gpt", {"cone_kind": "psd", "dim": 2}),
    "gpt-polyhedral": ("gpt", {"cone_kind": "polyhedral", "dim": 3}),
    "gpt-polyhedral-5gen": ("gpt", {"cone_kind": "polyhedral", "dim": 4, "n_generators": 5}),
    "gpt-polyhedral-dim6": ("gpt", {"cone_kind": "polyhedral", "dim": 6}),
}
SIZES = ((2, 1), (6, 2), (12, 3), (48, 6))  # (worlds, agents)
WIDE = [(kind, n_worlds) for kind in ("quantum-d2", "gpt-simplex", "gpt-polyhedral") for n_worlds in (70, 130)]


def _block(kind, seeds, n_worlds, n_agents):
    layer, kw = PINNED_KINDS[kind]
    return _scenarios(layer, seeds, n_worlds, n_agents, kw.get("dim", 2), kw.get("cone_kind", "simplex"),
                      kw.get("n_generators"))


def _seeds(n):
    """``n`` seeds in which planted, anchored and free ones mix."""
    return [(seed, seed % 3 == 0) for seed in range(n)]


def _pooled(v):
    p = v.pooled_posterior
    return None if p is None else np.asarray(getattr(p, "matrix", getattr(p, "coords", p)))


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check(scenarios, tol):
    """The search's path on the block against ``verify_bundle`` on each
    seed's bundle; returns the statuses seen."""
    block = scenarios.block
    commons = _common_events(block, _agreement_events(block, tol))
    outcomes = _outcomes(block, commons, tol)
    assert _statuses(block, tol) == outcomes.statuses
    pooled = dict(zip(outcomes.pooled_at, outcomes.pooled))
    bundles = list(scenarios)
    assert len(bundles) == len(outcomes.statuses)
    for s, b in enumerate(bundles):
        alone = scenario._KINDS[b.layer].block(b.model, b.measure, b.hypothesis, b.targets)
        assert _same_bits(block.targets[s], alone.targets[0])  # the targets a bundle alone is verified with
        v = verify_bundle(b, tol)
        assert outcomes.statuses[s] is v.status
        assert commons[s] == v.common_event.mask
        assert _same_bits(pooled.get(s), _pooled(v)), (s, v.status)
    return set(outcomes.statuses)


@pytest.mark.parametrize("kind", list(PINNED_KINDS))
def test_block_path_matches_verify_bundle(kind):
    seen = set()
    for n_worlds, n_agents in SIZES:
        scenarios = _block(kind, _seeds(BLOCK_SEEDS + 1), n_worlds, n_agents)
        for tol in (MATCH_TOL, 1e-3):
            seen |= _check(scenarios, tol)
    assert {VerdictStatus.HOLDS, VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE} <= seen


@pytest.mark.parametrize("kind, n_worlds", WIDE)
def test_wide_block_path_matches_verify_bundle(kind, n_worlds):
    """Past 64 worlds a cell's mask takes two or three 64-bit words."""
    scenarios = _block(kind, _seeds(BLOCK_SEEDS + 1), n_worlds, 3)
    assert VerdictStatus.HOLDS in _check(scenarios, MATCH_TOL)
    assert any(m >> 64 for m in scenarios.block.masks)


@pytest.mark.parametrize("kind, n_worlds, n_agents", [("classical", 48, 6), ("quantum-d2", 12, 3),
                                                     ("gpt-simplex", 70, 3), ("gpt-polyhedral", 130, 2)])
def test_block_common_knowledge_matches_each_model(kind, n_worlds, n_agents):
    """The block's common knowledge of any event, taken on its cell masks
    and labels, is that of the seed's own model: events that leave out a
    few worlds make chains of several degrees, whose steps clear cells by
    the labels of the worlds they remove."""
    scenarios = _block(kind, _seeds(BLOCK_SEEDS + 1), n_worlds, n_agents)
    models = [b.model for b in scenarios]
    rng = _rng(50_000 + n_worlds)
    full = (1 << n_worlds) - 1
    for _ in range(6):
        events = [full & ~sum(1 << int(w) for w in rng.choice(n_worlds, int(rng.integers(1, 6)), replace=False))
                  for _ in models]
        commons = _common_events(scenarios.block, events)
        assert commons == [common_knowledge(m, Event(e, n_worlds)).mask for m, e in zip(models, events)]
        assert any(commons)


def _bad_row(row, fault):
    if fault == "negative":
        return np.where(np.arange(row.size) == 0, -1, row)
    if fault == "empty":
        return row + 1  # no world is in cell 0
    return np.where(row == row.max(), row.max() + 2, row)  # a gap below the top cell


@pytest.mark.parametrize("kind", ["classical", "quantum-d2", "gpt-polyhedral"])
@pytest.mark.parametrize("fault", ["negative", "empty", "gap"])
@pytest.mark.parametrize("planted", [True, False])
def test_a_bad_label_row_raises_what_its_seed_raises(kind, fault, planted, monkeypatch):
    """A draw whose agent-1 label row is bad, at seed 4 of a block, makes the
    block raise the type and message that drawing seed 4 alone raises, which
    is what ``Partition.from_labels`` raises on that row."""
    draw = generators._draw
    bad = {}

    def faulty(seed, *args):
        d = draw(seed, *args)
        if seed != 4:
            return d
        labels = d.labels.copy()
        labels[1] = _bad_row(labels[1], fault)
        bad["row"] = labels[1]
        return d._replace(labels=labels)

    monkeypatch.setattr(generators, "_draw", faulty)
    seeds = [(s, planted) for s in range(BLOCK_SEEDS + 1)]
    with pytest.raises(ValueError) as block:
        _block(kind, seeds, 6, 2)
    layer, kw = PINNED_KINDS[kind]
    gen = gen_planted_scenario if planted else gen_unconstrained_scenario
    with pytest.raises(ValueError) as alone:
        gen(4, layer, 6, 2, **kw)
    with pytest.raises(ValueError) as from_labels:
        Partition.from_labels(bad["row"], 6)
    assert type(block.value) is type(alone.value) is type(from_labels.value)
    assert str(block.value) == str(alone.value) == str(from_labels.value)


@pytest.mark.parametrize("kind", list(PINNED_KINDS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_bad_target_raises_what_its_seed_raises(kind, bad):
    """A block whose seed 2 has a non-finite entry in agent 1's target
    raises what ``verify_bundle`` on seed 2's bundle with that target raises."""
    scenarios = _block(kind, _seeds(5), 6, 2)
    targets = scenarios.block.targets.copy()
    targets[(2, 1) + (0,) * (targets.ndim - 2)] = bad
    bundle = list(scenarios)[2]
    own = list(bundle.targets)
    raw = np.array(getattr(own[1], "matrix", getattr(own[1], "coords", own[1])))
    raw.flat[0] = bad
    own[1] = float(raw) if raw.ndim == 0 else raw
    with pytest.raises(ValueError) as alone:
        verify_bundle(replace(bundle, targets=tuple(own)))
    with pytest.raises(type(alone.value)) as block:
        _statuses(scenarios.block._replace(targets=targets), MATCH_TOL)
    assert str(block.value) == str(alone.value) == "target 1 must be finite"


@pytest.mark.parametrize("mode", ["mix", "planted", "random"])
@pytest.mark.parametrize("kind", list(PINNED_KINDS))
def test_search_does_not_depend_on_its_block_size(kind, mode, monkeypatch):
    """A search reports the same, timings aside, in 32-seed blocks, in
    blocks of the size its shape gives (one full, one short) and as one
    block. ``run_search`` gives a polyhedral cone ``2 * dim`` generators."""
    layer, kw = PINNED_KINDS[kind]
    dim, cone_kind = kw.get("dim", 2), kw.get("cone_kind", "simplex")
    n_worlds, n_agents = 12, 3
    n_seeds = generators._block_seeds(layer, n_worlds, n_agents, dim, cone_kind) + 5
    lengths = []
    run = scenario._block_statuses

    def block_statuses(*args):
        out = run(*args)
        lengths.append(len(out[0]))
        return out

    monkeypatch.setattr(scenario, "_block_statuses", block_statuses)
    reports = {}
    for case, (block_seeds, entries) in {"32": (32, 0), "rule": (BLOCK_SEEDS, generators.BLOCK_ENTRIES),
                                         "one": (n_seeds, 0)}.items():
        monkeypatch.setattr(generators, "BLOCK_SEEDS", block_seeds)
        monkeypatch.setattr(generators, "BLOCK_ENTRIES", entries)
        lengths.clear()
        stats = scenario.run_search(layer, n_seeds, base_seed=10_000, n_worlds=n_worlds, n_agents=n_agents, dim=dim,
                                    cone_kind=cone_kind, mode=mode)
        reports[case] = {k: v for k, v in stats.to_json_dict().items() if k not in ("elapsed_s", "generate_s",
                                                                                     "verify_s")}
        assert sum(lengths) == n_seeds
        assert max(lengths) == {"32": 32, "rule": n_seeds - 5, "one": n_seeds}[case]
    assert reports["32"] == reports["rule"] == reports["one"]
    assert reports["one"]["n_scenarios"] == n_seeds

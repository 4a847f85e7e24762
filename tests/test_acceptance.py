"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Sampling sizes and
tolerances are fixed here; the suite is deterministic (seeded generators).
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aumann import (
    Event,
    agreement_event,
    cell_decomposition,
    common_knowledge,
    common_knowledge_via_meet,
    conditional_state,
    devectorize,
    dovm_to_povm,
    embed_classical,
    embed_quantum,
    gen_density,
    gen_model,
    gen_planted_scenario,
    gen_povm,
    gen_probability,
    gen_unconstrained_scenario,
    gpt_agreement_event,
    gpt_conditional_state,
    know,
    mutual_knowledge_chain,
    parse_scenario,
    povm_to_dovm,
    run_search,
    scenario_from_bundle,
    serialize_scenario,
    trace_norm,
    vectorize,
    verify_aumann,
    verify_bundle,
    verify_gpt_aumann,
    verify_quantum_aumann,
)
from aumann.quantum import Dovm
from aumann.verdicts import VerdictStatus

DATA = Path(__file__).parent / "data"


def _report(criterion: int, label: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {label}: {status}{suffix}")
    assert not failures, f"criterion {criterion}: {failures[:5]} ({len(failures)} failures)"


def test_criterion_1_classical_agreement():
    """10^4 planted + 10^4 unconstrained scenarios; non-vacuous => Holds at 1e-9."""
    t0 = time.perf_counter()
    failures = []
    planted_nonvacuous = 0
    n_planted = 10_000
    for seed in range(n_planted):
        n_worlds = 2 + seed % 11  # 2..12
        n_agents = 1 + seed % 4  # 1..4
        bundle = gen_planted_scenario(seed, "classical", n_worlds, n_agents)
        v = verify_bundle(bundle, tol=1e-9)
        if not v.is_vacuous:
            planted_nonvacuous += 1
            if v.status is not VerdictStatus.HOLDS:
                failures.append(("planted", seed, v.status.value))
            elif max(abs(q - v.pooled_posterior) for q in v.posteriors) > 1e-9:
                failures.append(("planted-deviation", seed))
    for seed in range(10_000):
        n_worlds = 2 + seed % 11
        n_agents = 1 + seed % 4
        bundle = gen_unconstrained_scenario(seed, "classical", n_worlds, n_agents)
        v = verify_bundle(bundle, tol=1e-9)
        if not v.is_vacuous:
            if v.status is not VerdictStatus.HOLDS:
                failures.append(("unconstrained", seed, v.status.value))
            elif max(abs(q - v.pooled_posterior) for q in v.posteriors) > 1e-9:
                failures.append(("unconstrained-deviation", seed))
    elapsed = time.perf_counter() - t0
    if planted_nonvacuous < 0.95 * n_planted:
        failures.append(("planted-nonvacuous-rate", planted_nonvacuous))
    if elapsed > 60.0:
        failures.append(("runtime", elapsed))
    _report(
        1,
        "classical agreement theorem",
        failures,
        f"planted non-vacuous {planted_nonvacuous}/{n_planted}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def knowledge_samples():
    """10^5 (model, event) pairs shared by criteria 2-4."""
    stats = {
        "pairs": 0,
        "oracle_failures": [],
        "decomposition_failures": [],
        "axiom_failures": [],
        "nonempty_common": 0,
    }
    rng = np.random.default_rng(2024)
    for model_seed in range(20_000):
        n_worlds = 2 + model_seed % 9  # 2..10
        n_agents = 1 + model_seed % 3
        model = gen_model(model_seed, n_worlds, n_agents)
        full = (1 << n_worlds) - 1
        for e_mask in rng.integers(0, full + 1, size=5):
            e = Event(int(e_mask), n_worlds)
            stats["pairs"] += 1
            # criterion 2: fixpoint equals the meet oracle, exactly
            c = common_knowledge(model, e)
            if c != common_knowledge_via_meet(model, e):
                stats["oracle_failures"].append((model_seed, int(e_mask)))
                continue
            # criterion 3: cell decomposition succeeds on non-empty C(E)
            if c:
                stats["nonempty_common"] += 1
                for agent in range(n_agents):
                    try:
                        cells = cell_decomposition(model, agent, c)
                    except Exception:
                        stats["decomposition_failures"].append((model_seed, int(e_mask), agent))
                        continue
                    union = 0
                    for cell in cells:
                        union |= cell.mask
                    if union != c.mask:
                        stats["decomposition_failures"].append((model_seed, int(e_mask), agent))
            # criterion 4: knowledge-operator axioms and the chain
            f = Event(int(e_mask) | int(rng.integers(0, full + 1)), n_worlds)
            for agent in range(n_agents):
                k = know(model, agent, e)
                if not k <= e:
                    stats["axiom_failures"].append(("truth", model_seed, agent))
                if know(model, agent, k) != k:
                    stats["axiom_failures"].append(("introspection", model_seed, agent))
                if not k <= know(model, agent, f):
                    stats["axiom_failures"].append(("monotonicity", model_seed, agent))
            trace = mutual_knowledge_chain(model, e)
            if len(trace) > n_worlds + 1 or trace[-1] != c:
                stats["axiom_failures"].append(("stabilization", model_seed))
            for prev, cur in zip(trace, trace[1:]):
                if not cur <= prev:
                    stats["axiom_failures"].append(("chain", model_seed))
    return stats


def test_criterion_2_common_knowledge_oracle(knowledge_samples):
    failures = knowledge_samples["oracle_failures"]
    _report(
        2,
        "common-knowledge oracle equivalence",
        failures,
        f"{knowledge_samples['pairs']} pairs",
    )


def test_criterion_3_cell_decomposition(knowledge_samples):
    failures = knowledge_samples["decomposition_failures"]
    _report(
        3,
        "cell decomposition of non-empty C(E)",
        failures,
        f"{knowledge_samples['nonempty_common']} non-empty cases",
    )


def test_criterion_4_knowledge_axioms(knowledge_samples):
    failures = knowledge_samples["axiom_failures"]
    _report(4, "knowledge-operator axioms", failures, f"{knowledge_samples['pairs']} pairs")


def test_criterion_5_quantum_agreement():
    """10^3 planted quantum scenarios; non-vacuous => trace-norm <= 1e-8."""
    t0 = time.perf_counter()
    failures = []
    nonvacuous = 0
    for seed in range(1_000):
        n_worlds = 2 + seed % 9  # 2..10
        n_agents = 1 + seed % 4
        dim = 2 + seed % 3  # 2..4
        bundle = gen_planted_scenario(seed, "quantum", n_worlds, n_agents, dim=dim)
        v = verify_bundle(bundle, tol=1e-8)
        if v.is_vacuous:
            failures.append(("plant-vacuous", seed))  # plants guarantee non-vacuity
            continue
        nonvacuous += 1
        if v.status is not VerdictStatus.HOLDS:
            failures.append((seed, v.status.value))
            continue
        worst = max(trace_norm(t - v.pooled_posterior.matrix) for t in v.posteriors)
        if worst > 1e-8:
            failures.append((seed, worst))
    elapsed = time.perf_counter() - t0
    if elapsed > 120.0:
        failures.append(("runtime", elapsed))
    _report(5, "quantum agreement theorem", failures, f"{nonvacuous} non-vacuous, {elapsed:.1f}s")


def test_criterion_6_povm_dovm_round_trip():
    """10^3 random full-rank (POVM, state) pairs; conversion round trip <= 1e-8."""
    failures = []
    for seed in range(1_000):
        dim = 2 + seed % 3
        n_worlds = 1 + seed % 6
        povm = gen_povm(seed, n_worlds, dim)
        sigma = gen_density(seed + 1, dim)
        dovm = povm_to_dovm(povm, sigma)  # constructor revalidates all invariants
        back = dovm_to_povm(dovm)
        err = float(np.abs(back.effects - povm.effects).max())
        if err > 1e-8:
            failures.append((seed, err))
    _report(6, "POVM/DOVM conversion round trip", failures, "1000 pairs")


def _embedded_classical_pair(seed: int):
    """Classical bundle plus its simplex embedding; None when no distinguished
    cell provides state-level targets."""
    planted = seed % 2 == 0
    gen = gen_planted_scenario if planted else gen_unconstrained_scenario
    bundle = gen(seed, "classical", 2 + seed % 9, 1 + seed % 3)
    svm = embed_classical(bundle.measure)
    if bundle.planted_cell is not None:
        target = gpt_conditional_state(svm, bundle.planted_cell)
        targets = (target,) * bundle.model.n_agents
    elif bundle.anchor_world is not None:
        targets = tuple(
            gpt_conditional_state(svm, bundle.model.partitions[i].cell_of(bundle.anchor_world))
            for i in range(bundle.model.n_agents)
        )
    else:
        return None  # arbitrary scalar targets have no state-level counterpart
    return bundle, svm, targets


def _proper_targets(bundle) -> bool:
    """Scalar targets strictly inside (0, 1).

    A target pinned at 0 or 1 matches every cell disjoint from (or inside)
    the hypothesis regardless of the cell's distribution, so the scalar event
    is strictly coarser than the state-level one by construction; the square
    only commutes for proper posteriors.
    """
    return all(1e-6 < q < 1 - 1e-6 for q in bundle.targets)


def test_criterion_7_gpt_agreement_and_reductions():
    """Reduction squares match their source layers; polyhedral plants hold."""
    failures = []

    # simplex-embedded classical scenarios
    compared = 0
    seed = 0
    while compared < 1_000:
        pack = _embedded_classical_pair(seed)
        seed += 1
        if pack is None:
            continue
        bundle, svm, targets = pack
        # refinement holds on every seed: a state-level match implies a scalar
        # match (the scalar posterior is the hypothesis marginal), with the
        # tolerance scaled by the number of summed coordinates
        e_gpt = gpt_agreement_event(bundle.model, svm, targets, 1e-9)
        e_cl_loose = agreement_event(
            bundle.model, bundle.measure, bundle.hypothesis, bundle.targets,
            bundle.model.n_worlds * 1e-9,
        )
        if not e_gpt <= e_cl_loose:
            failures.append(("classical-refinement", seed - 1))
        if not _proper_targets(bundle):
            continue
        compared += 1
        v_cl = verify_aumann(bundle.model, bundle.measure, bundle.hypothesis, bundle.targets)
        v_gpt = verify_gpt_aumann(bundle.model, svm, targets)
        if v_cl.status != v_gpt.status:
            failures.append(("classical-status", seed - 1, v_cl.status.value, v_gpt.status.value))
            continue
        if v_cl.status is VerdictStatus.HOLDS:
            indicator = np.zeros(bundle.model.n_worlds)
            for w in bundle.hypothesis:
                indicator[w] = 1.0
            pooled_gap = abs(float(indicator @ v_gpt.pooled_posterior.coords) - v_cl.pooled_posterior)
            target_gap = max(
                abs(float(indicator @ t.coords) - q) for t, q in zip(targets, bundle.targets)
            )
            if pooled_gap > 1e-8 or target_gap > 1e-8:
                failures.append(("classical-values", seed - 1, pooled_gap, target_gap))

    # PSD-embedded quantum scenarios
    for qseed in range(1_000):
        planted = qseed % 2 == 0
        gen = gen_planted_scenario if planted else gen_unconstrained_scenario
        bundle = gen(qseed, "quantum", 2 + qseed % 7, 1 + qseed % 3, dim=2 + qseed % 2)
        svm = embed_quantum(bundle.measure)
        targets = tuple(vectorize(t.matrix) for t in bundle.targets)
        v_q = verify_quantum_aumann(bundle.model, bundle.measure, bundle.targets)
        v_gpt = verify_gpt_aumann(bundle.model, svm, targets)
        if v_q.status != v_gpt.status:
            failures.append(("quantum-status", qseed, v_q.status.value, v_gpt.status.value))
            continue
        if v_q.status is VerdictStatus.HOLDS:
            gap = float(
                np.abs(
                    devectorize(v_gpt.pooled_posterior.coords) - v_q.pooled_posterior.matrix
                ).max()
            )
            if gap > 1e-8:
                failures.append(("quantum-values", qseed, gap))

    # native polyhedral-cone plants
    for pseed in range(1_000):
        dim = 2 + pseed % 7  # 2..8
        n_generators = 4 + pseed % 13  # 4..16
        bundle = gen_planted_scenario(
            pseed, "gpt", 2 + pseed % 7, 1 + pseed % 3, dim=dim,
            cone_kind="polyhedral", n_generators=n_generators,
        )
        v = verify_bundle(bundle, tol=1e-8)
        if v.is_vacuous:
            failures.append(("polyhedral-vacuous", pseed))
        elif v.status is not VerdictStatus.HOLDS:
            failures.append(("polyhedral-status", pseed, v.status.value))
        elif max(float(np.abs(t - v.pooled_posterior.coords).max()) for t in v.posteriors) > 1e-8:
            failures.append(("polyhedral-deviation", pseed))

    _report(7, "GPT agreement theorem and reduction squares", failures, f"{compared}+1000+1000 scenarios")


def test_criterion_8_diagonal_reduction():
    """All-diagonal DOVMs reproduce classical conditionals within 1e-10."""
    failures = []
    rng = np.random.default_rng(8)
    for seed in range(1_000):
        n = 2 + seed % 7
        mu = gen_probability(seed, n)
        atoms = np.zeros((n, n, n), dtype=complex)
        for w in range(n):
            atoms[w, w, w] = mu.weights[w]
        rho = Dovm(atoms)
        lam = Event(int(rng.integers(1, (1 << n))), n)
        cs = conditional_state(rho, lam)
        mass = sum(mu.weights[w] for w in lam)
        for w in range(n):
            expected = (mu.weights[w] if w in lam else 0.0) / mass
            if abs(cs.matrix[w, w].real - expected) > 1e-10:
                failures.append((seed, w))
        off_diag = cs.matrix - np.diag(np.diag(cs.matrix))
        if np.abs(off_diag).max() > 0.0:
            failures.append((seed, "off-diagonal"))
    _report(8, "diagonal DOVM reduces to classical", failures, "1000 seeds")


def test_criterion_9_cli_contract():
    """Round trips, the worked example through the CLI, exit codes, search."""
    failures = []

    # parse/serialize round trips on the golden corpus and generated files
    for name in ("model_b_classical.json", "model_a_vacuous.json", "quantum_pair.json",
                 "gpt_simplex.json", "hypothesis_only.json"):
        text = serialize_scenario(parse_scenario((DATA / name).read_text()))
        if serialize_scenario(parse_scenario(text)) != text:
            failures.append(("round-trip", name))
    for layer in ("classical", "quantum", "gpt"):
        text = serialize_scenario(scenario_from_bundle(gen_planted_scenario(17, layer, 5, 2, dim=2)))
        if serialize_scenario(parse_scenario(text)) != text:
            failures.append(("round-trip", layer))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "aumann", *args], capture_output=True, text=True
        )

    # the worked example end to end
    result = cli("agree", str(DATA / "model_b_classical.json"))
    if result.returncode != 0:
        failures.append(("cli-exit", result.returncode))
    if "verdict: holds" not in result.stdout or "pooled posterior: 0.500000" not in result.stdout:
        failures.append(("cli-output", result.stdout))

    # exit-code contract on valid and invalid inputs
    if cli("agree", str(DATA / "model_a_vacuous.json")).returncode != 0:
        failures.append(("exit-vacuous",))
    if cli("agree", str(DATA / "invalid_weights.json")).returncode != 2:
        failures.append(("exit-invalid",))
    if cli("agree", str(DATA / "invalid_unknown_world.json")).returncode != 2:
        failures.append(("exit-unknown-world",))

    # zero violations across 10^4 seeds per layer
    search_detail = []
    for layer in ("classical", "quantum", "gpt"):
        stats = run_search(layer, 10_000, n_worlds=6, n_agents=2, dim=2)
        search_detail.append(f"{layer}:{stats.counts.get('holds', 0)} holds/{stats.elapsed_s:.0f}s")
        if stats.violations != 0:
            failures.append(("violations", layer, stats.violation_seeds[:3]))

    _report(9, "CLI contract and search", failures, "; ".join(search_detail))

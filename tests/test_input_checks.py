"""Rejected inputs (bad tolerances, non-finite numbers, cone dimensions,
repeated worlds) and the objects a scenario builds once."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aumann.knowledge as knowledge
import aumann.scenario as scenario
from aumann import (
    DensityOperator,
    Effect,
    GptState,
    PolyhedralCone,
    PsdCone,
    ScenarioSyntaxError,
    ScenarioValidationError,
    SimplexCone,
    VerdictStatus,
    agreement_event,
    cone_membership,
    devectorize,
    effect_valid,
    gen_dovm,
    gen_planted_scenario,
    gen_polyhedral_cone,
    gen_unconstrained_scenario,
    gpt_agreement_event,
    parse_scenario,
    psd_sqrt,
    psd_sqrt_pinv,
    quantum_agreement_event,
    require_hermitian,
    run_agree,
    run_analyze,
    run_gen,
    run_search,
    serialize_scenario,
    trace_norm,
    vectorize,
    verify_aumann,
    verify_bundle,
    verify_gpt_aumann,
    verify_quantum_aumann,
)
from aumann.cli import EXIT_INPUT_ERROR, main
from aumann.generators import BLOCK_ENTRIES, _block_seeds, _rng

DATA = Path(__file__).parent / "data"
BAD_TOLS = ["nan", "inf", "0", "-1"]
NON_FINITE = [math.nan, math.inf, -math.inf]


def load(name):
    return parse_scenario((DATA / name).read_text())


class TestTolerance:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("command", ["agree", "analyze"])
    def test_file_commands_exit_two(self, command, tol, capsys):
        assert main([command, str(DATA / "model_b_classical.json"), "--tol", tol]) == EXIT_INPUT_ERROR
        assert "tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_analyze_without_targets_exits_two(self, tol, capsys):
        """No agreement event is built without targets; the tolerance is still checked."""
        assert main(["analyze", str(DATA / "hypothesis_only.json"), "--tol", tol]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "tol must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_search_exits_two(self, tol, capsys):
        assert main(["search", "--layer", "classical", "--seeds", "50", "--tol", tol]) == EXIT_INPUT_ERROR
        assert "violations" not in capsys.readouterr().out

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_every_verifier_rejects(self, tol):
        for layer, extra in (("classical", {}), ("quantum", {}), ("gpt", {"cone_kind": "psd"})):
            bundle = gen_planted_scenario(3, layer, 6, 2, **extra)
            with pytest.raises(ValueError, match="tol"):
                verify_bundle(bundle, tol)
        b = gen_planted_scenario(3, "classical", 6, 2)
        with pytest.raises(ValueError, match="tol"):
            verify_aumann(b.model, b.measure, b.hypothesis, b.targets, tol)
        with pytest.raises(ValueError, match="tol"):
            agreement_event(b.model, b.measure, b.hypothesis, b.targets, tol)
        q = gen_planted_scenario(3, "quantum", 6, 2)
        with pytest.raises(ValueError, match="tol"):
            verify_quantum_aumann(q.model, q.measure, q.targets, tol)
        g = gen_planted_scenario(3, "gpt", 6, 2)
        with pytest.raises(ValueError, match="tol"):
            verify_gpt_aumann(g.model, g.measure, g.targets, tol)

    @pytest.mark.parametrize("tol", NON_FINITE)
    @pytest.mark.parametrize(
        "cone", [SimplexCone(3), PsdCone(2), PolyhedralCone([[1.0, 0.5], [1.0, -0.5]], [1.0, 0.0])], ids=repr
    )
    def test_membership_rejects(self, cone, tol):
        """Every cone kind refuses a non-finite membership tolerance; a
        negative one is a floor on simplex and PSD cones and admits nothing
        on a polyhedral cone, as a distance."""
        v = cone.unit  # inside every one of these cones
        assert cone_membership(cone, v) and cone.contains(v)
        assert cone_membership(cone, v, -1e-12) == (cone.kind != "polyhedral")
        for check in (lambda: cone_membership(cone, v, tol), lambda: cone.contains(v, tol)):
            with pytest.raises(ValueError, match="^tol must be finite$"):
                check()

    def test_search_checks_before_any_shard(self, monkeypatch):
        def seed_status(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(scenario, "_block_statuses", seed_status)
        with pytest.raises(ValueError, match="tol"):
            run_search("classical", 10, tol=math.nan, workers=2)


class TestNonFinite:
    """NaN and infinities are rejected by the stacked checks, never passed on."""

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_single_matrix_helpers(self, bad, entry):
        m = np.eye(2, dtype=complex) / 2
        m[entry] = bad
        for check in (require_hermitian, psd_sqrt, psd_sqrt_pinv, trace_norm, vectorize):
            with pytest.raises(ValueError, match="finite"):
                check(m)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_devectorize(self, bad):
        v = vectorize(np.eye(2) / 2)
        for i in range(len(v)):  # a diagonal, the real and the imaginary part of an off-diagonal entry
            w = v.copy()
            w[i] = bad
            with pytest.raises(ValueError, match="^coordinates must be finite$"):
                devectorize(w)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "cone", [SimplexCone(4), PsdCone(2), PolyhedralCone([[1.0, 0.5], [1.0, -0.5]], [1.0, 0.0])], ids=repr
    )
    def test_effects(self, cone, bad):
        f = cone.unit / 2
        assert effect_valid(cone, f)
        effect = Effect(cone, f)
        f[0] = bad
        with pytest.raises(ValueError, match="finite"):
            effect_valid(cone, f)
        with pytest.raises(ValueError, match="finite"):
            Effect(cone, f)
        with pytest.raises(ValueError, match="finite"):
            effect(f)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("layer, cone_kind", [("classical", "simplex"), ("quantum", "simplex"),
                                                  ("gpt", "simplex"), ("gpt", "psd"), ("gpt", "polyhedral")])
    def test_one_bad_target(self, layer, cone_kind, bad):
        b = gen_planted_scenario(3, layer, 6, 2, cone_kind=cone_kind)
        good = b.targets[0]
        if layer == "classical":
            bad_target = bad
            calls = (lambda q: agreement_event(b.model, b.measure, b.hypothesis, q),
                     lambda q: verify_aumann(b.model, b.measure, b.hypothesis, q))
        elif layer == "quantum":
            bad_target = good.matrix.copy()
            bad_target[0, 0] = bad
            calls = (lambda q: quantum_agreement_event(b.model, b.measure, q),
                     lambda q: verify_quantum_aumann(b.model, b.measure, q))
        else:
            bad_target = good.coords.copy()
            bad_target[0] = bad
            calls = (lambda q: gpt_agreement_event(b.model, b.measure, q),
                     lambda q: verify_gpt_aumann(b.model, b.measure, q))
        for call in calls:
            with pytest.raises(ValueError, match="target 1 must be finite"):
                call((good, bad_target))


class TestTargetShape:
    """A target of another dimension than the measure is named, not broadcast."""

    def test_gpt_targets_must_match_the_cone(self):
        b = gen_planted_scenario(3, "gpt", 6, 2, dim=2, cone_kind="simplex")
        good = b.targets[0]
        cases = [
            ((GptState(PsdCone(1), [1.0]),) * 2, r"target 0 must have shape \(2,\), got \(1,\)"),
            ((good, GptState(SimplexCone(3), np.full(3, 1 / 3))), r"target 1 must have shape \(2,\), got \(3,\)"),
            ((good, [0.5, 0.25, 0.25]), r"target 1 must have shape \(2,\), got \(3,\)"),
            ((good, GptState(PolyhedralCone([[1.0, 0.5], [1.0, -0.5]], [1.0, 0.0]), [1.0, 0.0])),
             "target 1 is a state of another cone than the SVM's"),
        ]
        for targets, message in cases:
            for call in (gpt_agreement_event, verify_gpt_aumann):
                with pytest.raises(ValueError, match=message):
                    call(b.model, b.measure, targets)
        equal_cone = GptState(SimplexCone(2), good.coords)  # another object, the same cone
        assert verify_gpt_aumann(b.model, b.measure, (good, equal_cone)).status is VerdictStatus.HOLDS

    def test_quantum_targets_must_match_the_dovm(self):
        b = gen_planted_scenario(3, "quantum", 6, 2, dim=2)
        good, big = b.targets[0], DensityOperator(np.eye(3) / 3)
        cases = [
            ((big, big), r"target 0 must have shape \(2, 2\), got \(3, 3\)"),
            ((good, big), r"target 1 must have shape \(2, 2\), got \(3, 3\)"),
            ((good, np.eye(3) / 3), r"target 1 must have shape \(2, 2\), got \(3, 3\)"),
        ]
        for targets, message in cases:
            for call in (quantum_agreement_event, verify_quantum_aumann):
                with pytest.raises(ValueError, match=message):
                    call(b.model, b.measure, targets)

    @pytest.mark.parametrize(
        "layer, bad, what",
        [
            ("classical", [0.5], "a number"),
            ("classical", None, "a number"),
            ("quantum", [[0.5, 0], [0]], "a matrix of numbers"),
            ("gpt", [0.5, [0.5]], "a vector of numbers"),
            ("gpt", "ab", "a vector of numbers"),
            ("classical", "0.5", "a number"),
            ("classical", True, "a number"),
            ("gpt", ["0.5", "0.5"], "a vector of numbers"),
            ("gpt", [True, False], "a vector of numbers"),
            ("quantum", [["0.5", "0"], ["0", "0.5"]], "a matrix of numbers"),
        ],
    )
    def test_malformed_targets_are_named(self, layer, bad, what):
        """A target that does not convert raises a ``ValueError`` that names it
        and does not echo it, through the agreement event and the verifier."""
        b = gen_planted_scenario(3, layer, 6, 2)
        calls = {
            "classical": (agreement_event, verify_aumann),
            "quantum": (quantum_agreement_event, verify_quantum_aumann),
            "gpt": (gpt_agreement_event, verify_gpt_aumann),
        }[layer]
        head = () if b.hypothesis is None else (b.hypothesis,)
        for call in calls:
            with pytest.raises(ValueError, match=f"^target 1 must be {what}$"):
                call(b.model, b.measure, *head, (b.targets[0], bad))


@pytest.mark.parametrize("gen", [gen_planted_scenario, gen_unconstrained_scenario])
def test_generators_reject_an_unknown_layer(gen):
    with pytest.raises(ValueError, match="layer must be one of"):
        gen(0, "astral", 6, 2)


class TestSearchSeeds:
    def test_negative_count_exits_two_before_any_shard(self, monkeypatch, capsys):
        def seed_status(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(scenario, "_block_statuses", seed_status)
        assert main(["search", "--layer", "classical", "--seeds", "-5"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "n_seeds must be nonnegative" in captured.err
        assert captured.out == ""
        with pytest.raises(ValueError, match="n_seeds"):
            run_search("classical", -1, workers=2)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_exit_two_before_any_seed(self, workers, monkeypatch, capsys):
        def seed_status(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(scenario, "_block_statuses", seed_status)
        assert main(["search", "--layer", "classical", "--seeds", "4", "--workers", str(workers)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert f"workers must be positive, got {workers}" in captured.err
        assert captured.out == ""
        for n_seeds in (0, 4):
            with pytest.raises(ValueError, match="workers"):
                run_search("classical", n_seeds, workers=workers)

    @pytest.mark.parametrize("base_seed, n_seeds, bad", [
        (2**64 - 116, 1000, 2**64),  # the first seed past the range is named, as drawing it would
        (2**64 - 116, 117, 2**64),
        (2**64, 0, 2**64),
        (2**64 + 5, 3, 2**64 + 5),
        (-1, 0, -1),
        (-1, 40, -1),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_range_exits_two_before_any_block(self, base_seed, n_seeds, bad, workers, monkeypatch, capsys):
        """A search's first and last seed are checked against ``0..2**64 - 1``
        with the message ``_rng`` raises, before any block runs."""
        message = f"seed must be a 64-bit unsigned integer, got {bad}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _rng(bad)

        def block_statuses(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(scenario, "_block_statuses", block_statuses)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_search("classical", n_seeds, base_seed=base_seed, workers=workers)
        argv = ["search", "--layer", "classical", "--seeds", str(n_seeds), "--seed", str(base_seed),
                "--workers", str(workers)]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("base_seed, n_seeds", [(2**64 - 116, 116), (2**64 - 1, 1), (2**64 - 1, 0), (0, 0)])
    def test_seeds_up_to_the_last_64_bit_seed_run(self, base_seed, n_seeds, capsys):
        stats = run_search("classical", n_seeds, base_seed=base_seed)
        assert stats.n_scenarios == sum(stats.counts.values()) == n_seeds
        argv = ["search", "--layer", "classical", "--seeds", str(n_seeds), "--seed", str(base_seed), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["counts"] == stats.counts

    @pytest.mark.parametrize("workers", ["1", "2", "8"])
    def test_zero_seeds_is_an_empty_tally(self, workers, capsys):
        assert main(["search", "--layer", "classical", "--seeds", "0", "--workers", workers]) == 0
        out = capsys.readouterr().out
        assert "scenarios: 0\n" in out and "violations: 0\n" in out

    @pytest.mark.parametrize(
        "n_blocks, workers, n_procs", [(3, 8, 3), (1, 500, 0), (5, 2, 2), (10, 4, 4), (10, 5000, 4)]
    )
    def test_pool_has_one_process_per_shard(self, monkeypatch, n_blocks, workers, n_procs):
        """No real pool starts: the fake records its size and chunk size and
        maps inline, on a faked 4-CPU machine; ``n_procs`` 0 means no pool.
        A pool maps seed blocks, one per task, the last one short."""
        n_seeds = (n_blocks - 1) * _block_seeds("classical", 6, 2, 2, "simplex") + 1
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                seen.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        stats = run_search("classical", n_seeds, workers=workers)
        assert seen == ([n_procs, 1] if n_procs else [])
        assert stats.counts == run_search("classical", n_seeds).counts
        assert sum(stats.counts.values()) == n_seeds


class TestSearchShape:
    """A search's shape is checked before any block runs, and ``gen``'s
    before any draw, with messages that name the parameter."""

    CASES = [
        ({"n_worlds": 0, "mode": "random"}, ["--worlds", "0", "--mode", "random"], "n_worlds must be positive, got 0"),
        ({"n_worlds": -3, "mode": "random"}, ["--worlds", "-3", "--mode", "random"],
         "n_worlds must be positive, got -3"),
        ({"n_agents": 0}, ["--agents", "0"], "n_agents must be positive, got 0"),
        ({"n_worlds": 70}, ["--worlds", "70"], "classical scenarios have at most 63 worlds, got 70"),
        ({"n_worlds": 1}, ["--worlds", "1"], "planted scenarios need at least 2 worlds"),
    ]

    # a dim a seed's draw rejects, with the message the draw raises
    DIM_CASES = [
        ("quantum", {"dim": 0}, ["--dim", "0"], "dim and n_worlds must be positive", lambda: gen_dovm(0, 6, 0)),
        ("gpt", {"cone_kind": "polyhedral", "dim": 1}, ["--cone", "polyhedral", "--dim", "1"],
         "polyhedral cones need ambient dimension at least 2", lambda: gen_polyhedral_cone(0, 1, 2)),
        ("gpt", {"cone_kind": "simplex", "dim": 0}, ["--cone", "simplex", "--dim", "0"],
         "cone dimension must be positive", lambda: SimplexCone(0)),
        ("gpt", {"cone_kind": "psd", "dim": 0}, ["--cone", "psd", "--dim", "0"],
         "matrix dimension must be positive", lambda: PsdCone(0)),
        # a negative dim is checked before any array is sized by it
        ("gpt", {"cone_kind": "simplex", "dim": -1}, ["--cone", "simplex", "--dim", "-1"],
         "cone dimension must be positive", lambda: SimplexCone(-1)),
        ("gpt", {"cone_kind": "psd", "dim": -1}, ["--cone", "psd", "--dim", "-1"],
         "matrix dimension must be positive", lambda: PsdCone(-1)),
    ]

    @staticmethod
    def _exits_two_before_any_block(layer, n_seeds, kwargs, flags, message, monkeypatch, capsys):
        def block_statuses(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(scenario, "_block_statuses", block_statuses)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_search(layer, n_seeds, workers=2, **kwargs)
        argv = ["search", "--layer", layer, "--seeds", str(n_seeds), "--workers", "2", *flags]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    # BLOCK_ENTRIES + 1 seeds span two blocks of any shape (a block never
    # holds more than max(BLOCK_SEEDS, BLOCK_ENTRIES) seeds), so with two
    # workers a valid shape would be a pooled search
    @pytest.mark.parametrize("n_seeds", [0, 2, BLOCK_ENTRIES + 1])
    @pytest.mark.parametrize("kwargs, flags, message", CASES)
    def test_search_exits_two_before_any_block(self, kwargs, flags, message, n_seeds, monkeypatch, capsys):
        self._exits_two_before_any_block("classical", n_seeds, kwargs, flags, message, monkeypatch, capsys)

    @pytest.mark.parametrize("n_seeds", [0, BLOCK_ENTRIES + 1])
    @pytest.mark.parametrize("layer, kwargs, flags, message, draw", DIM_CASES)
    def test_search_checks_dim_before_any_block(self, layer, kwargs, flags, message, draw, n_seeds, monkeypatch,
                                                capsys):
        with pytest.raises(ValueError, match=f"^{message}$"):
            draw()
        self._exits_two_before_any_block(layer, n_seeds, kwargs, flags, message, monkeypatch, capsys)

    @pytest.mark.parametrize("kwargs, flags, message", CASES[:3])
    def test_gen_exits_two(self, kwargs, flags, message, capsys):
        planted = kwargs.pop("mode", None) != "random"
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_gen("classical", 0, planted=planted, **kwargs)
        argv = ["gen", "--layer", "classical", *(f for f in flags if f not in ("--mode", "random"))]
        assert main(argv + ([] if planted else ["--random"])) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mode_is_checked_before_the_shape(self):
        """An unknown mode is named as such, not taken for planting."""
        with pytest.raises(ValueError, match="^mode must be mix, planted, or random, got 'bogus'$"):
            run_search("classical", 10, n_worlds=1, mode="bogus")

    def test_random_search_takes_one_world(self):
        """Only planted scenarios need two worlds."""
        stats = run_search("classical", 3, n_worlds=1, mode="random")
        assert sum(stats.counts.values()) == 3


class TestScenarioShape:
    @pytest.mark.parametrize("kind", ["simplex", "polyhedral"])
    @pytest.mark.parametrize("dim", [-1, 0])
    def test_gpt_cone_dim_must_be_positive(self, kind, dim):
        doc = json.loads((DATA / "gpt_simplex.json").read_text())
        cone = {"kind": kind, "dim": dim}
        if kind == "polyhedral":
            cone["generators"] = []
        doc["measure"]["gpt"]["cone"] = cone
        with pytest.raises(ScenarioValidationError) as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "measure.gpt.cone.dim"

    def test_world_listed_twice_in_a_cell(self):
        doc = json.loads((DATA / "model_b_classical.json").read_text())
        doc["agents"][0]["partition"] = [["w0", "w1", "w0", "w1"], ["w2", "w3"]]
        with pytest.raises(ScenarioValidationError, match="twice") as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "agents[0].partition[0][2]"

    def test_world_listed_twice_in_the_hypothesis(self):
        doc = json.loads((DATA / "model_b_classical.json").read_text())
        doc["hypothesis"] = ["w0", "w2", "w0"]
        with pytest.raises(ScenarioValidationError, match="'w0' is listed twice in the hypothesis") as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "hypothesis[2]"

    def test_world_in_two_cells_still_overlaps(self):
        doc = json.loads((DATA / "model_b_classical.json").read_text())
        doc["agents"][1]["partition"] = [["w0", "w1"], ["w1", "w2"], ["w3"]]
        with pytest.raises(ScenarioValidationError, match="cell 1 overlaps an earlier cell") as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "agents[1].partition"


def test_deep_nesting_is_a_syntax_error(tmp_path):
    """A list nested past the decoder's recursion limit is malformed JSON, not a crash."""
    depth = 100_000
    text = '{"version": 1, "worlds": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(ScenarioSyntaxError, match="^document nested too deeply$"):
        parse_scenario(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    result = subprocess.run([sys.executable, "-m", "aumann", "agree", str(path)], capture_output=True, text=True)
    assert result.returncode == EXIT_INPUT_ERROR
    assert result.stdout == ""
    assert result.stderr == "error: document nested too deeply\n"


def _files():
    yield load("model_b_classical.json")
    yield load("gpt_simplex.json")
    for layer, kw in (("classical", {}), ("quantum", {"dim": 3}), ("gpt", {"cone_kind": "polyhedral", "dim": 3})):
        for seed in range(4):
            yield parse_scenario(serialize_scenario(run_gen(layer, seed, n_worlds=9, n_agents=3, **kw)))


class TestBuiltOnce:
    def test_runs_reuse_parsed_objects(self, monkeypatch):
        parsed = list(_files())

        def no_rebuild(*args, **kwargs):
            raise AssertionError("rebuilt after parsing")

        monkeypatch.setattr(scenario.Partition, "from_blocks", no_rebuild)
        monkeypatch.setattr(scenario, "_matrix_from_json", no_rebuild)
        monkeypatch.setattr(scenario.Event, "from_worlds", no_rebuild)
        for sf in parsed:
            run_agree(sf)
            run_analyze(sf)

    @pytest.mark.parametrize("run", [run_agree, run_analyze])
    def test_one_fixpoint_per_run(self, run, monkeypatch):
        calls = []
        degrees = knowledge._mutual_degrees

        def counted(model, mask):
            calls.append(mask)
            return degrees(model, mask)

        monkeypatch.setattr(knowledge, "_mutual_degrees", counted)
        for sf in _files():
            calls.clear()
            run(sf)
            assert len(calls) == 1


def _distance(layer, value, target):
    a, b = np.asarray(value), np.asarray(target)
    if layer == "quantum":
        return float(np.abs(np.linalg.eigvalsh(a - b)).sum())
    return float(np.abs(a - b).max())


def test_analyze_table_agrees_with_the_event():
    """Every cell inside the agreement event has a table value within tol of its agent's target."""
    for sf in _files():
        report = run_analyze(sf)
        tol = sf.tolerance or 1e-9
        for rows, target in zip(report.posteriors_by_cell, sf.targets):
            for cell, value in rows:
                if cell <= report.event and cell:
                    assert value is not None
                    assert _distance(sf.layer, value, target) <= tol * (1 + 1e-6) + 1e-15

"""Rejected inputs (bad tolerances, non-finite numbers, cone dimensions,
repeated worlds) and the objects a scenario builds once."""

import concurrent.futures
import json
import math
from pathlib import Path

import numpy as np
import pytest

import aumann.knowledge as knowledge
import aumann.scenario as scenario
from aumann import (
    Effect,
    PolyhedralCone,
    PsdCone,
    ScenarioValidationError,
    SimplexCone,
    agreement_event,
    effect_valid,
    gen_planted_scenario,
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

    def test_search_checks_before_any_shard(self, monkeypatch):
        def shard(args):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(scenario, "_search_shard", shard)
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
    @pytest.mark.parametrize(
        "cone", [SimplexCone(4), PsdCone(2), PolyhedralCone([[1.0, 0.5], [1.0, -0.5]], [1.0, 0.0])], ids=repr
    )
    def test_effects(self, cone, bad):
        f = cone.unit / 2
        assert effect_valid(cone, f)
        f[0] = bad
        with pytest.raises(ValueError, match="finite"):
            effect_valid(cone, f)
        with pytest.raises(ValueError, match="finite"):
            Effect(cone, f)

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


class TestSearchSeeds:
    def test_negative_count_exits_two_before_any_shard(self, monkeypatch, capsys):
        def shard(args):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(scenario, "_search_shard", shard)
        assert main(["search", "--layer", "classical", "--seeds", "-5"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "n_seeds must be nonnegative" in captured.err
        assert captured.out == ""
        with pytest.raises(ValueError, match="n_seeds"):
            run_search("classical", -1, workers=2)

    @pytest.mark.parametrize("workers", ["1", "2", "8"])
    def test_zero_seeds_is_an_empty_tally(self, workers, capsys):
        assert main(["search", "--layer", "classical", "--seeds", "0", "--workers", workers]) == 0
        out = capsys.readouterr().out
        assert "scenarios: 0\n" in out and "violations: 0\n" in out

    @pytest.mark.parametrize("n_seeds, workers, n_shards", [(3, 8, 3), (1, 500, 1), (5, 2, 2), (10, 4, 4)])
    def test_pool_has_one_process_per_shard(self, monkeypatch, n_seeds, workers, n_shards):
        """No real pool starts: the fake records its size and maps inline."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        stats = run_search("classical", n_seeds, workers=workers)
        assert sizes == [n_shards]
        assert stats.counts == run_search("classical", n_seeds).counts


class TestScenarioShape:
    @pytest.mark.parametrize("kind", ["simplex", "polyhedral"])
    @pytest.mark.parametrize("dim", [-1, 0])
    def test_gpt_cone_dim_must_be_positive(self, kind, dim):
        doc = json.loads((DATA / "gpt_simplex.json").read_text())
        doc["measure"]["gpt"]["cone"] = {"kind": kind, "dim": dim, "generators": []}
        with pytest.raises(ScenarioValidationError) as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "measure.gpt.cone.dim"

    def test_world_listed_twice_in_a_cell(self):
        doc = json.loads((DATA / "model_b_classical.json").read_text())
        doc["agents"][0]["partition"] = [["w0", "w1", "w0", "w1"], ["w2", "w3"]]
        with pytest.raises(ScenarioValidationError, match="twice") as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "agents[0].partition[0][2]"

    def test_world_in_two_cells_still_overlaps(self):
        doc = json.loads((DATA / "model_b_classical.json").read_text())
        doc["agents"][1]["partition"] = [["w0", "w1"], ["w1", "w2"], ["w3"]]
        with pytest.raises(ScenarioValidationError, match="cell 1 overlaps an earlier cell") as info:
            parse_scenario(json.dumps(doc))
        assert info.value.path == "agents[1].partition"


def _files():
    yield load("model_b_classical.json")
    yield load("gpt_simplex.json")
    for layer, kw in (("classical", {}), ("quantum", {"dim": 3}), ("gpt", {"cone_kind": "polyhedral", "dim": 3})):
        for seed in range(4):
            yield parse_scenario(serialize_scenario(run_gen(layer, seed, n_worlds=9, n_agents=3, **kw)))


class TestBuiltOnce:
    def test_objects_are_kept(self):
        for sf in _files():
            for build in (sf.model, sf.measure_object, sf.hypothesis_event, sf.target_values):
                assert build() is build()

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
        for rows, target in zip(report.posteriors_by_cell, sf.target_values()):
            for cell, value in rows:
                if cell <= report.event and cell:
                    assert value is not None
                    assert _distance(sf.layer, value, target) <= tol * (1 + 1e-6) + 1e-15

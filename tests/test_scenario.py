import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from aumann import (
    ScenarioSyntaxError,
    ScenarioValidationError,
    VerdictStatus,
    gen_planted_scenario,
    gen_unconstrained_scenario,
    parse_scenario,
    run_agree,
    run_analyze,
    run_convert,
    run_gen,
    run_search,
    scenario_from_bundle,
    serialize_scenario,
    verify_aumann,
)
from aumann.cli import EXIT_INPUT_ERROR, main
from aumann.generators import _block_seeds

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_scenario((DATA / name).read_text())


def gpt_measure(cone, unit):
    """A two-world GPT measure over ``cone`` whose atoms are each half of the state ``unit / |unit|^2``."""
    atom = [x / (2 * sum(u * u for u in unit)) for x in unit]
    return {"measure": {"gpt": {"cone": cone, "unit": unit, "atoms": [atom, atom]}}}


MINIMAL = """
{
  "version": 1,
  "worlds": ["u", "v"],
  "agents": [{"name": "a", "partition": [["u", "v"]]}],
  "measure": {"classical": {"weights": [0.5, 0.5]}}
}
"""


class TestParsing:
    def test_minimal_classical_parses(self):
        sf = parse_scenario(MINIMAL)
        assert sf.layer == "classical"
        assert sf.model().n_agents == 1

    def test_syntax_error_carries_location(self):
        with pytest.raises(ScenarioSyntaxError, match="line"):
            parse_scenario("{nope}")

    def test_unknown_world_in_partition(self):
        with pytest.raises(ScenarioValidationError, match=r"agents\[0\].partition"):
            load("invalid_unknown_world.json")

    def test_measure_invariants_surface(self):
        with pytest.raises(ScenarioValidationError, match="measure.classical"):
            load("invalid_weights.json")

    @pytest.mark.parametrize(
        "mutation, path_fragment",
        [
            ({"version": 2}, "version"),
            ({"worlds": ["u", "u"]}, "worlds"),
            ({"measure": {}}, "measure"),
            ({"measure": {"classical": {"weights": [1.0]}}}, "weights"),
            ({"targets": [0.5, 0.5]}, "targets"),
            ({"tolerance": -1.0}, "tolerance"),
            ({"surprise": 1}, "surprise"),
            ({"hypothesis": ["zz"]}, "hypothesis"),
            ({"agents": [{"name": "a", "partition": [["u"]]}]}, "partition"),
            ({"agents": [{"name": "a", "partition": [["u", "v"]], "role": "x"}]}, r"^agents\[0\]\.role: unknown"),
            (gpt_measure({"kind": "simplex", "dim": 2, "generators": []}, [1.0, 1.0]),
             r"^measure\.gpt\.cone\.generators: unknown"),
            (gpt_measure({"kind": "psd", "matrix_dim": 1, "dim": 1}, [1.0]), r"^measure\.gpt\.cone\.dim: unknown"),
            (gpt_measure({"kind": "polyhedral", "dim": 2, "generators": [[1.0, 0.0], [1.0, 1.0]], "open": True},
                         [1.0, 0.0]), r"^measure\.gpt\.cone\.open: unknown"),
            (gpt_measure({"kind": "simplex", "dim": 10**12}, [1.0, 1.0]),
             r"^measure\.gpt\.unit: expected 1000000000000 entries, got 2"),
            (gpt_measure({"kind": "psd", "matrix_dim": 10**6}, [1.0, 1.0]),
             r"^measure\.gpt\.unit: expected 1000000000000 entries, got 2"),
        ],
    )
    def test_validation_errors_with_paths(self, mutation, path_fragment):
        doc = json.loads(MINIMAL)
        doc.update(mutation)
        with pytest.raises(ScenarioValidationError, match=path_fragment):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ['"targets": [TOKEN]', '"tolerance": TOKEN'])
    def test_non_finite_json_constants_rejected(self, token, field):
        text = MINIMAL.replace('"measure"', field.replace("TOKEN", token) + ', "measure"')
        with pytest.raises(ScenarioSyntaxError, match=token):
            parse_scenario(text)

    def test_overflowing_number_rejected(self):
        text = MINIMAL.replace("[0.5, 0.5]", "[1e999, 0.5]")
        with pytest.raises(ScenarioValidationError, match=r"weights\[0\]"):
            parse_scenario(text)
        # an integer literal too large for a float, at each kind of number the reader takes
        big = 10**400
        gpt = {"cone": {"kind": "simplex", "dim": 2}, "unit": [1, big], "atoms": [[0.5, 0], [0, 0.5]]}
        quantum = {"dim": 1, "atoms": [[[[0.5, 0]]], [[[0.5, big]]]]}
        cases = [
            ({"measure": {"classical": {"weights": [big, 0.5]}}}, "measure.classical.weights[0]"),
            ({"measure": {"classical": {"weights": [0.5, -big]}}}, "measure.classical.weights[1]"),
            ({"hypothesis": ["u"], "targets": [big]}, "targets[0]"),
            ({"tolerance": big}, "tolerance"),
            ({"measure": {"gpt": gpt}}, "measure.gpt.unit[1]"),
            ({"measure": {"quantum": quantum}}, "measure.quantum.atoms[1][0][0][1]"),
        ]
        for fields, path in cases:
            with pytest.raises(ScenarioValidationError, match="expected a finite number") as info:
                parse_scenario(json.dumps({**json.loads(MINIMAL), **fields}))
            assert info.value.path == path

    def test_repeated_key_rejected(self):
        """``json.loads`` alone keeps the last value of a repeated key."""
        with pytest.raises(ScenarioSyntaxError, match="^duplicate key 'targets'$"):
            load("invalid_duplicate_key.json")
        with pytest.raises(ScenarioSyntaxError, match="^measure.classical: duplicate key 'weights'$") as info:
            parse_scenario(MINIMAL.replace('"weights"', '"weights": [1, 0], "weights"'))
        assert info.value.path == "measure.classical"

    def test_repeated_key_names_the_object(self):
        """A repeated key is reported at the path of the object that repeats
        it, also where the same key occurs once in every other such object."""
        text = (DATA / "gpt_simplex.json").read_text()
        cases = [
            (text.replace('{"name": "bob"', '{"name": "bob", "name": "carol"'), "agents[1]", "name"),
            (text.replace('"dim": 4}', '"dim": 4, "dim": 4}'), "measure.gpt.cone", "dim"),
            (text.replace('"gpt": {', '"gpt": {"unit": [1.0, 1.0, 1.0, 1.0],'), "measure.gpt", "unit"),
            (text.replace('"measure": {', '"measure": {"gpt": {},'), "measure", "gpt"),
        ]
        for doc, path, key in cases:
            with pytest.raises(ScenarioSyntaxError, match=f"^{re.escape(path)}: duplicate key '{key}'$") as info:
                parse_scenario(doc)
            assert info.value.path == path

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    def test_integer_beyond_the_digit_limit_is_a_syntax_error(self):
        text = MINIMAL.replace('"version": 1', '"version": 1' + "0" * sys.get_int_max_str_digits())
        with pytest.raises(ScenarioSyntaxError, match="integer string conversion"):
            parse_scenario(text)

    def test_quantum_matrix_shape_checked(self):
        doc = json.loads(MINIMAL)
        doc["measure"] = {"quantum": {"dim": 2, "atoms": [[[[1, 0]]], [[[0, 0]]]]}}
        with pytest.raises(ScenarioValidationError, match="atoms"):
            parse_scenario(json.dumps(doc))

    def test_unknown_cone_kind(self):
        doc = json.loads(MINIMAL)
        doc["measure"] = {"gpt": {"cone": {"kind": "ice"}, "unit": [1], "atoms": [[1], [1]]}}
        with pytest.raises(ScenarioValidationError, match="cone.kind"):
            parse_scenario(json.dumps(doc))

    def test_wrong_simplex_unit_rejected(self):
        doc = json.loads(MINIMAL)
        doc["measure"] = {
            "gpt": {
                "cone": {"kind": "simplex", "dim": 2},
                "unit": [1.0, 2.0],
                "atoms": [[0.5, 0.0], [0.0, 0.5]],
            }
        }
        with pytest.raises(ScenarioValidationError, match="unit"):
            parse_scenario(json.dumps(doc))


class TestCanonicalUnit:
    @staticmethod
    def _gpt_docs():
        yield json.loads((DATA / "gpt_simplex.json").read_text())
        yield json.loads(serialize_scenario(run_gen("gpt", 1, cone_kind="psd")))

    @pytest.mark.parametrize("offset", [9e-6, -9e-6, 2e-12])
    def test_unit_off_by_more_than_the_tolerance_is_rejected(self, offset, tmp_path, capsys):
        for doc in self._gpt_docs():
            doc["measure"]["gpt"]["unit"][0] += offset
            with pytest.raises(ScenarioValidationError) as info:
                parse_scenario(json.dumps(doc))
            assert info.value.path == "measure.gpt.unit"
            path = tmp_path / "off_unit.json"
            path.write_text(json.dumps(doc))
            assert main(["agree", str(path)]) == EXIT_INPUT_ERROR
            assert "measure.gpt.unit" in capsys.readouterr().err

    def test_unit_within_the_tolerance_builds_the_canonical_cone(self):
        for doc in self._gpt_docs():
            canonical = list(doc["measure"]["gpt"]["unit"])
            doc["measure"]["gpt"]["unit"][0] += 5e-13
            assert parse_scenario(json.dumps(doc)).measure.cone.unit.tolist() == canonical

    def test_every_fixture_and_generated_file_parses(self):
        for path in sorted(DATA.glob("*.json")):
            if not path.name.startswith("invalid_"):
                parse_scenario(path.read_text())
        for layer, cone_kind, dim in (("classical", "simplex", 2), ("quantum", "simplex", 3), ("gpt", "simplex", 3),
                                      ("gpt", "psd", 2), ("gpt", "psd", 3), ("gpt", "polyhedral", 3)):
            for seed in range(5):
                for planted in (True, False):
                    text = serialize_scenario(run_gen(layer, seed, dim=dim, cone_kind=cone_kind, planted=planted))
                    assert serialize_scenario(parse_scenario(text)) == text


class TestRoundTrip:
    @pytest.mark.parametrize("layer", ["classical", "quantum", "gpt"])
    def test_generated_scenarios_round_trip(self, layer):
        text = serialize_scenario(scenario_from_bundle(gen_planted_scenario(5, layer, 5, 2, dim=2)))
        assert serialize_scenario(parse_scenario(text)) == text

    def test_polyhedral_round_trip(self):
        bundle = gen_planted_scenario(6, "gpt", 4, 2, dim=3, cone_kind="polyhedral", n_generators=5)
        text = serialize_scenario(scenario_from_bundle(bundle))
        assert serialize_scenario(parse_scenario(text)) == text

    def test_golden_file_round_trips(self):
        text = serialize_scenario(load("model_b_classical.json"))
        assert serialize_scenario(parse_scenario(text)) == text

    def test_povm_file_round_trips(self):
        text = serialize_scenario(run_convert(load("quantum_pair.json"), "dovm2povm"))
        assert serialize_scenario(parse_scenario(text)) == text

    def test_written_form_is_canonical(self):
        """Cells and the hypothesis come back in world order, a near-Hermitian
        atom comes back symmetrised while an exactly Hermitian one is kept bit
        for bit, and a simplex unit within the tolerance comes back canonical."""

        def rewritten(doc):
            return json.loads(serialize_scenario(parse_scenario(json.dumps(doc))))

        doc = json.loads((DATA / "model_b_classical.json").read_text())
        doc["agents"][0]["partition"] = [["w3", "w2"], ["w1", "w0"]]
        doc["hypothesis"] = ["w2", "w0"]
        out = rewritten(doc)
        assert out["agents"][0]["partition"] == [["w2", "w3"], ["w0", "w1"]]
        assert out["hypothesis"] == ["w0", "w2"]

        doc = json.loads((DATA / "quantum_pair.json").read_text())
        atoms = doc["measure"]["quantum"]["atoms"]
        atoms[0][0][1][1] += 4e-13  # Im of entry (0, 1), now 4e-13 off Hermitian
        out = rewritten(doc)["measure"]["quantum"]["atoms"]
        upper, lower = out[0][0][1], out[0][1][0]
        assert lower == [upper[0], -upper[1]] and upper != atoms[0][0][1]
        assert upper[1] == (atoms[0][0][1][1] - atoms[0][1][0][1]) / 2
        assert out[1] == atoms[1]

        doc = json.loads((DATA / "gpt_simplex.json").read_text())
        doc["measure"]["gpt"]["unit"][0] += 5e-13
        assert rewritten(doc)["measure"]["gpt"]["unit"] == [1.0, 1.0, 1.0, 1.0]


class TestRunAgree:
    def test_model_b_worked_example(self):
        report = run_agree(load("model_b_classical.json"))
        assert report.verdict.status is VerdictStatus.HOLDS
        assert report.verdict.pooled_posterior == pytest.approx(0.5)
        assert report.common.worlds() == (0, 1)

    def test_matches_direct_library_call_exactly(self):
        sf = load("model_b_classical.json")
        report = run_agree(sf)
        direct = verify_aumann(
            sf.model(), sf.measure, sf.hypothesis, sf.targets
        )
        assert report.verdict.status == direct.status
        assert report.verdict.common_event == direct.common_event
        assert report.verdict.pooled_posterior == direct.pooled_posterior
        assert report.verdict.posteriors == direct.posteriors

    def test_vacuous_example(self):
        report = run_agree(load("model_a_vacuous.json"))
        assert report.verdict.status is VerdictStatus.VACUOUS_EMPTY_COMMON_KNOWLEDGE

    def test_gpt_file(self):
        report = run_agree(load("gpt_simplex.json"))
        assert report.verdict.status is VerdictStatus.HOLDS

    def test_quantum_file_needs_targets(self):
        with pytest.raises(ScenarioValidationError, match="targets"):
            run_agree(load("quantum_pair.json"))

    def test_classical_needs_hypothesis(self):
        doc = json.loads(MINIMAL)
        doc["targets"] = [0.5]
        with pytest.raises(ScenarioValidationError, match="hypothesis"):
            run_agree(parse_scenario(json.dumps(doc)))

    def test_povm_scenario_rejected(self):
        povm_sf = run_convert(load("quantum_pair.json"), "dovm2povm")
        with pytest.raises(ScenarioValidationError, match="conversion"):
            run_agree(povm_sf)

    def test_tol_priority(self):
        sf = load("model_b_classical.json")
        sf.tolerance = 0.5
        # file tolerance 0.5 accepts any cell, call tol overrides back to strict
        loose = run_agree(sf)
        strict = run_agree(sf, tol=1e-9)
        assert loose.verdict.status is VerdictStatus.HOLDS
        assert strict.verdict.status is VerdictStatus.HOLDS
        assert loose.verdict.common_event != strict.verdict.common_event

    def test_report_json_is_serializable(self):
        for name in ("model_b_classical.json", "gpt_simplex.json"):
            report = run_agree(load(name))
            text = json.dumps(report.to_json_dict())
            assert "holds" in text or "vacuous" in text


class TestRunAnalyze:
    def test_full_report_fields(self):
        report = run_analyze(load("model_b_classical.json"))
        assert report.event.worlds() == (0, 1)
        assert [k.worlds() for k in report.knowledge] == [(0, 1), (0, 1)]
        assert report.common.worlds() == (0, 1)
        assert report.verdict is not None
        assert report.posteriors_by_cell is not None
        assert report.timings["total"] >= 0

    def test_hypothesis_only_mode(self):
        report = run_analyze(load("hypothesis_only.json"))
        assert report.verdict is None
        assert report.event.worlds() == (0,)
        # forecaster cell {rain, fog} is not inside {rain}; pilot knows at rain
        assert [k.worlds() for k in report.knowledge] == [(), (0,)]
        assert not report.common

    def test_needs_hypothesis_or_targets(self):
        sf = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioValidationError):
            run_analyze(sf)

    def test_quantum_analyze(self):
        sf = scenario_from_bundle(gen_planted_scenario(9, "quantum", 4, 2, dim=2))
        report = run_analyze(sf)
        assert report.verdict.status is VerdictStatus.HOLDS
        assert report.mutual_trace[-1] == report.common
        text = report.to_text()
        assert "verdict: holds" in text


class TestRunConvert:
    def test_round_trip_within_tolerance(self):
        sf = load("quantum_pair.json")
        povm_sf = run_convert(sf, "dovm2povm")
        assert povm_sf.layer == "povm"
        back = run_convert(povm_sf, "povm2dovm")
        assert np.abs(sf.measure.atoms - back.measure.atoms).max() <= 1e-8
        assert back.worlds == sf.worlds and back.agents == sf.agents

    def test_dovm2povm_stores_the_total_state_exactly(self):
        sf = load("quantum_pair.json")
        state = json.loads(serialize_scenario(run_convert(sf, "dovm2povm")))["measure"]["povm"]["state"]
        total = sf.measure.total
        assert state == [[[float(z.real), float(z.imag)] for z in row] for row in total]

    def test_direction_validation(self):
        sf = load("quantum_pair.json")
        with pytest.raises(ScenarioValidationError, match="direction"):
            run_convert(sf, "sideways")
        with pytest.raises(ScenarioValidationError, match="quantum"):
            run_convert(load("model_b_classical.json"), "dovm2povm")
        with pytest.raises(ScenarioValidationError, match="povm"):
            run_convert(sf, "povm2dovm")


class TestRunGenAndSearch:
    @pytest.mark.parametrize("layer", ["classical", "quantum", "gpt"])
    def test_gen_output_parses_and_holds(self, layer):
        sf = run_gen(layer, 31, n_worlds=5, n_agents=2, dim=2)
        sf2 = parse_scenario(serialize_scenario(sf))
        report = run_agree(sf2)
        assert report.verdict.status is VerdictStatus.HOLDS

    def test_search_counts_and_determinism(self):
        a = run_search("classical", 100, n_worlds=5, n_agents=2)
        b = run_search("classical", 100, n_worlds=5, n_agents=2)
        assert a.counts == b.counts
        assert sum(a.counts.values()) == 100
        assert a.violations == 0

    @pytest.mark.parametrize(
        "layer, cone_kind", [("classical", "simplex"), ("quantum", "simplex"),
                             ("gpt", "simplex"), ("gpt", "psd"), ("gpt", "polyhedral")],
    )
    def test_search_workers_agree(self, layer, cone_kind):
        """One process and two tally the same seeds over more than one
        block of the search's shape."""
        n_seeds = _block_seeds(layer, 4, 2, 2, cone_kind) + 3
        solo = run_search(layer, n_seeds, n_worlds=4, n_agents=2, cone_kind=cone_kind)
        team = run_search(layer, n_seeds, n_worlds=4, n_agents=2, cone_kind=cone_kind, workers=2)
        assert solo.counts == team.counts
        assert solo.violation_seeds == team.violation_seeds

    @pytest.mark.parametrize("n_seeds", [0, 1, _block_seeds("gpt", 4, 2, 2, "psd") + 3])
    def test_search_workers_agree_across_blocks(self, n_seeds):
        """Two processes, each mapping whole seed blocks, tally what one does,
        down to the seeds flagged, when the last block is short."""
        solo = run_search("gpt", n_seeds, n_worlds=4, n_agents=2, cone_kind="psd")
        team = run_search("gpt", n_seeds, n_worlds=4, n_agents=2, cone_kind="psd", workers=2)
        assert solo.counts == team.counts
        assert solo.violation_seeds == team.violation_seeds
        assert sum(team.counts.values()) == n_seeds

    def test_search_modes(self):
        planted = run_search("classical", 50, mode="planted", n_worlds=5, n_agents=3)
        assert planted.counts.get("holds", 0) == 50
        random = run_search("classical", 50, mode="random", n_worlds=5, n_agents=3)
        assert sum(random.counts.values()) == 50

    def test_search_validation(self):
        with pytest.raises(ValueError):
            run_search("astral", 10)
        with pytest.raises(ValueError):
            run_search("classical", 10, mode="chaotic")

    def test_stats_render(self):
        stats = run_search("gpt", 20, n_worlds=4, n_agents=2)
        assert "violations: 0" in stats.to_text()
        assert json.dumps(stats.to_json_dict())

    @pytest.mark.parametrize("n_seeds", [0, 1, _block_seeds("quantum", 4, 2, 2, "simplex") + 3])
    def test_stats_keep_generate_and_verify_time_apart(self, n_seeds):
        """Each block times its generation and its verification; the stats
        carry both sums, in process within the elapsed time."""
        stats = run_search("quantum", n_seeds, n_worlds=4, n_agents=2)
        assert 0 <= stats.generate_s and 0 <= stats.verify_s
        assert stats.generate_s + stats.verify_s <= stats.elapsed_s
        if n_seeds:
            assert stats.generate_s > 0 and stats.verify_s > 0
        doc = stats.to_json_dict()
        assert (doc["generate_s"], doc["verify_s"]) == (stats.generate_s, stats.verify_s)
        assert (f"elapsed: {stats.elapsed_s:.3f}s (generate {stats.generate_s:.3f}s, "
                f"verify {stats.verify_s:.3f}s)\n") in stats.to_text()


class TestUnconstrainedThroughFiles:
    def test_unconstrained_bundle_serializes(self):
        for seed in range(6):
            bundle = gen_unconstrained_scenario(seed, "classical", 5, 2)
            text = serialize_scenario(scenario_from_bundle(bundle))
            assert serialize_scenario(parse_scenario(text)) == text

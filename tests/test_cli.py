import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "aumann", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestAgree:
    def test_model_b_worked_example(self):
        result = cli("agree", str(DATA / "model_b_classical.json"))
        assert result.returncode == 0
        assert "verdict: holds" in result.stdout
        assert "pooled posterior: 0.500000" in result.stdout
        assert "common event: [w0, w1]" in result.stdout

    def test_json_output_full_precision(self):
        result = cli("agree", str(DATA / "model_b_classical.json"), "--json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["verdict"]["status"] == "holds"
        assert doc["verdict"]["pooled_posterior"] == 0.5
        assert doc["verdict"]["common_event"] == ["w0", "w1"]

    def test_vacuous_is_exit_zero(self):
        result = cli("agree", str(DATA / "model_a_vacuous.json"))
        assert result.returncode == 0
        assert "vacuous_empty_common_knowledge" in result.stdout

    @pytest.mark.parametrize(
        "name", ["invalid_weights.json", "invalid_cone_field.json", "invalid_huge_dim.json", "invalid_duplicate_key.json"]
    )
    def test_invalid_file_is_exit_two(self, name):
        result = cli("agree", str(DATA / name))
        assert result.returncode == 2
        assert "error:" in result.stderr

    @pytest.mark.parametrize("name", ["invalid_nan_target.json", "invalid_infinite_tolerance.json"])
    def test_non_finite_number_is_exit_two(self, name):
        result = cli("agree", str(DATA / name))
        assert result.returncode == 2
        assert "non-finite" in result.stderr
        assert result.stdout == ""

    def test_missing_file_is_exit_two(self):
        result = cli("agree", str(DATA / "no_such_file.json"))
        assert result.returncode == 2

    def test_syntax_error_is_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = cli("agree", str(bad))
        assert result.returncode == 2
        assert "line" in result.stderr

    def test_max_iters_too_small_is_exit_two(self):
        result = cli("agree", str(DATA / "model_b_classical.json"), "--max-iters", "0")
        assert result.returncode == 2


class TestViolatedExitCode:
    def test_mapping(self):
        # VIOLATED is unreachable through honest inputs (the theorems hold),
        # so the mapping is pinned at unit level
        from aumann.cli import EXIT_VIOLATED, _verdict_exit_code
        from aumann.scenario import Report
        from aumann.verdicts import AgreementVerdict, VerdictStatus
        from aumann.knowledge import Event

        verdict = AgreementVerdict(VerdictStatus.VIOLATED, Event.full(2), (0.1, 0.9), 0.5)
        report = Report(layer="classical", worlds=["w0", "w1"], verdict=verdict)
        assert _verdict_exit_code(report) == EXIT_VIOLATED


class TestAnalyze:
    def test_hypothesis_only(self):
        result = cli("analyze", str(DATA / "hypothesis_only.json"))
        assert result.returncode == 0
        assert "common knowledge: []" in result.stdout
        assert "knowledge[pilot]: [rain]" in result.stdout

    def test_agreement_analysis(self):
        result = cli("analyze", str(DATA / "model_b_classical.json"), "--json")
        doc = json.loads(result.stdout)
        assert doc["event"] == ["w0", "w1"]
        assert doc["mutual_trace"][-1] == ["w0", "w1"]
        assert doc["verdict"]["status"] == "holds"


class TestConvert:
    def test_round_trip_files(self, tmp_path):
        povm_path = tmp_path / "povm.json"
        back_path = tmp_path / "back.json"
        r1 = cli("convert", str(DATA / "quantum_pair.json"), "--direction", "dovm2povm", "--out", str(povm_path))
        assert r1.returncode == 0
        r2 = cli("convert", str(povm_path), "--direction", "povm2dovm", "--out", str(back_path))
        assert r2.returncode == 0
        original = json.loads((DATA / "quantum_pair.json").read_text())
        final = json.loads(back_path.read_text())
        orig_atoms = original["measure"]["quantum"]["atoms"]
        back_atoms = final["measure"]["quantum"]["atoms"]
        for a, b in zip(orig_atoms, back_atoms):
            for ra, rb in zip(a, b):
                for (re_a, im_a), (re_b, im_b) in zip(ra, rb):
                    assert abs(re_a - re_b) <= 1e-8 and abs(im_a - im_b) <= 1e-8

    def test_wrong_layer_is_exit_two(self):
        result = cli("convert", str(DATA / "model_b_classical.json"), "--direction", "dovm2povm")
        assert result.returncode == 2


class TestGen:
    @pytest.mark.parametrize("layer", ["classical", "quantum", "gpt"])
    def test_gen_then_agree(self, layer, tmp_path):
        out = tmp_path / "scenario.json"
        r1 = cli("gen", "--layer", layer, "--seed", "7", "--worlds", "5", "--out", str(out))
        assert r1.returncode == 0
        r2 = cli("agree", str(out))
        assert r2.returncode == 0
        assert "verdict: holds" in r2.stdout

    def test_gen_deterministic(self):
        a = cli("gen", "--layer", "classical", "--seed", "3")
        b = cli("gen", "--layer", "classical", "--seed", "3")
        assert a.stdout == b.stdout

    def test_gen_stdout_parses(self):
        from aumann import parse_scenario

        result = cli("gen", "--layer", "gpt", "--cone", "polyhedral", "--dim", "3")
        assert result.returncode == 0
        parse_scenario(result.stdout)

    def test_allocation_failure_is_exit_two(self, monkeypatch, capsys):
        import aumann.cli

        def run_gen(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(aumann.cli, "run_gen", run_gen)
        assert aumann.cli.main(["gen", "--layer", "classical"]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"


class TestSearch:
    def test_small_search(self):
        result = cli("search", "--layer", "classical", "--seeds", "50")
        assert result.returncode == 0
        assert "violations: 0" in result.stdout

    def test_json_output(self):
        result = cli("search", "--layer", "quantum", "--seeds", "10", "--json")
        doc = json.loads(result.stdout)
        assert doc["violations"] == 0
        assert doc["n_scenarios"] == 10


class TestFlagPlumbing:
    def test_tol_flag_changes_matching(self):
        # with a huge tolerance every cell matches, so the common event grows
        strict = cli("agree", str(DATA / "model_b_classical.json"), "--json")
        loose = cli("agree", str(DATA / "model_b_classical.json"), "--json", "--tol", "0.5")
        strict_event = json.loads(strict.stdout)["verdict"]["common_event"]
        loose_event = json.loads(loose.stdout)["verdict"]["common_event"]
        assert strict_event == ["w0", "w1"]
        assert loose_event == ["w0", "w1", "w2", "w3"]

    def test_gen_random_flag(self):
        from aumann import parse_scenario

        result = cli("gen", "--layer", "classical", "--seed", "2", "--random")
        assert result.returncode == 0
        parse_scenario(result.stdout)

    def test_analyze_povm_file_is_input_error(self, tmp_path):
        out = tmp_path / "povm.json"
        assert cli("convert", str(DATA / "quantum_pair.json"), "--direction", "dovm2povm",
                   "--out", str(out)).returncode == 0
        result = cli("analyze", str(out))
        assert result.returncode == 2
        assert "conversion" in result.stderr


class TestColdStart:
    def test_exports_match_the_submodules(self):
        """Every lazily exported name exists in its submodule, and a submodule's
        ``__all__`` is the very tuple exported from it."""
        import importlib

        import aumann

        for module_name, names in aumann._EXPORTS.items():
            module = importlib.import_module(f"aumann.{module_name}")
            assert [n for n in names if not hasattr(module, n)] == [], module_name
            if hasattr(module, "__all__"):
                assert module.__all__ is names, module_name

    def test_import_leaves_scipy_optimize_unloaded(self):
        """Importing the package must not load scipy.optimize."""
        result = subprocess.run(
            [sys.executable, "-c", "import sys, aumann; print('scipy.optimize' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @staticmethod
    def _last_line_after(code: str):
        """The JSON value on the last line a fresh interpreter prints after running ``code``."""
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def _loaded_after(self, code: str) -> list[str]:
        """Names of the modules in ``sys.modules`` after a fresh interpreter runs ``code``."""
        return self._last_line_after(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")

    def test_import_loads_no_submodule(self):
        """Public names resolve on first access; a bare import loads no layer and no process pool."""
        loaded = self._loaded_after("import aumann")
        assert [m for m in loaded if m.startswith("aumann.")] == []
        assert "concurrent.futures.process" not in loaded

    def test_classical_agree_loads_only_its_layer(self):
        path = str(DATA / "model_b_classical.json")
        loaded = self._loaded_after(
            f"import contextlib, io\nfrom aumann import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main(['agree', {path!r}]) == 0"
        )
        for name in ("aumann.quantum", "aumann.gpt", "aumann.generators", "concurrent.futures.process"):
            assert name not in loaded
        assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)
        assert {"aumann.cli", "aumann.scenario", "aumann.classical", "aumann.knowledge"} <= set(loaded)

    _POLYHEDRAL_AGREE = (
        "import contextlib, io\nfrom aumann import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['agree', {str(DATA / 'gpt_polyhedral.json')!r}]) == 0\n"
    )
    _POLYHEDRAL_SEARCH = (
        "from aumann.scenario import run_search\n"
        "stats = run_search('gpt', 24, n_worlds=4, dim=3, cone_kind='polyhedral')\n"
        "assert stats.n_scenarios == 24 and stats.violations == 0\n"
    )

    def test_polyhedral_agree_loads_no_scipy(self):
        """Polyhedral cone membership is decided with numpy alone."""
        loaded = self._loaded_after(self._POLYHEDRAL_AGREE)
        assert "aumann.gpt" in loaded
        assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)

    def test_polyhedral_search_loads_no_scipy(self):
        loaded = self._loaded_after(self._POLYHEDRAL_SEARCH)
        assert "aumann.gpt" in loaded
        assert not any(m == "scipy" or m.startswith("scipy.") for m in loaded)

    def test_polyhedral_agree_and_search_run_with_scipy_blocked(self):
        """With ``scipy`` unimportable, both still succeed: nothing at run time needs it."""
        blocked = "import sys\nsys.modules['scipy'] = None\n"
        assert self._last_line_after(
            blocked + self._POLYHEDRAL_AGREE + self._POLYHEDRAL_SEARCH + "print('true')"
        ) is True

    def test_star_import_binds_every_public_name(self):
        names, unbound, error = self._last_line_after(
            "import json\nimport aumann\nfrom aumann import *\n"
            "try:\n    aumann.no_such_name\n    error = None\nexcept AttributeError as exc:\n    error = str(exc)\n"
            "print(json.dumps([aumann.__all__, [n for n in aumann.__all__ if n not in globals()], error]))"
        )
        assert len(names) == len(set(names)) > 0
        assert unbound == []
        assert error == "module 'aumann' has no attribute 'no_such_name'"


def test_search_gpt_psd_dim3_past_seed_166():
    result = cli("search", "--layer", "gpt", "--cone", "psd", "--dim", "3", "--seeds", "200", "--mode", "random")
    assert result.returncode == 0, result.stderr
    assert "scenarios: 200" in result.stdout
    assert "violations: 0" in result.stdout


@pytest.mark.parametrize("part", ["runtime", "console"])
def test_smoke_script(part, tmp_path):
    """The CI workflow's command-line run (``tests/smoke.sh``) passes with
    ``python -m aumann``; its runtime part with scipy unimportable."""
    paths = [str(ROOT / "src")]
    if part == "runtime":
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("raise ImportError('scipy is blocked')\n")
        paths.insert(0, str(tmp_path))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHON": sys.executable}
    if part == "runtime":
        blocked = subprocess.run([sys.executable, "-c", "import scipy"], env=env, capture_output=True)
        assert blocked.returncode != 0
    result = subprocess.run(
        ["bash", str(ROOT / "tests" / "smoke.sh"), part, sys.executable, "-m", "aumann"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr

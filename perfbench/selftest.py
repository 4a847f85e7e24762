"""The benchmark's own test. Run from the repository root:

    python3 perfbench/selftest.py

A one-second run of each workload must print every metric named in
BENCHMARK.json with its unit; a wrong golden count must be counted as a
failure without stopping the run; and in a directory that holds only the
benchmark, without the program, the benchmark must fail without a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import search_mix  # noqa: E402
import workload  # noqa: E402
from trace_spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


class TinyRuns(unittest.TestCase):
    def check_run(self, name: str, trace: int, expected: list[dict]) -> None:
        proc = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_emits_every_metric(self) -> None:
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_run(w["name"], 0, SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_run(w["name"], 1, SPEC["per_layer"])


class GoldenMismatch(unittest.TestCase):
    def test_wrong_count_is_a_failure_not_a_crash(self) -> None:
        aumann = workload.load_aumann()
        golden = copy.deepcopy(search_mix.load_golden())
        base = str(search_mix.block_base("search-matrix", 7))
        golden["counts"]["search-matrix"]["quantum"][base]["holds"] += 1
        mix = search_mix.SearchMix(aumann, "search-matrix", 7, golden)
        self.assertEqual(mix.run_round(), (3, 1))
        self.assertEqual(mix.run_round(Tracer()), (6, 2))

    def test_golden_is_keyed_on_the_seed(self) -> None:
        aumann = workload.load_aumann()
        golden = search_mix.load_golden()
        for seed in (0, 63, 64, 2**40 + 9):
            mix = search_mix.SearchMix(aumann, "search-wide", seed, golden)
            self.assertEqual(mix.base, search_mix.FIRST_SEED + (seed % search_mix.N_BLOCKS) * mix.spec["block"])
            self.assertEqual(mix.run_round(), (2, 0))


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self) -> None:
        self.assertEqual(workload.tail(list(range(100)))[0], 90)
        self.assertEqual(workload.tail(list(range(26)))[0], 60)
        self.assertEqual(workload.tail(list(range(5))), (50, 2))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self) -> None:
        bare = workload.WORK / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = bench("--workload", "search-matrix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

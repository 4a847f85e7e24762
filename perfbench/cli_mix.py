"""cli-files workload: cold ``python -m aumann`` invocations on scenario files.

One pass runs a fixed mix of 13 commands, each in a fresh interpreter, and
checks its exit code and output:

- ``agree`` on the valid ``tests/data`` fixtures (exit 0 and the expected
  verdict) and on the invalid ones (exit 2);
- ``analyze`` on ``hypothesis_only.json``;
- ``agree`` on a 512-world electronic-mail-game chain and ``analyze --json``
  on a 256-world one: every finite level of mutual knowledge of the
  agreement event is non-empty up to level n-2, and common knowledge is
  empty (Rubinstein 1989), so the fixpoint runs n-2 steps;
- ``agree`` on a generated quantum file (24 worlds, d=4, 3 agents) and a
  generated gpt-polyhedral file (24 worlds, dim 3, 3 agents);
- ``convert dovm2povm`` then ``povm2dovm``, checked against the original
  atoms;
- one ``gen --out`` write, checked against the expected document.

Each invocation pays the interpreter start and ``import aumann``; that cold
path, not the search loop, is what a user of single-file commands waits on.
The traced pass runs the same commands in-process through ``cli.main`` and
the public ``scenario``/``knowledge`` calls behind them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VALID_FIXTURES = {
    "model_b_classical": "holds",
    "model_a_vacuous": "vacuous_empty_common_knowledge",
    "gpt_simplex": "holds",
}
INVALID_FIXTURES = ("invalid_unknown_world", "invalid_weights")
CHAIN_AGREE, CHAIN_ANALYZE = 512, 256
GEN_ARGS = ["--layer", "gpt", "--cone", "simplex", "--dim", "4", "--worlds", "12", "--agents", "3"]
GEN_KW = {"cone_kind": "simplex", "dim": 4, "n_worlds": 12, "n_agents": 3}  # the same, for run_gen("gpt", ...)
ROUND_TRIP_ATOL = 1e-9


def email_chain(n: int, seed: int) -> dict:
    """Scenario of the electronic-mail game with ``n`` worlds (n even).

    The sender's cells are {0,1}, {2,3}, ...; the receiver's are {0},
    {1,2}, ..., {n-1}. The hypothesis is every world but the last and both
    targets are 1, so the agreement event is worlds 0..n-3 and each
    everybody-knows step removes one world until none is left.
    """
    rng = random.Random(f"email-chain-{seed}-{n}")
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(raw)
    worlds = [f"m{i}" for i in range(n)]
    sender = [[worlds[i], worlds[i + 1]] for i in range(0, n, 2)]
    receiver = [[worlds[0]]] + [[worlds[i], worlds[i + 1]] for i in range(1, n - 1, 2)] + [[worlds[-1]]]
    return {
        "version": 1,
        "worlds": worlds,
        "agents": [{"name": "sender", "partition": sender}, {"name": "receiver", "partition": receiver}],
        "measure": {"classical": {"weights": [x / total for x in raw]}},
        "hypothesis": worlds[:-1],
        "targets": [1.0, 1.0],
    }


def _verdict(stdout: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith("verdict: "):
            return line[len("verdict: "):]
    return None


def expect_verdict(status: str) -> Callable[[int, str], str | None]:
    def check(rc: int, stdout: str) -> str | None:
        got = _verdict(stdout)
        return None if rc == 0 and got == status else f"exit {rc}, verdict {got!r}, expected 0 and {status!r}"
    return check


def expect_input_error(rc: int, stdout: str) -> str | None:
    return None if rc == 2 else f"exit {rc}, expected 2"


def expect_hypothesis_analysis(rc: int, stdout: str) -> str | None:
    lines = stdout.splitlines()
    ok = rc == 0 and "common knowledge: []" in lines and "knowledge[pilot]: [rain]" in lines
    return None if ok else f"exit {rc}, unexpected analysis"


def expect_chain_analysis(n: int) -> Callable[[int, str], str | None]:
    def check(rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        doc = json.loads(stdout)
        trace = doc["mutual_trace"]
        ok = (
            len(trace) == n - 1
            and [len(level) for level in trace[: n - 2]] == list(range(n - 3, -1, -1))
            and doc["common_knowledge"] == []
            and doc["verdict"]["status"] == "vacuous_empty_common_knowledge"
        )
        return None if ok else f"chain analysis: {len(trace)} levels, verdict {doc['verdict']['status']}"
    return check


@dataclass
class Command:
    argv: list[str]
    check: Callable[[int, str], str | None]
    outputs: tuple[Path, ...] = ()


class CliMix:
    """The cli-files inputs, written under ``work`` from the workload seed."""

    name = "cli-files"

    def __init__(self, aumann, root: Path, work: Path, seed: int, env: dict):
        self.aumann = aumann
        self.root = root
        self.env = env
        work.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, Path] = {}
        for stem in (*VALID_FIXTURES, *INVALID_FIXTURES, "hypothesis_only"):
            self.files[stem] = root / "tests" / "data" / f"{stem}.json"
            if not self.files[stem].is_file():
                raise SystemExit(f"missing fixture {self.files[stem]}")
        for n in (CHAIN_AGREE, CHAIN_ANALYZE):
            self._write(work, f"email_chain_{n}", json.dumps(email_chain(n, seed)))
        ser = aumann.serialize_scenario
        self._write(work, "quantum_24w", ser(aumann.run_gen("quantum", seed, n_worlds=24, n_agents=3, dim=4)))
        self._write(work, "gpt_polyhedral_24w", ser(aumann.run_gen(
            "gpt", seed, n_worlds=24, n_agents=3, dim=3, cone_kind="polyhedral")))
        self.files["quantum_24w_povm"] = work / "quantum_24w_povm.json"
        self.round_trip = work / "quantum_24w_roundtrip.json"
        self.gen_out = work / "gen_out.json"
        self.gen_seed = seed
        self.gen_expected = ser(aumann.run_gen("gpt", seed, **GEN_KW))
        self.original_atoms = self._atoms(self.files["quantum_24w"])
        self.commands = self._commands()
        self.fixpoint_steps: list[int] = []

    def _write(self, work: Path, stem: str, text: str) -> None:
        path = work / f"{stem}.json"
        path.write_text(text, encoding="utf-8")
        self.files[stem] = path

    @staticmethod
    def _atoms(path: Path):
        import numpy as np

        atoms = json.loads(path.read_text(encoding="utf-8"))["measure"]["quantum"]["atoms"]
        pairs = np.asarray(atoms, dtype=float)
        return pairs[..., 0] + 1j * pairs[..., 1]

    def _check_round_trip(self, rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        diff = float(abs(self._atoms(self.round_trip) - self.original_atoms).max())
        return None if diff <= ROUND_TRIP_ATOL else f"round trip off by {diff:.3g}"

    def _check_povm(self, rc: int, stdout: str) -> str | None:
        path = self.files["quantum_24w_povm"]
        ok = rc == 0 and "povm" in json.loads(path.read_text(encoding="utf-8"))["measure"]
        return None if ok else f"exit {rc}, no povm document"

    def _check_gen(self, rc: int, stdout: str) -> str | None:
        ok = rc == 0 and self.gen_out.read_text(encoding="utf-8") == self.gen_expected
        return None if ok else f"exit {rc}, generated document differs"

    def _commands(self) -> list[Command]:
        f = {k: str(v) for k, v in self.files.items()}
        cmds = [Command(["agree", f[s]], expect_verdict(v)) for s, v in VALID_FIXTURES.items()]
        cmds += [Command(["agree", f[s]], expect_input_error) for s in INVALID_FIXTURES]
        cmds += [
            Command(["analyze", f["hypothesis_only"]], expect_hypothesis_analysis),
            Command(["agree", f[f"email_chain_{CHAIN_AGREE}"]], expect_verdict("vacuous_empty_common_knowledge")),
            Command(["analyze", "--json", f[f"email_chain_{CHAIN_ANALYZE}"]], expect_chain_analysis(CHAIN_ANALYZE)),
            Command(["agree", f["quantum_24w"]], expect_verdict("holds")),
            Command(["agree", f["gpt_polyhedral_24w"]], expect_verdict("holds")),
            Command(["convert", f["quantum_24w"], "--direction", "dovm2povm", "--out", f["quantum_24w_povm"]],
                    self._check_povm, (self.files["quantum_24w_povm"],)),
            Command(["convert", f["quantum_24w_povm"], "--direction", "povm2dovm", "--out", str(self.round_trip)],
                    self._check_round_trip, (self.round_trip,)),
            Command(["gen", *GEN_ARGS, "--seed", str(self.gen_seed), "--out", str(self.gen_out)],
                    self._check_gen, (self.gen_out,)),
        ]
        return cmds

    def _judge(self, cmd: Command, rc: int, stdout: str) -> bool:
        try:
            err = cmd.check(rc, stdout)
        except (OSError, ValueError, KeyError, TypeError):
            err = traceback.format_exc()
        if err is not None:
            sys.stderr.write(f"cli-files: aumann {' '.join(cmd.argv)}: {err}\n")
        return err is None

    def clear_outputs(self, cmd: Command) -> None:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)

    def run_cold(self, cmd: Command) -> bool:
        """One fresh ``python -m aumann`` process; True when its output checks."""
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "aumann", *cmd.argv], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=120,
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"cli-files: aumann {' '.join(cmd.argv)}: timed out\n")
            return False
        return self._judge(cmd, proc.returncode, proc.stdout)

    def run_round(self, tracer) -> tuple[int, int]:
        """The pass in-process: the public calls behind each command, then
        ``cli.main`` on the same arguments with the same checks.

        Returns (attempted, failed): one operation for the public calls and
        one per command.
        """
        attempted, failed = 1, 0
        try:
            self._traced_calls(tracer)
        except Exception:
            traceback.print_exc()
            failed = 1
        for cmd in self.commands:
            self.clear_outputs(cmd)
            out, crash = io.StringIO(), None
            with tracer.span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = self.aumann.cli.main(cmd.argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    rc, crash = -1, traceback.format_exc()
            if crash:
                sys.stderr.write(crash)
            attempted += 1
            failed += not self._judge(cmd, rc, out.getvalue())
        return attempted, failed

    def _traced_calls(self, tracer) -> None:
        a = self.aumann
        parsed = {}
        for stem, path in self.files.items():
            if stem == "quantum_24w_povm":
                continue
            text = path.read_text(encoding="utf-8")
            with tracer.span(f"scenario.parse_scenario.{stem}"):
                try:
                    parsed[stem] = a.parse_scenario(text)
                except a.ScenarioError:
                    if stem not in INVALID_FIXTURES:
                        raise
        runs = [(s, a.run_agree, "agree") for s in (*VALID_FIXTURES, f"email_chain_{CHAIN_AGREE}",
                                                   "quantum_24w", "gpt_polyhedral_24w")]
        runs += [(s, a.run_analyze, "analyze") for s in ("hypothesis_only", f"email_chain_{CHAIN_ANALYZE}")]
        for stem, run, verb in runs:
            sf = parsed[stem]
            with tracer.span(f"scenario.run_{verb}.{stem}"):
                report = run(sf)
            with tracer.span("scenario.report"):
                if verb == "analyze" and stem.startswith("email_chain"):
                    json.dumps(report.to_json_dict(), indent=2)
                else:
                    report.to_text()
            model = sf.model()
            with tracer.span("knowledge.common_knowledge"):
                a.common_knowledge(model, report.event)
            if tracer.enabled:
                self.fixpoint_steps.append(len(a.mutual_knowledge_chain(model, report.event)))
        with tracer.span("scenario.run_convert"):
            povm = a.run_convert(parsed["quantum_24w"], "dovm2povm")
        with tracer.span("scenario.serialize_scenario"):
            text = a.serialize_scenario(povm)
        with tracer.span("scenario.parse_scenario.quantum_24w_povm"):
            povm = a.parse_scenario(text)
        with tracer.span("scenario.run_convert"):
            back = a.run_convert(povm, "povm2dovm")
        with tracer.span("scenario.serialize_scenario"):
            a.serialize_scenario(back)
        with tracer.span("scenario.run_gen"):
            generated = a.run_gen("gpt", self.gen_seed, **GEN_KW)
        with tracer.span("scenario.serialize_scenario"):
            a.serialize_scenario(generated)

"""Search workloads: seeded ``run_search`` blocks checked against golden counts.

One round calls ``run_search`` once per kind on the same block of
consecutive seeds, single-threaded. The workload seed picks the block, and
``golden.json`` holds the verdict counts ``run_search`` gave for every block
when the benchmark was defined; a count that differs, a ``violated`` verdict
or an exception is a failed operation.

search-matrix (6 worlds, 2 agents; quantum d=2, gpt-psd k=2, gpt-polyhedral
dim 3) is dominated by construction-time validation: eigensolves and cone
membership in the generators. search-wide (48 worlds, 6 agents; classical
and gpt-simplex dim 4) is dominated by Python loops over ~115 cells per
scenario, with no eigensolves and no scipy calls.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from pathlib import Path

KINDS = {
    "classical": {"layer": "classical", "dim": 2, "cone_kind": "simplex"},
    "quantum": {"layer": "quantum", "dim": 2, "cone_kind": "simplex"},
    "gpt-simplex": {"layer": "gpt", "dim": 4, "cone_kind": "simplex"},
    "gpt-psd": {"layer": "gpt", "dim": 2, "cone_kind": "psd"},
    "gpt-polyhedral": {"layer": "gpt", "dim": 3, "cone_kind": "polyhedral"},
}

WORKLOADS = {
    "search-matrix": {
        "kinds": ["quantum", "gpt-psd", "gpt-polyhedral"],
        "n_worlds": 6, "n_agents": 2, "block": 96, "mode": "mix",
    },
    "search-wide": {
        "kinds": ["classical", "gpt-simplex"],
        "n_worlds": 48, "n_agents": 6, "block": 128, "mode": "mix",
    },
}

# Blocks start at FIRST_SEED + j * block for j in 0..N_BLOCKS-1; workload
# seed s runs block s % N_BLOCKS.
FIRST_SEED = 1_000_000
N_BLOCKS = 64

STATUSES = ("holds", "vacuous_empty_common_knowledge", "vacuous_null_common_knowledge", "violated")

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def block_base(workload: str, seed: int) -> int:
    return FIRST_SEED + (seed % N_BLOCKS) * WORKLOADS[workload]["block"]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def search_block(aumann, kind: str, spec: dict, base: int):
    k = KINDS[kind]
    return aumann.run_search(
        k["layer"], spec["block"], base_seed=base, n_worlds=spec["n_worlds"],
        n_agents=spec["n_agents"], dim=k["dim"], cone_kind=k["cone_kind"],
        mode=spec["mode"], workers=1,
    )


class SearchMix:
    """One search workload bound to the block its seed selects."""

    def __init__(self, aumann, workload: str, seed: int, golden: dict):
        self.aumann = aumann
        self.name = workload
        self.spec = WORKLOADS[workload]
        if golden["workloads"][workload] != self.spec:
            raise SystemExit(f"golden.json was made for other {workload} parameters")
        self.kinds = self.spec["kinds"]
        self.base = block_base(workload, seed)
        self.expected = {k: golden["counts"][workload][k][str(self.base)] for k in self.kinds}
        self.counts: dict[str, dict] = {}
        self.fixpoint_steps: list[int] = []

    @property
    def scenarios_per_round(self) -> int:
        return len(self.kinds) * self.spec["block"]

    def _check(self, kind: str, counts: dict) -> bool:
        self.counts[kind] = counts
        if counts == self.expected[kind] and counts.get("violated", 0) == 0:
            return True
        sys.stderr.write(
            f"{self.name}: {kind} block {self.base}: counts {counts} != golden {self.expected[kind]}\n"
        )
        return False

    def run_round(self, tracer=None) -> tuple[int, int]:
        """One ``run_search`` per kind; with a tracer, also the traced pipeline.

        Returns (attempted, failed) operations, one per checked block.
        """
        ops = [self._block] if tracer is None else [self._block, self._pipeline]
        attempted = failed = 0
        for kind in self.kinds:
            for op in ops:
                attempted += 1
                try:
                    ok = self._check(kind, op(kind, tracer))
                except Exception:
                    traceback.print_exc()
                    ok = False
                failed += not ok
        return attempted, failed

    def _block(self, kind: str, tracer) -> dict:
        if tracer is None:
            return dict(search_block(self.aumann, kind, self.spec, self.base).counts)
        with tracer.span(f"scenario.run_search.{kind}"):
            return dict(search_block(self.aumann, kind, self.spec, self.base).counts)

    def _pipeline(self, kind: str, tracer) -> dict:
        """The per-seed loop of ``run_search``, with a span per public call.

        ``verify_*`` recomputes the agreement event and the fixpoint, so its
        span is the whole verification; the two spans before it attribute
        that time to the agreement event and to ``common_knowledge``.
        """
        a = self.aumann
        k = KINDS[kind]
        spec = self.spec
        layer, cone = k["layer"], k["cone_kind"]
        if layer == "classical":
            event_name, verify_name = "classical.agreement_event", "classical.verify_aumann"
        elif layer == "quantum":
            event_name, verify_name = "quantum.quantum_agreement_event", "quantum.verify_quantum_aumann"
        else:
            event_name, verify_name = f"gpt.gpt_agreement_event.{cone}", f"gpt.verify_gpt_aumann.{cone}"
        tol = a.tolerances.MATCH_TOL
        counts: Counter = Counter()
        for i in range(spec["block"]):
            # Mode "mix", as in run_search: even offsets are planted.
            gen = a.gen_planted_scenario if i % 2 == 0 else a.gen_unconstrained_scenario
            with tracer.span(f"generators.{gen.__name__}.{kind}"):
                b = gen(self.base + i, layer, spec["n_worlds"], spec["n_agents"], k["dim"], cone, None)
            model = b.model
            with tracer.span(event_name):
                if layer == "classical":
                    e = a.agreement_event(model, b.measure, b.hypothesis, b.targets, tol)
                elif layer == "quantum":
                    e = a.quantum_agreement_event(model, b.measure, b.targets, tol)
                else:
                    e = a.gpt_agreement_event(model, b.measure, b.targets, tol)
            with tracer.span("knowledge.common_knowledge"):
                a.common_knowledge(model, e)
            with tracer.span(verify_name):
                if layer == "classical":
                    v = a.verify_aumann(model, b.measure, b.hypothesis, b.targets, tol)
                elif layer == "quantum":
                    v = a.verify_quantum_aumann(model, b.measure, b.targets, tol)
                else:
                    v = a.verify_gpt_aumann(model, b.measure, b.targets, tol)
            if tracer.enabled:
                self.fixpoint_steps.append(len(a.mutual_knowledge_chain(model, e)))
            counts[v.status.value] += 1
        return dict(counts)

    def verdict_metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for kind in self.kinds:
            counts = self.counts.get(kind, {})
            n = self.spec["block"]
            for status in STATUSES:
                out[f"verdicts.{kind}.{status}"] = (counts.get(status, 0), "count")
            out[f"verdicts.{kind}.holds_ratio"] = (counts.get("holds", 0) / n, "ratio")
            out[f"verdicts.{kind}.scenarios"] = (n, "count")
        return out

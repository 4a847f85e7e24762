"""Write perfbench/golden.json: run_search verdict counts for every block.

Run from the repository root, single-threaded:

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/make_golden.py

The search workloads compare every block they run against this table, so
regenerate it only on purpose: verdict counts are meant to stay
bit-identical across changes to ``src/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import aumann  # noqa: E402

from search_mix import FIRST_SEED, GOLDEN_PATH, N_BLOCKS, WORKLOADS, search_block  # noqa: E402


def main() -> None:
    counts: dict = {}
    for workload, spec in WORKLOADS.items():
        counts[workload] = {}
        for kind in spec["kinds"]:
            table = {}
            for j in range(N_BLOCKS):
                base = FIRST_SEED + j * spec["block"]
                stats = search_block(aumann, kind, spec, base)
                if stats.violations:
                    raise SystemExit(f"{kind} block {base}: violations at seeds {stats.violation_seeds}")
                table[str(base)] = dict(sorted(stats.counts.items()))
            counts[workload][kind] = table
            print(f"{workload} {kind}: {N_BLOCKS} blocks", flush=True)
    doc = {"workloads": WORKLOADS, "counts": counts}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

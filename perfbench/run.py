"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload search-matrix --seed 1 --seconds 10 --trace 0

Workloads (see ``search_mix.py`` and ``cli_mix.py`` for why each exists):

- ``search-matrix``: ``run_search`` blocks of quantum, gpt-psd and
  gpt-polyhedral scenarios (6 worlds, 2 agents);
- ``search-wide``: ``run_search`` blocks of classical and gpt-simplex
  scenarios (48 worlds, 6 agents);
- ``cli-files``: cold ``python -m aumann`` invocations on scenario files.

Each is a closed loop with one client, single-threaded, BLAS pinned to one
thread. With ``--trace 0`` the last line carries the end-to-end metrics;
``setup_s`` is the median over ``SETUP_RUNS`` fresh workload processes; time
metrics are scaled to nominal host speed (see ``probes.py``). With
``--trace 1`` it carries the per-layer metrics of a traced run. Every output
is checked; ``failed`` counts the operations whose check failed, and
``correct`` is true only when none did. The program is imported from
``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def workload_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_workload(args, env: dict, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    t0 = time.monotonic()
    # Its own session, so that on timeout the CLI processes it started go too.
    proc = subprocess.Popen(
        [*cmd, "--t0", repr(t0)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("workload process did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one aumann benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in (ROOT / "src" / "aumann" / "__init__.py", ROOT / "tests" / "data") if not p.exists()]
    if missing:
        sys.stderr.write(f"perfbench: the checkout lacks {', '.join(map(str, missing))}\n")
        return 2

    env = workload_env()
    runs, references = [], []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            references.append(probes.cold_reference_s(ROOT, env))
            runs.append(start_workload(args, env, deadline, "--setup-only"))
    result = start_workload(args, env, deadline)
    runs.append(result)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setups = [r["setup_s"] for r in runs]

    metrics = result["metrics"]
    if not args.trace:
        # Set-up is mostly a cold import, so the cold reference scales it.
        slowdown = statistics.median(references) / probes.NOMINAL_COLD_S
        result["notes"]["setup_host_slowdown"] = slowdown
        metrics["setup_s"] = [statistics.median(setups) / slowdown, "s"]

    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("notes: " + json.dumps(result["notes"], sort_keys=True))
    if not args.trace:
        print(f"setup_s samples (measured): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: set up, warm up, run timed rounds, print a JSON result.

``run.py`` starts this process and passes ``--t0``, its monotonic clock
reading just before the start, so ``setup_s`` covers interpreter start,
``import aumann``, input generation and warm-up. With ``--setup-only`` the
process stops there. With ``--trace 1`` it records spans instead of the
end-to-end metrics: it runs the workload's own mix for ``--seconds``,
alternating traced and untraced rounds to measure the tracing overhead, then
one traced round of each other mix so that every per-layer name gets a value.
Spans are written to ``.perfbench_work/traces/`` when the run ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import probes
import search_mix
from cli_mix import CliMix
from trace_spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("search-matrix", "search-wide", "cli-files")
LAYERS = ("bench", "generators", "classical", "quantum", "gpt", "knowledge", "scenario", "cli")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 60, 50)
COLD_REFERENCE_EVERY = 4


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(samples)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    n = len(samples)
    p = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)
    return p, percentile(samples, p)


def load_aumann():
    sys.path.insert(0, str(ROOT / "src"))
    import aumann

    if not Path(aumann.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported aumann from {aumann.__file__}, not from {ROOT / 'src'}")
    importlib.import_module("aumann.cli")
    return aumann


def build_mix(aumann, name: str, seed: int, work: Path, golden: dict):
    if name == "cli-files":
        return CliMix(aumann, ROOT, work, seed, dict(os.environ))
    return search_mix.SearchMix(aumann, name, seed, golden)


def run_untraced(mix, seconds: float) -> dict:
    """Timed rounds, with a host-speed reference timed between them.

    The time metrics are reported at nominal host speed: measured times
    divided, and throughput multiplied, by the reference's median over its
    nominal value (``notes`` keeps the measured values).
    """
    latencies: list[float] = []
    references: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    if isinstance(mix, CliMix):
        # Whole passes only, so every run times the same command mix; a pass
        # starts when at most half of it is predicted to overrun the time.
        passes = 0
        while passes == 0 or (time.perf_counter() - start) * (passes + 0.5) / passes <= seconds:
            for k, cmd in enumerate(mix.commands):
                if k % COLD_REFERENCE_EVERY == 0:
                    references.append(probes.cold_reference_s(ROOT, mix.env))
                mix.clear_outputs(cmd)
                t = time.perf_counter()
                ok = mix.run_cold(cmd)
                latencies.append(time.perf_counter() - t)
                attempted += 1
                failed += not ok
            passes = len(latencies) // len(mix.commands)
        scenarios = len(latencies)
        slowdown = statistics.median(references) / probes.NOMINAL_COLD_S
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sample = "invocation"
    else:
        while time.perf_counter() - start < seconds:
            t = time.perf_counter()
            a, f = mix.run_round()
            latencies.append(time.perf_counter() - t)
            attempted += a
            failed += f
            references.append(probes.warm_reference_s())
        scenarios = len(latencies) * mix.scenarios_per_round
        slowdown = statistics.median(references) / probes.NOMINAL_WARM_S
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        sample = "round"
    p, tail_s = tail(latencies)
    rate, p50_ms, tail_ms = scenarios / sum(latencies), statistics.median(latencies) * 1e3, tail_s * 1e3
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "scenarios_per_s": [rate * slowdown, "1/s"],
            "round_p50_ms": [p50_ms / slowdown, "ms"],
            "round_tail_ms": [tail_ms / slowdown, "ms"],
            "peak_rss_mb": [peak_kb / 1024, "MB"],
        },
        "notes": {
            "round_tail_percentile": p, "latency_samples": len(latencies), "latency_sample": sample,
            "host_slowdown": slowdown, "reference_samples": len(references),
            "measured": {"scenarios_per_s": rate, "round_p50_ms": p50_ms, "round_tail_ms": tail_ms},
        },
    }


def span_metric(name: str) -> tuple[str, float, str]:
    if name.startswith("scenario.run_search."):
        return f"{name}.ms_per_block", 1e3, "ms"
    if name.startswith(("scenario.", "cli.")):
        return f"{name}.ms_per_call", 1e3, "ms"
    return f"{name}.us_per_call", 1e6, "us"


def run_traced(primary, others: list, seconds: float) -> tuple[dict, Tracer]:
    env = dict(os.environ)
    metrics: dict[str, list] = {
        "cli.interpreter_ms": [probes.interpreter_ms(ROOT, env), "ms"],
        "cli.import_ms": [probes.import_ms(ROOT, env), "ms"],
    }
    breakdown = probes.import_breakdown(ROOT, env)
    for package in ("scipy", "numpy"):
        metrics[f"cli.import.{package}_ms"] = [breakdown.get(package, 0.0), "ms"]

    tracer, untraced = Tracer(), Tracer(enabled=False)
    traced_s: list[float] = []
    untraced_s: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < seconds:
        for tr, lat in ((tracer, traced_s), (untraced, untraced_s)):
            tracer.round_id = len(traced_s)
            t = time.perf_counter()
            with tr.span("bench.round"):
                a, f = primary.run_round(tr)
            lat.append(time.perf_counter() - t)
            attempted += a
            failed += f
    own_rounds = set(range(len(traced_s)))
    sweeps = []
    for k, mix in enumerate(others):
        tracer.round_id = len(traced_s) + k
        with tracer.span("bench.round"):
            a, f = mix.run_round(tracer)
        attempted += a
        failed += f
        sweeps.append({tracer.round_id})

    # A name takes its value from the workload's own rounds when they have it.
    for rounds in (own_rounds, *sweeps):
        for name, durations in tracer.durations(rounds).items():
            if name == "bench.round":
                continue
            key, scale, unit = span_metric(name)
            metrics.setdefault(key, [statistics.fmean(durations) * scale, unit])
    steps = next(m.fixpoint_steps for m in (primary, *others) if m.fixpoint_steps)
    metrics["knowledge.fixpoint_steps"] = [statistics.fmean(steps), "count"]
    for mix in (primary, *others):
        if isinstance(mix, search_mix.SearchMix):
            for key, (value, unit) in mix.verdict_metrics().items():
                metrics[key] = [value, unit]
    self_s = tracer.self_seconds_by_layer(own_rounds)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_round"] = [self_s.get(layer, 0.0) * 1e3 / len(own_rounds), "ms"]
    traced_ms = statistics.median(traced_s) * 1e3
    untraced_ms = statistics.median(untraced_s) * 1e3
    metrics["trace.traced_round_ms"] = [traced_ms, "ms"]
    metrics["trace.untraced_round_ms"] = [untraced_ms, "ms"]
    metrics["trace.overhead_ms_per_round"] = [traced_ms - untraced_ms, "ms"]
    result = {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": {
            "traced_rounds": len(traced_s),
            "import_top_packages_ms": dict(sorted(breakdown.items(), key=lambda kv: -kv[1])[:8]),
        },
    }
    return result, tracer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="monotonic time the process was started at")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    aumann = load_aumann()
    golden = search_mix.load_golden()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        primary = build_mix(aumann, args.workload, args.seed, work, golden)
        others = []
        if args.trace:
            others = [build_mix(aumann, w, args.seed, work, golden) for w in WORKLOADS if w != args.workload]
            warm = primary.run_round(Tracer(enabled=False))
        elif isinstance(primary, CliMix):
            warm = (1, int(not primary.run_cold(primary.commands[0])))
        else:
            warm = primary.run_round()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "attempted": warm[0], "failed": warm[1]}))
            return 0
        if args.trace:
            result, tracer = run_traced(primary, others, args.seconds)
        else:
            result = run_untraced(primary, args.seconds)
        result["attempted"] += warm[0]
        result["failed"] += warm[1]
        result["setup_s"] = setup_s
        result["env"] = probes.environment(args.workload, args.seed)
        if args.trace:
            tracer.dump(WORK / "traces" / f"trace-{args.workload}-{args.seed}.json", result)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Cold-start probes, host-speed references and the environment record.

``cli.interpreter_ms`` is a bare ``python -c pass``; ``cli.import_ms`` is
``import aumann`` timed inside a fresh interpreter; ``python -X importtime``
gives the cumulative import cost of each top-level package, of which
``scipy`` (pulled in by ``scipy.optimize``) is the largest.

A shared host can change speed by 20-35% over tens of minutes, for every
process alike (measured on a 2-vCPU VM). The two references time fixed
work that does not involve aumann: ``warm_reference_s`` a loop of small
numpy calls and dict updates, ``cold_reference_s`` a fresh interpreter
importing numpy and scipy.optimize. Divided by their ``NOMINAL_*`` values
they give how much slower than nominal the host ran during a run.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

REPEATS = 3
# Typical reference times on that VM (Xeon at 2.1 GHz, Python 3.11, numpy 2.4,
# scipy 1.17); they only fix the scale of the reported times.
NOMINAL_WARM_S = 0.011
NOMINAL_COLD_S = 0.85
REFERENCE_IMPORT = "import numpy, scipy.optimize"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMED_IMPORT = "import time; t = time.perf_counter(); import aumann; print(time.perf_counter() - t)"


def _python(args: list[str], cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True
    )


def warm_reference_s() -> float:
    import numpy as np

    m = np.eye(2) + 0.1
    t = time.perf_counter()
    for _ in range(600):
        float(np.linalg.eigvalsh(m)[0]) + float((m @ m).sum())
    d = {}
    for i in range(20000):
        d[i & 255] = i * 7 % 13
    return time.perf_counter() - t


def cold_reference_s(cwd, env) -> float:
    t = time.perf_counter()
    _python(["-c", REFERENCE_IMPORT], cwd, env)
    return time.perf_counter() - t


def interpreter_ms(cwd, env) -> float:
    samples = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        _python(["-c", "pass"], cwd, env)
        samples.append((time.perf_counter() - t) * 1e3)
    return statistics.median(samples)


def import_ms(cwd, env) -> float:
    return statistics.median(
        float(_python(["-c", TIMED_IMPORT], cwd, env).stdout) * 1e3 for _ in range(REPEATS)
    )


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative ms per top-level package, counting each nested import of
    a package once under its outermost entry."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip().split(".")[0], int(cumulative)))
    out: dict[str, float] = defaultdict(float)
    stack: list[tuple[int, str]] = []
    # importtime prints a module after its imports; reversed, parents come first.
    for depth, package, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if all(p != package for _, p in stack):
            out[package] += cumulative / 1e3
        stack.append((depth, package))
    return dict(out)


def import_breakdown(cwd, env) -> dict[str, float]:
    """Median over runs of ``parse_importtime`` for ``import aumann``."""
    runs = [parse_importtime(_python(["-X", "importtime", "-c", "import aumann"], cwd, env).stderr)
            for _ in range(REPEATS)]
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in runs[0]}


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
    }

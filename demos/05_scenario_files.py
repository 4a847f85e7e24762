#!/usr/bin/env python3
"""Scenario files and the command-line surface.

Scenarios are single JSON documents with named worlds; the library parses,
validates, and runs them, and the ``aumann`` CLI wraps the same operations
(analyze, agree, convert, search, gen) with a stable exit-code contract:
0 = holds or vacuous, 1 = violated, 2 = input error.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from aumann import parse_scenario, run_agree, run_analyze, run_convert, run_gen, run_search, serialize_scenario

workdir = Path(tempfile.mkdtemp(prefix="aumann-demo-"))

# The worked example as a scenario document.
scenario_text = """
{
  "version": 1,
  "worlds": ["w0", "w1", "w2", "w3"],
  "agents": [
    {"name": "alice", "partition": [["w0", "w1"], ["w2", "w3"]]},
    {"name": "bob", "partition": [["w0", "w1"], ["w2"], ["w3"]]}
  ],
  "measure": {"classical": {"weights": [0.25, 0.25, 0.25, 0.25]}},
  "hypothesis": ["w0", "w2"],
  "targets": [0.5, 0.5]
}
"""
sf = parse_scenario(scenario_text)
report = run_agree(sf)
print(report.to_text())

# Full analysis adds knowledge sets, the mutual-knowledge trace, and
# per-cell conditionals.
analysis = run_analyze(sf)
print("mutual trace:", [[sf.worlds[w] for w in m] for m in analysis.mutual_trace])

# Generate a quantum scenario, convert it to POVM form and back.
qsf = run_gen("quantum", seed=5, n_worlds=4, n_agents=2, dim=2)
povm_form = run_convert(qsf, "dovm2povm")
recovered = run_convert(povm_form, "povm2dovm")
print("POVM round trip preserves atoms:",
      bool(np.abs(recovered.measure.atoms - qsf.measure.atoms).max() <= 1e-8))

# Searches tally verdicts over seeded scenarios; violations would flag a bug.
stats = run_search("classical", 500, n_worlds=6, n_agents=2)
print(stats.to_text())

# The same operations through the installed CLI.
path = workdir / "worked_example.json"
path.write_text(serialize_scenario(sf))
result = subprocess.run(
    [sys.executable, "-m", "aumann", "agree", str(path), "--json"],
    capture_output=True, text=True,
)
doc = json.loads(result.stdout)
print("CLI exit code:", result.returncode)
print("CLI verdict:", doc["verdict"]["status"], "| pooled:", doc["verdict"]["pooled_posterior"])

bad = workdir / "broken.json"
bad.write_text('{"version": 1}')
result = subprocess.run(
    [sys.executable, "-m", "aumann", "agree", str(bad)],
    capture_output=True, text=True,
)
print("broken file exit code:", result.returncode, "| stderr:", result.stderr.strip())

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_scenario_demo_leaves_no_temporary_files(tmp_path):
    script = next(p for p in DEMOS if p.name == "05_scenario_files.py")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []

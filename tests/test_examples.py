"""Example scripts run end to end and clean up after themselves."""

import os
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_trace_pipeline_tour_leaves_no_temporary_files(tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / "trace_pipeline_tour.py"),
         "--accesses", "2000", "--scale", "4096"],
        env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert "pipeline kept" in completed.stdout
    assert list(scratch.iterdir()) == []

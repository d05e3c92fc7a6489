"""The benchmark's smoke run: every workload at tiny sizes, untraced and
traced. Its tracer finds each layer's entry point by module and name, so
renaming one of them fails here instead of silently dropping a layer
metric from the benchmark's report."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_reports_every_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["smoke"] == "ok", done.stderr

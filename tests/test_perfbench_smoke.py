"""The benchmark's smoke run: every workload at tiny sizes, untraced and
traced. Its tracer finds each layer's entry point by module and name, so
renaming one of them fails here instead of silently dropping a layer
metric from the benchmark's report."""

import importlib.util
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


def test_every_traced_entry_point_exists(monkeypatch):
    # names the missing entry point itself, where the smoke run names only
    # a layer metric it drops; the tracer is loaded without writing bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr in tracing.TARGETS
               if getattr(importlib.import_module(module), attr, None) is None]
    assert not missing, f"perfbench/tracing.py wraps missing entry points: {missing}"

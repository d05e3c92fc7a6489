"""eprb benchmark: run one workload, check every output, print its metrics.

Run from the repository root (eprb is imported from ./src, as in the
Tier-1 test command; no install is needed):

    python3 perfbench/run.py --workload mc_bulk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

One run makes the workload's inputs from ``--seed``, warms up on a tiny
copy of the workload, then repeats the workload's fixed list of operations
until ``--seconds`` have passed. Between operations it times fresh
interpreters that import eprb and run ``eprb models`` (set-up time). With
``--trace 1`` the passes alternate between untraced and traced; the traced
ones give the per-layer metrics. Every pass must reproduce the first pass's
output of every operation byte for byte.

Each operation is timed by its mean over the passes. On a shared machine
other tenants slow whole stretches of seconds to minutes by up to 2x, so
per-pass times are bimodal and their median flips between the two modes
from run to run; the mean over the window moves least (see README.md).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the run fingerprint, every operation's size and timings, and the
metrics that apply to some workloads only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mc_bulk", "settings_search", "fallback_probe")
SETUP_PROBES = 9

# A fresh interpreter: import eprb from the checkout, run `eprb models`.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import eprb.cli
imported = time.perf_counter()
code = eprb.cli.run(["models", "--output", sys.argv[2]])
print(json.dumps({"import_s": imported - start, "code": code}))
"""

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "draws_per_s": "1/s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_eprb():
    """Import eprb from this checkout's src/, never from an installed copy."""
    if not (SRC / "eprb" / "__init__.py").is_file():
        raise SystemExit(f"error: no eprb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eprb

    if Path(eprb.__file__).resolve().parent != SRC / "eprb":
        raise SystemExit(f"error: imported eprb from {eprb.__file__}, not {SRC}")
    return eprb


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(eprb, workload: str, seed: int, scale: str) -> dict:
    import numpy

    try:
        simd = numpy.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:  # numpy older than 1.26 has no dict mode
        simd = None
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "backend": eprb.BACKEND_NAME,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_simd": simd,
        "commit": git_commit(),
    }


class Run:
    """One run: attempted and failed operations, each operation's first
    output, and the set-up probes. The probes are spread over the measuring
    window so they see the same machine load as the operations."""

    def __init__(self, out_dir: str, probes: int, seconds: float) -> None:
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.probes_left = probes
        self.probe_gap = seconds / probes
        self.next_probe = time.perf_counter()
        self.setup_walls: list[float] = []
        self.import_times: list[float] = []

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{name}: {problem}")
            print(f"FAILED {name}: {problem}", file=sys.stderr)

    def probe(self) -> None:
        """Time a fresh interpreter importing eprb and running `eprb models`."""
        self.probes_left -= 1
        out = os.path.join(self.out_dir, "models.json")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), out],
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        problem = None
        try:
            probe = json.loads(proc.stdout)
            with open(out, encoding="utf-8") as fh:
                models = json.load(fh)["models"]
            if proc.returncode != 0 or probe["code"] != 0 or not models:
                problem = f"exit {proc.returncode}, {len(models)} models listed"
        except (ValueError, KeyError, OSError) as exc:
            problem = f"exit {proc.returncode}: {exc!r} {proc.stderr[-300:]}"
        self.record("setup.models", problem)
        if problem is None:
            self.setup_walls.append(wall)
            self.import_times.append(probe["import_s"])

    def run_pass(self, ops, timed: bool = True) -> dict:
        """Run every operation once; return {name: (seconds, work counts)}.

        The call is timed, the output checked afterwards. A timed pass must
        reproduce each operation's first timed output byte for byte.
        """
        from workloads import CheckFailed

        result: dict[str, tuple[float, dict]] = {}
        raw: dict[str, bytes] = {}
        docs: dict[str, dict] = {}
        for op in ops:
            if timed and self.probes_left and time.perf_counter() >= self.next_probe:
                self.probe()
                self.next_probe += self.probe_gap
            problem = None
            start = time.perf_counter()
            try:
                out = op.run()
                seconds = time.perf_counter() - start
                raw[op.name] = out
                docs[op.name] = json.loads(out)
                result[op.name] = (seconds, op.check(docs[op.name], docs))
                if op.same_as is not None and out != raw.get(op.same_as):
                    problem = f"output differs from {op.same_as}"
                digest = hashlib.sha256(out).hexdigest()
                if timed and self.digests.setdefault(op.name, digest) != digest:
                    problem = "output differs from the first pass"
            except CheckFailed as exc:
                problem = str(exc)
            except Exception as exc:  # noqa: BLE001 - one broken op must not end the run
                problem = f"raised {exc!r}"
            self.record(op.name, problem)
        return result


def mean_seconds(passes: list[dict]) -> dict[str, float]:
    """Each operation's mean time over the passes it completed."""
    names = {name for p in passes for name in p}
    return {name: statistics.fmean(p[name][0] for p in passes if name in p)
            for name in names}


def work(passes: list[dict]) -> dict[str, dict]:
    """Each operation's work counts as its output states them."""
    return {name: counts for p in passes for name, (_, counts) in p.items()}


def e2e_metrics(passes: list[dict], setup_walls: list[float]) -> tuple[dict, dict]:
    mean = mean_seconds(passes)
    counts = work(passes)
    wall = sum(mean.values())

    def rate(key):
        seconds = sum(mean[name] for name, c in counts.items() if c.get(key))
        amount = sum(c.get(key, 0) for c in counts.values())
        return amount / seconds if seconds > 0 else 0.0

    metrics = {
        "setup_s": statistics.median(setup_walls) if setup_walls else 0.0,
        "wall_s": wall,
        "draws_per_s": sum(c.get("draws", 0) for c in counts.values()) / wall if wall else 0.0,
        "evals_per_s": rate("evals"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Not defined, or 0, on some workloads, so they stay out of BENCHMARK.json.
    extra = {"points_per_s": {"value": rate("points"), "unit": "1/s"}}
    return metrics, extra


def layer_report(tracing, ops, untraced, traced, layer_passes, import_times) -> dict:
    metrics = {}
    for name in tracing.LAYER_METRICS:
        values = [lp[name] for lp in layer_passes if name in lp]
        if values:
            metrics[name] = statistics.median(values)
    if import_times:
        metrics["cli.import_s"] = statistics.median(import_times)
    mean = mean_seconds(untraced)
    # Workers-1 runs that have a parallel twin, against those twins.
    pairs = [(op.same_as, op.name) for op in ops if op.same_as in mean and op.name in mean]
    w1 = sum(mean[a] for a, _ in pairs)
    w2 = sum(mean[b] for _, b in pairs)
    metrics["mc.parallel_w1_s"] = w1
    metrics["mc.parallel_w2_s"] = w2
    metrics["mc.parallel_speedup"] = w1 / w2 if w2 > 0 else 0.0
    untraced_wall = sum(mean.values())
    traced_wall = sum(mean_seconds(traced).values())
    metrics["trace.wall_untraced_s"] = untraced_wall
    metrics["trace.wall_traced_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            probes: int) -> tuple[dict, dict]:
    eprb = import_eprb()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(out_dir, probes, seconds)
        ops = workloads.build(workload, seed, scale, out_dir)
        # The warm-up fills lazy imports and caches; it is checked, not timed.
        run.run_pass(workloads.build(workload, seed, "smoke", out_dir), timed=False)

        tracer = tracing.Tracer()
        untraced: list[dict] = []
        traced: list[dict] = []
        layer_passes: list[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            began = time.perf_counter()
            if trace and len(traced) < len(untraced):
                tracer.reset()
                tracer.install()
                try:
                    traced.append(run.run_pass(ops))
                finally:
                    tracer.uninstall()
                layer_passes.append(tracing.layer_metrics(tracer))
            else:
                untraced.append(run.run_pass(ops))
            now = time.perf_counter()
            if untraced and (traced or not trace) and now + (now - began) > deadline:
                break
        while run.probes_left:
            run.probe()

        report: dict = {"fingerprint": fingerprint(eprb, workload, seed, scale),
                        "passes": {"untraced": len(untraced), "traced": len(traced)}}
        mean = mean_seconds(untraced)
        counts = work(untraced)
        report["ops"] = [
            {"name": op.name, "n": op.n, "workers": op.workers,
             "mean_s": mean.get(op.name), "work": counts.get(op.name),
             "pass_s": [p[op.name][0] if op.name in p else None for p in untraced]}
            for op in ops
        ]
        workload_metrics = {}
        if trace:
            metrics = layer_report(tracing, ops, untraced, traced, layer_passes,
                                    run.import_times)
            units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
            report["missing_layer_metrics"] = sorted(set(units) - set(metrics))
        else:
            metrics, workload_metrics = e2e_metrics(untraced, run.setup_walls)
            units = E2E_UNITS
        failed = len(run.failures)
        workload_metrics["failed_ops_ratio"] = {
            "value": failed / run.attempted, "unit": "ratio",
            "failed": failed, "attempted": run.attempted,
        }
        report["workload_metrics"] = workload_metrics
        report["failures"] = run.failures
        result = {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        return result, report
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def smoke() -> int:
    """Run every workload at tiny sizes, untraced and traced, and check that
    every metric named in BENCHMARK.json appears with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for entry in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, report = measure(entry["name"], 1, 0.0, trace, "smoke", probes=1)
            got = result["metrics"]
            for metric in spec[key]:
                have = got.get(metric["name"])
                if have is None or have["unit"] != metric["unit"]:
                    problems.append(f"{entry['name']} trace={int(trace)}: "
                                    f"{metric['name']} missing or not in {metric['unit']}")
            problems.extend(f"{entry['name']}: {f}" for f in report["failures"])
            print(json.dumps({"workload": entry["name"], "trace": int(trace), **result}))
    for problem in problems:
        print(f"SMOKE {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload, check metric names and units")
    ns = ap.parse_args(argv)
    if ns.smoke:
        return smoke()
    if ns.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, report = measure(ns.workload, ns.seed, ns.seconds, bool(ns.trace), "full",
                             SETUP_PROBES)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

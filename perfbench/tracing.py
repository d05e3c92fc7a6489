"""Per-layer tracing from outside the program.

The tracer replaces each layer's entry points at the module attribute the
caller looks them up by, and restores them afterwards; no file under
``src/`` changes. Calls made once per estimate, chunk or search phase become
spans (name, start, end, parent). Calls made once per draw or per kernel
chunk are aggregated into a call count, a draw count and a total time, so
tracing does not store one record per draw.

An entry point that is missing (renamed or removed by a later change) is
recorded; every layer metric that needs it is reported as missing and the
run goes on. End-to-end metrics never go through this module.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
from collections import defaultdict
from time import perf_counter


def _parts(args, result):
    return len(args[0])


def _points(args, result):
    return len(result.points)


def _draws_arg(args, result):
    return args[2]


# (module, attribute) -> (kind, traced name, detail). Kinds:
#   span     one span per call; detail(args, result) is stored on the span
#   driver   the chunk driver: a span whose chunk jobs become child spans,
#            also when they run on pool threads
#   oracle   a factory whose returned oracle gets one span per call
#   counter  aggregated; detail is the index of the positional argument
#            holding the draw count, or None for one draw per call
# Each estimator is wrapped both where the package exports it (the
# benchmark's library calls) and where the correlation oracles look it up.
TARGETS = {
    ("eprb.cli", "run"): ("span", "cli.command", None),
    ("eprb.cli", "make_correlation_oracle"): ("oracle", "cli.oracle", None),
    ("eprb.cli", "pq_nonanalyticity_report"): ("span", "analyticity.report", _points),
    ("eprb.inequalities", "_grid_scan"): ("span", "inequalities.grid", None),
    ("eprb.inequalities", "_pattern_search"): ("span", "inequalities.pattern", None),
    **{
        (module, name): ("span", "correlation.estimate", None)
        for module in ("eprb", "eprb.correlation")
        for name in ("estimate_correlation", "estimate_stochastic_correlation",
                     "estimate_joint", "series_correlation")
    },
    ("eprb.correlation", "run_chunk_jobs"): ("driver", "mc.driver", None),
    ("eprb.hidden_variables", "run_chunk_jobs"): ("driver", "mc.driver", None),
    ("eprb.correlation", "combine_scalar"): ("span", "mc.combine", _parts),
    ("eprb.correlation", "combine_vec4"): ("span", "mc.combine", _parts),
    ("eprb.hidden_variables", "combine_scalar"): ("span", "mc.combine", _parts),
    ("eprb._mc", "ThreadPoolExecutor"): ("counter", "mc.thread_pool", None),
    ("eprb", "integrate"): ("span", "hidden_variables.integrate", _draws_arg),
    ("eprb._backend", "reduce_product"): ("counter", "kernel.reduce_product", 12),
    ("eprb._backend", "reduce_joint"): ("counter", "kernel.reduce_joint", 12),
    ("eprb._backend", "lambda_batch"): ("counter", "kernel.lambda_batch", 4),
    ("eprb._backend", "lambda_at"): ("counter", "kernel.lambda_at", None),
    ("eprb.correlation", "evaluate_deterministic"): ("counter", "models.eval", None),
    ("eprb.correlation", "mean_outcomes"): ("counter", "models.eval", None),
    ("eprb.correlation", "evaluate_stochastic"): ("counter", "models.eval", None),
    ("eprb.correlation", "evaluate_series"): ("counter", "models.eval", None),
}

# Layer metric -> (unit, the traced names it is computed from).
LAYER_METRICS = {
    "cli.import_s": ("s", ()),
    "cli.self_s": ("s", ("cli.command",)),
    "inequalities.grid_self_s": ("s", ("inequalities.grid", "cli.oracle")),
    "inequalities.pattern_self_s": ("s", ("inequalities.pattern", "cli.oracle")),
    "inequalities.evals": ("count", ("inequalities.grid", "inequalities.pattern", "cli.oracle")),
    "correlation.estimates": ("count", ("correlation.estimate",)),
    "correlation.estimate_ms.p50": ("ms", ("correlation.estimate",)),
    "correlation.estimate_ms.p90": ("ms", ("correlation.estimate",)),
    "correlation.self_s": ("s", ("correlation.estimate", "mc.driver", "mc.combine")),
    "correlation.fallback_draw_share": (
        "ratio", ("kernel.lambda_at", "kernel.reduce_product", "kernel.reduce_joint")),
    "mc.chunks": ("count", ("mc.driver",)),
    "mc.thread_pools": ("count", ("mc.thread_pool",)),
    "mc.driver_self_s": ("s", ("mc.driver",)),
    "mc.combine_us_per_chunk": ("us", ("mc.combine",)),
    "mc.parallel_speedup": ("ratio", ()),
    "mc.parallel_w1_s": ("s", ()),
    "mc.parallel_w2_s": ("s", ()),
    "kernel.ns_per_draw.reduce_product": ("ns", ("kernel.reduce_product",)),
    "kernel.ns_per_draw.reduce_joint": ("ns", ("kernel.reduce_joint",)),
    "kernel.ns_per_draw.lambda_batch": ("ns", ("kernel.lambda_batch",)),
    "kernel.draws": ("count", ("kernel.reduce_product", "kernel.reduce_joint",
                               "kernel.lambda_batch")),
    "kernel.lambda_at_ns": ("ns", ("kernel.lambda_at",)),
    "kernel.lambda_at_calls": ("count", ("kernel.lambda_at",)),
    "models.eval_ns_per_draw": ("ns", ("models.eval",)),
    "hidden_variables.integrate_ns_per_draw": ("ns", ("hidden_variables.integrate",)),
    "analyticity.us_per_point": ("us", ("analyticity.report",)),
    "analyticity.points": ("count", ("analyticity.report",)),
    "trace.overhead_ratio": ("ratio", ()),
    "trace.wall_untraced_s": ("s", ()),
    "trace.wall_traced_s": ("s", ()),
}


class Span:
    """One traced call: name, parent span, start and end, and a detail."""

    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Wraps the entry points above while installed and records what ran."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self.missing: set[str] = set()
        self.reset()

    # -- recording

    def reset(self) -> None:
        self.spans: list[Span] = []
        self._counters: list[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self, name: str) -> list:
        counters = getattr(self._local, "counters", None)
        if counters is None or counters[0] is not self._counters:
            # First use on this thread since the last reset.
            table = defaultdict(lambda: [0, 0, 0.0])
            counters = self._local.counters = (self._counters, table)
            with self._lock:
                self._counters.append(table)
        return counters[1][name]

    def counters(self) -> dict:
        total = defaultdict(lambda: [0, 0, 0.0])
        for table in self._counters:
            for name, (calls, draws, seconds) in table.items():
                agg = total[name]
                agg[0] += calls
                agg[1] += draws
                agg[2] += seconds
        return total

    def _call_in_span(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
        return span, result

    # -- wrappers

    def _span_wrapper(self, name, fn, detail):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span, result = self._call_in_span(name, fn, args, kwargs)
            if detail is not None:
                span.info = detail(args, result)
            return result

        return wrapped

    def _driver_wrapper(self, name, fn, detail):
        tracer = self

        @functools.wraps(fn)
        def wrapped(job, *args, **kwargs):
            stack = tracer._stack()
            driver = Span(name, stack[-1] if stack else None)

            def traced_job(start, count):
                # Pool threads start with an empty stack: parent explicitly.
                return tracer._call_in_span("mc.chunk", job, (start, count), {}, driver)[1]

            tracer.spans.append(driver)
            stack.append(driver)
            driver.start = perf_counter()
            try:
                return fn(traced_job, *args, **kwargs)
            finally:
                driver.end = perf_counter()
                stack.pop()

        return wrapped

    def _oracle_wrapper(self, name, factory, detail):
        tracer = self

        @functools.wraps(factory)
        def wrapped(*args, **kwargs):
            oracle = factory(*args, **kwargs)

            def traced_oracle(*a, **k):
                return tracer._call_in_span(name, oracle, a, k)[1]

            return traced_oracle

        return wrapped

    def _counter_wrapper(self, name, fn, draws_at):
        tracer = self

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                c = tracer._counter(name)
                c[0] += 1
                c[1] += 1 if draws_at is None else args[draws_at]
                c[2] += elapsed

        return wrapped

    # -- installing

    def install(self) -> None:
        """Wrap every entry point that exists; note the ones that do not."""
        makers = {
            "span": self._span_wrapper,
            "driver": self._driver_wrapper,
            "oracle": self._oracle_wrapper,
            "counter": self._counter_wrapper,
        }
        wrappers: dict = {}
        for (module_name, attr), (kind, name, detail) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            # A function exported under two names gets one wrapper, so a
            # call through either is recorded once.
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = makers[kind](name, original, detail)
            self._patches.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []


def _self_seconds(spans: list[Span]) -> dict:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for start, end in sorted(children.get(id(span), ())):
            start = max(start, edge)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                edge = end
        result[id(span)] = (span.end - span.start) - covered
    return result


def layer_metrics(tracer: Tracer) -> dict:
    """Layer metrics of one traced pass, by name (missing layers left out)."""
    spans = tracer.spans
    own = _self_seconds(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    counters = tracer.counters()

    def self_sum(name):
        return sum(own[id(s)] for s in by_name[name])

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def per(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    estimates_ms = sorted((s.end - s.start) * 1e3 for s in by_name["correlation.estimate"])
    search = {"inequalities.grid", "inequalities.pattern"}
    kernel = [counters[k] for k in ("kernel.reduce_product", "kernel.reduce_joint",
                                    "kernel.lambda_batch")]
    lambda_at = counters["kernel.lambda_at"]
    batch_correlation_draws = kernel[0][1] + kernel[1][1]
    combine_parts = sum(s.info for s in by_name["mc.combine"])
    integrate_draws = sum(s.info for s in by_name["hidden_variables.integrate"])
    points = sum(s.info for s in by_name["analyticity.report"])
    models = counters["models.eval"]

    values = {
        "cli.self_s": self_sum("cli.command"),
        "inequalities.grid_self_s": self_sum("inequalities.grid"),
        "inequalities.pattern_self_s": self_sum("inequalities.pattern"),
        "inequalities.evals": sum(
            1 for s in by_name["cli.oracle"] if s.parent is not None and s.parent.name in search
        ),
        "correlation.estimates": len(estimates_ms),
        "correlation.estimate_ms.p50": _quantile(estimates_ms, 0.5),
        "correlation.estimate_ms.p90": _quantile(estimates_ms, 0.9),
        "correlation.self_s": self_sum("correlation.estimate"),
        "correlation.fallback_draw_share": per(
            lambda_at[1], lambda_at[1] + batch_correlation_draws, 1.0),
        "mc.chunks": len(by_name["mc.chunk"]),
        "mc.thread_pools": counters["mc.thread_pool"][0],
        "mc.driver_self_s": self_sum("mc.driver"),
        "mc.combine_us_per_chunk": per(total("mc.combine"), combine_parts, 1e6),
        "kernel.ns_per_draw.reduce_product": per(kernel[0][2], kernel[0][1], 1e9),
        "kernel.ns_per_draw.reduce_joint": per(kernel[1][2], kernel[1][1], 1e9),
        "kernel.ns_per_draw.lambda_batch": per(kernel[2][2], kernel[2][1], 1e9),
        "kernel.draws": sum(k[1] for k in kernel),
        "kernel.lambda_at_ns": per(lambda_at[2], lambda_at[0], 1e9),
        "kernel.lambda_at_calls": lambda_at[0],
        "models.eval_ns_per_draw": per(models[2], models[0], 1e9),
        "hidden_variables.integrate_ns_per_draw": per(
            total("hidden_variables.integrate"), integrate_draws, 1e9),
        "analyticity.us_per_point": per(total("analyticity.report"), points, 1e6),
        "analyticity.points": points,
    }
    return {
        name: value for name, value in values.items()
        if not tracer.missing.intersection(LAYER_METRICS[name][1])
    }


def _quantile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]

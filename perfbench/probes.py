"""Layer probes: spans and counts recorded around calls into each layer.

The benchmark measures every layer from outside.  :func:`install` wraps
the public entry points of each layer (and the few private names through
which the registered experiments actually enter them) with a
:class:`Recorder` span or counter, and returns a function that restores
the originals.  Nothing under ``src/`` is edited.

Forked process-pool workers inherit the installed wrappers.  At fork a
worker restarts its own span tree, so its time is never subtracted from
the parent's, and after every rack task it writes its spans and counts to
one JSON file per process in the recorder's channel directory.  The
parent merges those files when ``FleetRunner.run`` returns.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

# Span layout: [name, start, end, parent index or -1, iteration, pid].
NAME, START, END, PARENT, ITERATION, PID = range(6)

# Kernel label -> module attribute of each dispatch kernel RackSimulation.run
# can enter.  The event oracles are deliberately absent: a run that enters
# none of these kernels reached an oracle and counts as an event fallback.
KERNELS = {
    "fcfs": ("repro.cluster.fast_engine", "run_vectorized"),
    "keyed": ("repro.cluster.policy_engine", "run_keyed"),
    "chaos": ("repro.cluster.chaos_engine", "run_chaos_vectorized"),
    "control": ("repro.cluster.control_engine", "run_control_vectorized"),
    "streaming": ("repro.cluster.streaming", "run_streaming"),
}


class Recorder:
    """Spans and counts of one process, plus the worker file channel."""

    def __init__(self, channel: Path) -> None:
        self.channel = channel
        self.main_pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Dict[str, float] = collections.Counter()
        self.iteration = -1
        self._stack: List[int] = []
        self._ipc_lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.iteration, os.getpid()]
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][END] = time.perf_counter()

    def add_ipc_bytes(self, size: int) -> None:
        # The pool's feeder thread and the main thread both send.
        with self._ipc_lock:
            self.counts["cluster.fleet.ipc_bytes"] += size

    # ------------------------------------------------------ worker channel
    def _after_fork(self) -> None:
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._ipc_lock = threading.Lock()

    def dump_worker(self) -> None:
        """Write this worker's cumulative record (called after each task)."""
        record = {"spans": self.spans, "counts": self.counts}
        path = self.channel / f"{os.getpid()}.json"
        partial = path.with_suffix(".part")
        partial.write_text(json.dumps(record))
        os.replace(partial, path)

    def collect_workers(self) -> None:
        """Merge every worker file into this record."""
        for path in sorted(self.channel.glob("*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            offset = len(self.spans)
            for span in record["spans"]:
                if span[PARENT] >= 0:
                    span[PARENT] += offset
                span[ITERATION] = self.iteration
                self.spans.append(span)
            self.counts.update(record["counts"])


# ------------------------------------------------------------------ patching
class _Patches:
    """Replaced attributes, restored in reverse order by :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def method(self, owner: type, name: str, make: Callable) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, name, original))
        setattr(owner, name, replacement)

    def function(self, module_name: str, name: str, make: Callable) -> None:
        """Wrap a module function wherever a repro module imported it."""
        original = getattr(sys.modules[module_name], name)
        replacement = make(original)
        for module_key, module in list(sys.modules.items()):
            if module_key.startswith("repro") and vars(module).get(name) is original:
                self._saved.append((module, name, original))
                setattr(module, name, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _spanned(rec: Recorder, name: str, counts=None):
    """Wrapper factory: one span per call, plus optional counts.

    ``counts`` maps a count name to ``f(args, kwargs, result) -> number``.
    """

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = original(*args, **kwargs)
            for key, amount in (counts or {}).items():
                rec.counts[key] += amount(args, kwargs, result)
            return result

        return wrapper

    return make


def _cache_lookups(rec: Recorder, prefix: str):
    """Counter-only wrapper for a cache method that bumps ``self.hits``."""

    def make(original):
        @functools.wraps(original)
        def wrapper(cache, *args, **kwargs):
            hits = cache.hits
            result = original(cache, *args, **kwargs)
            rec.counts[prefix + "_lookups"] += 1
            rec.counts[prefix + "_hits"] += cache.hits - hits
            return result

        return wrapper

    return make


def _one(*_):
    return 1


def install(rec: Recorder) -> Callable[[], None]:
    """Install every probe; returns the function that removes them."""
    import multiprocessing.connection as connection

    from repro.accelerator.simulator import CycleSimulator
    from repro.cluster.fleet import GlobalLoadBalancer
    from repro.cluster.fleet_engine import FleetRunner
    from repro.cluster.simulation import RackSimulation, ServiceSampleCache
    from repro.cluster.sweep import ScenarioResult
    from repro.cluster.trace import RequestTrace, TraceGenerator
    from repro.compiler.executable import ProgramCache
    from repro.core.model import ServerlessExecutionModel
    from repro.dse.explorer import DSEExplorer
    from repro.experiments.registry import ExperimentRegistry
    from repro.models.graph import Graph
    from repro.sim.stats import QuantileSketch

    patches = _Patches()

    def fleet_run(original):
        @functools.wraps(original)
        def wrapper(runner, topology, trace, workers=None):
            start = time.perf_counter()
            with rec.span("cluster.fleet.run"):
                result = original(runner, topology, trace, workers)
            rec.counts["cluster.fleet.runs"] += 1
            rec.counts["cluster.fleet.pool_capacity_s"] += (
                (result.workers if result.workers > 1 else 0)
                * (time.perf_counter() - start)
            )
            rec.collect_workers()
            return result

        return wrapper

    def rack_task(original):
        @functools.wraps(original)
        def wrapper(runner, task):
            with rec.span("cluster.fleet.rack_task"):
                result = original(runner, task)
            if os.getpid() != rec.main_pid:
                rec.counts["cluster.fleet.ipc_bytes"] += len(pickle.dumps(result))
                rec.dump_worker()
            return result

        return wrapper

    patches.method(FleetRunner, "run", fleet_run)
    patches.method(FleetRunner, "_run_shard", rack_task)

    # experiments: the registry entry point and the row builders the
    # workloads' experiments call.
    patches.method(ExperimentRegistry, "run", _spanned(rec, "experiments.registry"))
    rows = _spanned(rec, "experiments.rows")
    patches.method(ScenarioResult, "as_row", rows)
    patches.function("repro.experiments.fig13", "series_row", rows)
    patches.function("repro.experiments.fleet", "_fleet_rows", rows)
    patches.function("repro.experiments.fig07", "pareto_rows", rows)

    # dse / compiler / accelerator
    patches.method(DSEExplorer, "evaluate", _spanned(rec, "dse.evaluate"))
    patches.function(
        "repro.compiler.packed_codegen",
        "lower_packed",
        _spanned(rec, "compiler.lower_packed", {"compiler.lower_packed_calls": _one}),
    )
    patches.method(
        ProgramCache, "get_packed", _cache_lookups(rec, "compiler.program_cache")
    )
    patches.method(
        CycleSimulator,
        "run_packed",
        _spanned(
            rec,
            "accelerator.run_packed",
            {
                "accelerator.run_packed_calls": _one,
                "accelerator.packed_rows": lambda args, kwargs, result: len(args[1]),
            },
        ),
    )

    # core, with platforms and models beneath it (Graph.stats is counted,
    # not spanned, so its time stays in the service-time model's span).
    patches.method(
        ServerlessExecutionModel,
        "sample_latencies",
        _spanned(
            rec,
            "core.sample_latencies",
            {
                "core.sample_latencies_calls": _one,
                "core.samples_drawn": lambda args, kwargs, result: len(result),
            },
        ),
    )

    def graph_stats(original):
        @functools.wraps(original)
        def wrapper(graph):
            rec.counts["models.graph_stats_calls"] += 1
            return original(graph)

        return wrapper

    patches.method(Graph, "stats", graph_stats)

    # cluster.trace
    patches.method(
        TraceGenerator,
        "generate",
        _spanned(
            rec,
            "cluster.trace.generate",
            {"cluster.trace.requests": lambda args, kwargs, result: len(result)},
        ),
    )

    def chunks(original):
        @functools.wraps(original)
        def wrapper(trace, chunk_requests):
            iterator = original(trace, chunk_requests)
            while True:
                with rec.span("cluster.trace.chunks"):
                    try:
                        chunk = next(iterator)
                    except StopIteration:
                        return
                yield chunk

        return wrapper

    patches.method(RequestTrace, "chunks", chunks)

    # cluster.engine: the dispatch kernels, entered via RackSimulation.run.
    for label, (module_name, attribute) in KERNELS.items():
        __import__(module_name)
        patches.function(
            module_name,
            attribute,
            _spanned(
                rec,
                f"cluster.engine.{label}",
                {
                    "cluster.engine.kernel_calls": _one,
                    f"cluster.engine.requests.{label}": (
                        lambda args, kwargs, result: result.total_requests
                    ),
                },
            ),
        )

    def rack_run(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            kernels = rec.counts["cluster.engine.kernel_calls"]
            result = original(*args, **kwargs)
            if rec.counts["cluster.engine.kernel_calls"] == kernels:
                rec.counts["cluster.engine.event_fallbacks"] += 1
            return result

        return wrapper

    patches.method(RackSimulation, "run", rack_run)
    patches.method(
        ServiceSampleCache, "draw", _cache_lookups(rec, "cluster.sweep.sample_cache")
    )

    # cluster.fleet: the balancer, and the bytes the parent pickles into the
    # pool's pipes (workers count the results they pickle back).
    patches.method(GlobalLoadBalancer, "shard", _spanned(rec, "cluster.fleet.shard"))

    def send_bytes(original):
        @functools.wraps(original)
        def wrapper(conn, buf, *args, **kwargs):
            if os.getpid() == rec.main_pid:
                rec.add_ipc_bytes(memoryview(buf).nbytes)
            return original(conn, buf, *args, **kwargs)

        return wrapper

    patches.method(connection._ConnectionBase, "send_bytes", send_bytes)

    # sim.stats
    sketch = _spanned(rec, "sim.stats.sketch")
    for name in ("add", "merge", "merged", "percentile"):
        patches.method(QuantileSketch, name, sketch)
    return patches.undo


# ------------------------------------------------------------------ metrics
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(spans: List[list], first: int = 0) -> Dict[str, float]:
    """Per span name over ``spans[first:]``: summed duration minus the
    duration of child spans (parents are indices into ``spans``)."""
    children = collections.defaultdict(float)
    for span in spans[first:]:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    totals: Dict[str, float] = collections.defaultdict(float)
    for index, span in enumerate(spans[first:], start=first):
        totals[span[NAME]] += span[END] - span[START] - children[index]
    return totals


def layer_metrics(
    spans: List[list], first: int, counts: Dict[str, float], main_pid: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration: ``spans[first:]``
    and the counts taken while it ran."""
    own = self_times(spans, first)
    busy = sum(
        span[END] - span[START]
        for span in spans[first:]
        if span[NAME] == "cluster.fleet.rack_task" and span[PID] != main_pid
    )
    metrics = {
        "core.sample_latencies_s": own["core.sample_latencies"],
        "core.sample_latencies_calls": counts["core.sample_latencies_calls"],
        "core.samples_drawn": counts["core.samples_drawn"],
        "models.graph_stats_calls": counts["models.graph_stats_calls"],
        "cluster.sweep.sample_cache_hit_ratio": _ratio(
            counts["cluster.sweep.sample_cache_hits"],
            counts["cluster.sweep.sample_cache_lookups"],
        ),
        "cluster.sweep.sample_cache_lookups": counts["cluster.sweep.sample_cache_lookups"],
        "cluster.trace.generate_s": own["cluster.trace.generate"],
        "cluster.trace.chunks_s": own["cluster.trace.chunks"],
        "cluster.trace.requests": counts["cluster.trace.requests"],
    }
    for label in KERNELS:
        metrics[f"cluster.engine.{label}_s"] = own[f"cluster.engine.{label}"]
    for label in KERNELS:
        metrics[f"cluster.engine.us_per_request.{label}"] = 1e6 * _ratio(
            own[f"cluster.engine.{label}"], counts[f"cluster.engine.requests.{label}"]
        )
    metrics.update(
        {
            "cluster.engine.event_fallbacks": counts["cluster.engine.event_fallbacks"],
            "cluster.fleet.shard_s": own["cluster.fleet.shard"],
            "cluster.fleet.run_s": own["cluster.fleet.run"],
            "cluster.fleet.worker_busy_s": busy,
            "cluster.fleet.worker_utilization": _ratio(
                busy, counts["cluster.fleet.pool_capacity_s"]
            ),
            "cluster.fleet.ipc_bytes": _ratio(
                counts["cluster.fleet.ipc_bytes"], counts["cluster.fleet.runs"]
            ),
            "sim.stats.sketch_s": own["sim.stats.sketch"],
            "compiler.lower_packed_s": own["compiler.lower_packed"],
            "compiler.lower_packed_calls": counts["compiler.lower_packed_calls"],
            "compiler.program_cache_hit_ratio": _ratio(
                counts["compiler.program_cache_hits"],
                counts["compiler.program_cache_lookups"],
            ),
            "compiler.program_cache_lookups": counts["compiler.program_cache_lookups"],
            "accelerator.run_packed_s": own["accelerator.run_packed"],
            "accelerator.run_packed_calls": counts["accelerator.run_packed_calls"],
            "accelerator.packed_rows": counts["accelerator.packed_rows"],
            "dse.evaluate_self_s": own["dse.evaluate"],
            "experiments.registry_self_s": own["experiments.registry"],
            "experiments.rows_s": own["experiments.rows"],
        }
    )
    return metrics

"""Shared harness for the ``BENCH_*.json`` performance benchmarks.

Every bench script (``bench_sweep.py``, ``bench_rack.py``) times an
oracle engine against a fast engine on the same workload, verifies the
two agree, and records one uniform JSON schema::

    {
      "benchmark":   "<name>",
      "workload":    {...},                  # script-specific knobs/sizes
      "workers":     <int>,                  # process-pool size of the fast
                                             # engine (absent when serial;
                                             # never above usable_cpus)
      "machine":     {python, implementation, machine, cpu_count,
                      usable_cpus},
      "engines": {
        "fast":   {engine, wall_clock_s, per_second},
        "oracle": {engine, wall_clock_s, per_second}   # absent with --skip
      },
      "speedup":           <oracle / fast>,            # absent with --skip
      "results_identical": true,
      "check_hash":        "sha256:..."               # digest of the fast results
    }

so future PRs can diff trajectories across benchmarks without
per-script parsing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which a
    container or ``taskset`` can make smaller than ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def check_workers(workers: Optional[int]) -> None:
    """Refuse a process-pool size above the usable CPUs: such a run
    times oversubscription, not parallel speedup."""
    if workers is not None and workers > usable_cpus():
        raise ValueError(
            f"workers={workers} exceeds the {usable_cpus()} usable CPUs; "
            "a timing from more workers than CPUs is not a parallel "
            "measurement"
        )


def machine_info() -> Dict[str, Any]:
    """The fields needed to interpret a wall-clock number later."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
    }


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once, returning (result, wall-clock seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def traced_peak(fn: Callable[[], Any]) -> Tuple[Any, int]:
    """Run ``fn`` once under ``tracemalloc``, returning (result, peak bytes).

    Peak bytes is the high-water mark of Python allocations made *during*
    the call (numpy buffers included — they allocate through the traced
    C-API domain).  Tracing slows allocation-heavy code down noticeably,
    so memory runs and timing runs must be separate: never reuse a traced
    wall-clock for an ``engines`` entry.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, int(peak)


def rss_bytes() -> Optional[int]:
    """Current process max-RSS in bytes (None where unsupported).

    A coarse whole-process ceiling to sanity-check the ``tracemalloc``
    numbers against; ``ru_maxrss`` is kilobytes on Linux, bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


def digest(*parts: Any) -> str:
    """A stable content hash over strings / bytes / reprs.

    Callers pass deterministic projections of their results (dataclass
    reprs, ``ndarray.tobytes()``); the digest lets two BENCH records be
    compared for *what* they computed, not just how fast.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            hasher.update(part)
        else:
            hasher.update(repr(part).encode())
        hasher.update(b"\x00")
    return f"sha256:{hasher.hexdigest()}"


def series_digest(series_by_platform) -> str:
    """The shared check-hash payload for rack-series benchmarks.

    One definition for every ``BENCH_*.json`` that hashes
    :class:`~repro.cluster.simulation.SimulationSeries` results
    (``bench_rack``, ``bench_faults``, ``bench_autoscale``): the full
    series, the drop *times and reasons*, the availability counters, and
    the per-reason drop breakdown (including ``shed``) — so a future
    engine cannot silently reshuffle loss modes while matching the
    aggregate counts.  ``tests/test_fault_equivalence.py`` and
    ``tests/test_control_equivalence.py`` restate this projection (tests
    do not import from ``scripts/``); keep them in lockstep.
    """
    parts = []
    for name in sorted(series_by_platform):
        series = series_by_platform[name]
        parts.extend(
            [
                name,
                series.completed_latency_seconds.tobytes(),
                series.completed_times.tobytes(),
                series.queue_depth.tobytes(),
                series.busy_instances.tobytes(),
                series.dropped_times.tobytes(),
                series.dropped_reasons.tobytes(),
                series.dropped_requests,
                series.total_requests,
                series.retries,
                series.timeouts,
                series.crash_kills,
                tuple(sorted(series.drop_breakdown().items())),
            ]
        )
    return digest(*parts)


def engine_record(
    engine: str,
    wall_clock_s: float,
    work_items: int,
    peak_mem_bytes: Optional[int] = None,
) -> Dict[str, Any]:
    """One engine's timing entry (``per_second`` = work items / wall).

    ``peak_mem_bytes`` (from :func:`traced_peak`, measured in a separate
    untimed run) records the allocation high-water mark — the axis the
    streaming benchmark sweeps.
    """
    record = {
        "engine": engine,
        "wall_clock_s": round(wall_clock_s, 3),
        "per_second": round(work_items / wall_clock_s, 2) if wall_clock_s else None,
    }
    if peak_mem_bytes is not None:
        record["peak_mem_bytes"] = int(peak_mem_bytes)
    return record


def build_record(
    benchmark: str,
    workload: Dict[str, Any],
    fast: Dict[str, Any],
    oracle: Optional[Dict[str, Any]] = None,
    check_hash: Optional[str] = None,
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Assemble the uniform record; speedup only when the oracle ran.

    ``workers`` records the process-pool size behind the fast engine's
    timing (sharded fleet / DSE runs); omit it for serial engines so a
    sharded artifact is distinguishable — and reproducible — from the
    JSON alone.  A pool larger than the usable CPUs raises
    (:func:`check_workers`).
    """
    check_workers(workers)
    record: Dict[str, Any] = {
        "benchmark": benchmark,
        "workload": workload,
        "machine": machine_info(),
        "engines": {"fast": fast},
    }
    if workers is not None:
        record["workers"] = int(workers)
    if oracle is not None:
        record["engines"]["oracle"] = oracle
        record["speedup"] = round(
            oracle["wall_clock_s"] / fast["wall_clock_s"], 2
        )
        record["results_identical"] = True
    if check_hash is not None:
        record["check_hash"] = check_hash
    return record


def write_record(path: Path, record: Dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path

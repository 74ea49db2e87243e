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

import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

# The check-hash projection lives beside the fleet's per-rack hash, so
# BENCH records, the fleet runner and the tests all hash the same bytes.
from repro.cluster.fleet_engine import digest, series_digest


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


def timed_alternating(
    first: Callable[[], Any], second: Callable[[], Any], runs: int = 3
) -> Tuple[Tuple[Any, float], Tuple[Any, float]]:
    """Time ``first`` and ``second`` ``runs`` times each, alternating
    which goes first so drift across the run window cancels out.

    Returns ``((first result, median s), (second result, median s))``,
    each result from that side's last run; one result per side is held
    in memory at a time.
    """
    sides = (first, second)
    results: list = [None, None]
    seconds: Tuple[list, list] = ([], [])
    for run in range(runs):
        for side in (0, 1) if run % 2 == 0 else (1, 0):
            results[side] = None
            results[side], wall = timed(sides[side])
            seconds[side].append(wall)
    return (
        (results[0], statistics.median(seconds[0])),
        (results[1], statistics.median(seconds[1])),
    )


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

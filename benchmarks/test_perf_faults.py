"""Perf harness for the fault-injection layer.

Two guards on the full Fig. 13 trace:

1. **Zero-fault overhead** — with inert fault/retry objects attached,
   the run must route to the fault-free vectorized engine and keep its
   (>= 5x) speedup over the event oracle.  The availability layer costs
   nothing until a failure process is enabled.
2. **Chaos speedup** — under a mild fault schedule plus retry policy,
   the vectorized chaos engine must still beat its event-driven oracle
   (the control oracle with an inert plane), bit-identically.  ``scripts/bench_faults.py`` records the
   real figure in ``BENCH_faults.json``.
"""

import time

import numpy as np
import pytest
from conftest import print_table

from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import TraceGenerator
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

MIN_TRACE_REQUESTS = 50_000

MILD_FAULTS = FaultSchedule(
    instance_mtbf_seconds=900.0,
    instance_mttr_seconds=30.0,
    slowdown_rate_per_minute=1.0,
    slowdown_multiplier=2.0,
    slowdown_duration_seconds=5.0,
    seed=404,
)
MILD_RETRY = RetryPolicy(timeout_seconds=5.0, max_retries=2)


def _timed_run(context, trace, engine, faults, retry):
    simulation = RackSimulation(
        context.models[BASELINE_NAME],
        context.applications,
        max_instances=200,
        seed=13,
        faults=faults,
        retry=retry,
    )
    start = time.perf_counter()
    series = simulation.run(trace, engine=engine)
    return series, time.perf_counter() - start


@pytest.mark.slow
def test_zero_fault_config_keeps_vectorized_speedup(benchmark):
    """Inert fault objects must not tax the fault-free fast path."""
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    trace = TraceGenerator(context.app_names).generate(
        np.random.default_rng(13)
    )
    if len(trace) < MIN_TRACE_REQUESTS:
        pytest.skip(f"trace too small to benchmark: {len(trace)} requests")

    inert = (FaultSchedule(), RetryPolicy())
    event_series, event_s = _timed_run(context, trace, "event", *inert)
    fast_series, fast_s = benchmark.pedantic(
        lambda: _timed_run(context, trace, "vectorized", *inert),
        rounds=1,
        iterations=1,
    )

    assert event_series.identical_to(fast_series)
    speedup = event_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"inert chaos config ({len(trace)} requests, {BASELINE_NAME})",
        [
            {"engine": "event-driven (oracle)", "wall_s": round(event_s, 3)},
            {"engine": "vectorized (inert faults)", "wall_s": round(fast_s, 3)},
        ],
    )
    print(f"speedup: {speedup:.1f}x (results bit-identical)")
    benchmark.extra_info["speedup_vs_event"] = round(speedup, 2)
    assert speedup >= 5.0


@pytest.mark.slow
def test_chaos_vectorized_beats_chaos_oracle(benchmark):
    """Active faults: the vectorized chaos engine still wins, exactly."""
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    trace = TraceGenerator(context.app_names).generate(
        np.random.default_rng(13)
    )
    if len(trace) < MIN_TRACE_REQUESTS:
        pytest.skip(f"trace too small to benchmark: {len(trace)} requests")

    chaos = (MILD_FAULTS, MILD_RETRY)
    event_series, event_s = _timed_run(context, trace, "event", *chaos)
    fast_series, fast_s = benchmark.pedantic(
        lambda: _timed_run(context, trace, "vectorized", *chaos),
        rounds=1,
        iterations=1,
    )

    assert event_series.identical_to(fast_series)
    assert fast_series.crash_kills > 0 or fast_series.retries > 0
    speedup = event_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"chaos engines ({len(trace)} requests, {BASELINE_NAME})",
        [
            {"engine": "event-driven chaos oracle", "wall_s": round(event_s, 3)},
            {"engine": "vectorized chaos engine", "wall_s": round(fast_s, 3)},
        ],
    )
    print(f"speedup: {speedup:.1f}x (results bit-identical)")
    benchmark.extra_info["speedup_vs_event"] = round(speedup, 2)
    # BENCH_faults.json records ~2.5x on the two-platform study; the
    # loose bound keeps CI variance from flaking.
    assert speedup >= 1.3

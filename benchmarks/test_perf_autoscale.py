"""Perf harness for the closed-loop control plane.

Two guards on the full Fig. 13 trace:

1. **Control speedup** — with autoscaling + shedding engaged (composed
   with the mild chaos schedule of ``test_perf_faults.py``), the
   control kernel must beat the event-driven control oracle,
   bit-identically.  ``scripts/bench_autoscale.py`` records the real
   figure in ``BENCH_autoscale.json`` (~4.9x on the two-platform study).
2. **Zero-control overhead** — an inert ``ControlPlane()`` must route
   to the existing engines and keep the fault-free vectorized path's
   (>= 5x) speedup.  The control layer costs nothing until enabled.
"""

import time

import numpy as np
import pytest
from conftest import print_table

from repro.cluster.control import AutoscalerPolicy, ControlPlane, OverloadPolicy
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
PLANE = ControlPlane(
    autoscaler=AutoscalerPolicy(
        policy="target_utilization",
        min_instances=20,
        warmup_seconds=2.5,
        scale_down_cooldown_seconds=30.0,
    ),
    overload=OverloadPolicy(queue_delay_target_seconds=0.5),
)


def _timed_run(context, trace, engine, control):
    simulation = RackSimulation(
        context.models[BASELINE_NAME],
        context.applications,
        max_instances=200,
        seed=13,
        faults=MILD_FAULTS,
        retry=MILD_RETRY,
        control=control,
    )
    start = time.perf_counter()
    series = simulation.run(trace, engine=engine)
    return series, time.perf_counter() - start


@pytest.mark.slow
def test_control_vectorized_beats_control_oracle(benchmark):
    """Closed loop engaged: the vectorized engine still wins, exactly."""
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    trace = TraceGenerator(context.app_names).generate(
        np.random.default_rng(13)
    )
    if len(trace) < MIN_TRACE_REQUESTS:
        pytest.skip(f"trace too small to benchmark: {len(trace)} requests")

    event_series, event_s = _timed_run(context, trace, "event", PLANE)
    fast_series, fast_s = benchmark.pedantic(
        lambda: _timed_run(context, trace, "vectorized", PLANE),
        rounds=1,
        iterations=1,
    )

    assert event_series.identical_to(fast_series)
    assert fast_series.scale_ups > 0  # the loop actually actuated
    speedup = event_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"control engines ({len(trace)} requests, {BASELINE_NAME})",
        [
            {
                "engine": "event-driven control oracle",
                "wall_s": round(event_s, 3),
            },
            {
                "engine": "control kernel",
                "wall_s": round(fast_s, 3),
            },
        ],
    )
    print(f"speedup: {speedup:.1f}x (results bit-identical)")
    benchmark.extra_info["speedup_vs_event"] = round(speedup, 2)
    # BENCH_autoscale.json records ~4.9x on the two-platform study; the
    # loose bound keeps CI variance from flaking.
    assert speedup >= 1.3


@pytest.mark.slow
def test_inert_plane_keeps_fault_free_speedup(benchmark):
    """``ControlPlane()`` attached must not tax the fast path at all."""
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    trace = TraceGenerator(context.app_names).generate(
        np.random.default_rng(13)
    )
    if len(trace) < MIN_TRACE_REQUESTS:
        pytest.skip(f"trace too small to benchmark: {len(trace)} requests")

    def run(engine, control):
        simulation = RackSimulation(
            context.models[BASELINE_NAME],
            context.applications,
            max_instances=200,
            seed=13,
            control=control,
        )
        start = time.perf_counter()
        series = simulation.run(trace, engine=engine)
        return series, time.perf_counter() - start

    event_series, event_s = run("event", ControlPlane())
    fast_series, fast_s = benchmark.pedantic(
        lambda: run("vectorized", ControlPlane()),
        rounds=1,
        iterations=1,
    )

    assert event_series.identical_to(fast_series)
    speedup = event_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"inert control plane ({len(trace)} requests, {BASELINE_NAME})",
        [
            {"engine": "event-driven (oracle)", "wall_s": round(event_s, 3)},
            {"engine": "vectorized (inert plane)", "wall_s": round(fast_s, 3)},
        ],
    )
    print(f"speedup: {speedup:.1f}x (results bit-identical)")
    benchmark.extra_info["speedup_vs_event"] = round(speedup, 2)
    assert speedup >= 5.0

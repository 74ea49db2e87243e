"""Perf harness: event-driven vs vectorized rack simulation engines.

Runs the full Fig. 13 trace through ``RackSimulation`` once per engine
and checks both that the two are bit-identical and that the vectorized
engine actually wins.  ``scripts/bench_rack.py`` times the complete
two-platform study and records the trajectory in ``BENCH_rack.json``.
"""

import time

import numpy as np
import pytest
from conftest import print_table

from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import TraceGenerator
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

# Below this the trace is too small for engine overheads to dominate the
# comparison (and the guard would only measure noise).
MIN_TRACE_REQUESTS = 50_000


@pytest.mark.slow
def test_vectorized_rack_beats_event_driven(benchmark):
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    trace = TraceGenerator(context.app_names).generate(
        np.random.default_rng(13)
    )
    if len(trace) < MIN_TRACE_REQUESTS:
        pytest.skip(f"trace too small to benchmark: {len(trace)} requests")

    def timed_run(engine):
        simulation = RackSimulation(
            context.models[BASELINE_NAME],
            context.applications,
            max_instances=200,
            seed=13,
        )
        start = time.perf_counter()
        series = simulation.run(trace, engine=engine)
        return series, time.perf_counter() - start

    event_series, event_s = timed_run("event")
    fast_series, fast_s = benchmark.pedantic(
        lambda: timed_run("vectorized"), rounds=1, iterations=1
    )

    assert event_series.identical_to(fast_series)  # bit-identical runs
    speedup = event_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"rack engines ({len(trace)} requests, {BASELINE_NAME})",
        [
            {
                "engine": "event-driven (oracle)",
                "wall_s": round(event_s, 3),
                "req/s": round(len(trace) / event_s),
            },
            {
                "engine": "control kernel",
                "wall_s": round(fast_s, 3),
                "req/s": round(len(trace) / fast_s),
            },
        ],
    )
    print(f"speedup: {speedup:.1f}x (results bit-identical)")
    benchmark.extra_info["speedup_vs_event"] = round(speedup, 2)
    # Loose bound so CI variance cannot flake; BENCH_rack.json records the
    # real (order-of-magnitude) figure on the full two-platform study.
    assert speedup >= 5.0

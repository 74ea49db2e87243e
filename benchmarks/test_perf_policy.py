"""Perf harness: event-driven oracle vs the control kernel on a keyed rack.

Runs a saturated SJF rack through ``RackSimulation`` once per engine and
checks both that the two are bit-identical and that the control kernel
(its key-heap dispatch) actually wins.  ``scripts/bench_policy.py`` times
the full policy x platform study and records the trajectory in
``BENCH_policy.json``.
"""

import time

import numpy as np
import pytest
from conftest import print_table

from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.sweep import service_estimates_for
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, build_context

# Below this the trace is too small for engine overheads to dominate the
# comparison (and the guard would only measure noise).
MIN_TRACE_REQUESTS = 50_000

# x0.2 envelope against 40 instances: the fleet saturates through the
# burst, so the keyed dispatch kernel (not just the contention-free
# pass) is what gets measured.
RATE_SCALE = 0.2
MAX_INSTANCES = 40


@pytest.mark.slow
def test_vectorized_policy_beats_event_driven(benchmark):
    context = build_context(platform_names=[BASELINE_NAME])
    model = context.models[BASELINE_NAME]
    envelope = tuple(r * RATE_SCALE for r in DEFAULT_RATE_ENVELOPE)
    trace = TraceGenerator(
        context.app_names, rate_envelope=envelope
    ).generate(np.random.default_rng(13))
    if len(trace) < MIN_TRACE_REQUESTS:
        pytest.skip(f"trace too small to benchmark: {len(trace)} requests")
    factory = PolicyFactory(
        "sjf",
        service_estimates=service_estimates_for(context, BASELINE_NAME),
    )

    def timed_run(engine):
        simulation = RackSimulation(
            model,
            context.applications,
            max_instances=MAX_INSTANCES,
            seed=13,
            policy=factory,
        )
        start = time.perf_counter()
        series = simulation.run(trace, engine=engine)
        return series, time.perf_counter() - start

    event_series, event_s = timed_run("event")
    fast_series, fast_s = benchmark.pedantic(
        lambda: timed_run("vectorized"), rounds=1, iterations=1
    )

    assert event_series.identical_to(fast_series)  # bit-identical runs
    assert int(event_series.queue_depth.max()) > 0  # the queue was real
    speedup = event_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"policy engines (SJF, {len(trace)} requests, {BASELINE_NAME})",
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
    # Loose bound so CI variance cannot flake; BENCH_policy.json records
    # the real figure on the full policy x platform study.
    assert speedup >= 5.0

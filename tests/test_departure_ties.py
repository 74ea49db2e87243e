"""Departures at exactly an arrival's timestamp.

The fast kernels retire in-service completions in bulk: every
completion strictly before the next arrival departs in one bisect.  The
event queue ranks an arrival before an equal-time completion, so a
completion at exactly ``now`` must still hold its server when the
arrival at ``now`` is admitted.  This file builds that exact tie and
checks that every engine drops the same single request as the oracle;
retiring ``<= now`` instead of ``< now`` would free the server early and
drop nothing.
"""

import numpy as np
import pytest

from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.streaming import StreamedSeries
from repro.cluster.trace import RequestTrace
from repro.core.model import ServerlessExecutionModel
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu

DURATION = 60.0
SEED = 5


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


@pytest.fixture(scope="module")
def model():
    return ServerlessExecutionModel(platform=baseline_cpu())


def policy_for(kind, name):
    if kind == "fcfs":
        return None
    return PolicyFactory("sjf", service_estimates={name: 1.0})


def simulate(model, suite, policy, trace, engine, **kwargs):
    sim = RackSimulation(
        model,
        suite,
        max_instances=1,
        queue_depth=1,
        seed=SEED,
        policy=policy,
    )
    return sim.run(trace, engine=engine, **kwargs)


@pytest.mark.parametrize("kind", ["fcfs", "sjf"])
def test_arrival_ranks_before_equal_time_completion(model, suite, kind):
    name = next(iter(suite))
    policy = policy_for(kind, name)
    single = RequestTrace(np.array([1.0]), (name,), DURATION)
    t1 = float(
        simulate(model, suite, policy, single, "event").completed_times[0]
    )
    # Same seed and app: the first request again completes at exactly
    # t1, the instant the next two requests arrive.
    trace = RequestTrace(np.array([1.0, t1, t1]), (name,) * 3, DURATION)

    event = simulate(model, suite, policy, trace, "event")
    vectorized = simulate(model, suite, policy, trace, "vectorized")
    streamed = simulate(
        model, suite, policy, trace, "streaming", chunk_requests=1
    )

    # The server is still busy at t1: one arrival queues, the other
    # finds the queue full.
    assert event.dropped_requests == 1
    assert list(event.dropped_times) == [t1]
    assert event.identical_to(vectorized)
    assert StreamedSeries.from_series(event).identical_to(streamed)


@pytest.mark.parametrize("kind", ["fcfs", "sjf"])
def test_arrival_at_a_completion_and_a_tick_is_queued(model, suite, kind):
    """A tick at exactly an arrival that ties a completion sees the
    arrival queued and the completing request still busy: the queue pop
    and start come with the completion, after the tick."""
    name = next(iter(suite))
    policy = policy_for(kind, name)
    single = RequestTrace(np.array([0.0]), (name,), DURATION)
    t1 = float(
        simulate(model, suite, policy, single, "event").completed_times[0]
    )
    # Ticks every t1 put one at exactly t1, when the second request
    # arrives and the first completes.
    trace = RequestTrace(np.array([0.0, t1]), (name,) * 2, 3 * t1)

    event = simulate(
        model, suite, policy, trace, "event", sample_interval_seconds=t1
    )
    vectorized = simulate(
        model, suite, policy, trace, "vectorized", sample_interval_seconds=t1
    )
    streamed = simulate(
        model, suite, policy, trace, "streaming",
        sample_interval_seconds=t1, chunk_requests=1,
    )

    assert event.sample_times[0] == t1
    assert list(event.busy_instances) == [1, 1, 0]
    assert list(event.queue_depth) == [1, 0, 0]
    assert event.identical_to(vectorized)
    assert StreamedSeries.from_series(event).identical_to(streamed)

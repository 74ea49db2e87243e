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

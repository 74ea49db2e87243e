"""The vectorized keyed-policy engine must be bit-identical to the oracle.

The keyed twin of ``tests/test_rack_equivalence.py``: for every policy
driven by a :class:`~repro.cluster.policy_keys.PolicyKey` (SJF,
criticality, DAG-aware — and FCFS, which the keyed engine also models as
a zero-width key), the index-priority engine in
:mod:`repro.cluster.policy_engine` must reproduce the event-driven
reference exactly — sample times, queue depth, busy instances,
completion times, latencies, drops, RNG end state, and service-pool
state — across seeds, platforms, and congestion/drop regimes.
"""

import numpy as np
import pytest

from repro.cluster import simulation as simulation_module
from repro.cluster.control import observer_plane
from repro.cluster.faults import RetryPolicy
from repro.cluster.policy_engine import run_keyed
from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.errors import SchedulingError
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu, dscs_dsa

SEEDS = (1, 2, 3)

PLATFORM_BUILDERS = {
    "baseline": baseline_cpu,
    "dscs": dscs_dsa,
}

POLICIES = ("fcfs", "sjf", "criticality", "dag")


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


@pytest.fixture(scope="module")
def models():
    return {
        name: ServerlessExecutionModel(platform=builder())
        for name, builder in PLATFORM_BUILDERS.items()
    }


@pytest.fixture(scope="module")
def estimates(suite, models):
    return {
        name: float(
            np.mean(
                models["baseline"].sample_latencies(
                    app, np.random.default_rng(0), 64
                )
            )
        )
        for name, app in suite.items()
    }


def make_factory(policy, suite, estimates):
    if policy == "fcfs":
        return PolicyFactory("fcfs")
    if policy == "sjf":
        return PolicyFactory("sjf", service_estimates=estimates)
    if policy == "criticality":
        priorities = {name: rank % 3 for rank, name in enumerate(sorted(suite))}
        return PolicyFactory("criticality", priorities=priorities)
    return PolicyFactory("dag", applications=suite)


def make_trace(suite, scale, seed):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(rate * scale for rate in (250, 800, 250)),
        segment_seconds=20.0,
    )
    return generator.generate(np.random.default_rng(seed))


def run_both(model, suite, factory, trace, **kwargs):
    """One fresh simulation per engine; returns (sim, series) pairs."""
    runs = {}
    for engine in ("event", "vectorized"):
        sim = RackSimulation(model, suite, policy=factory, **kwargs)
        runs[engine] = (sim, sim.run(trace, engine=engine))
    return runs


def assert_bit_identical(runs):
    event_sim, event_series = runs["event"]
    fast_sim, fast_series = runs["vectorized"]
    assert event_series.identical_to(fast_series)
    # Identity must extend to simulator state: the same RNG stream was
    # consumed in the same order, leaving the same pools behind.
    assert repr(event_sim._rng.bit_generator.state) == repr(
        fast_sim._rng.bit_generator.state
    )
    assert event_sim._service_cursor == fast_sim._service_cursor
    assert set(event_sim._service_samples) == set(fast_sim._service_samples)
    for name, pool in event_sim._service_samples.items():
        assert np.array_equal(pool, fast_sim._service_samples[name])


@pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_identical_under_congestion(
    suite, models, estimates, platform, policy, seed
):
    """A 4-instance fleet under a bursty trace: queues build and drain."""
    trace = make_trace(suite, 0.05, seed)
    factory = make_factory(policy, suite, estimates)
    runs = run_both(
        models[platform], suite, factory, trace, max_instances=4, seed=seed
    )
    assert_bit_identical(runs)
    assert runs["event"][1].total_requests == len(trace)
    # The congestion was real: some requests actually queued.
    assert int(runs["event"][1].queue_depth.max()) > 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_identical_under_drops(suite, models, estimates, policy, seed):
    """Full-queue admission control: same drops, bit for bit."""
    trace = make_trace(suite, 0.05, seed)
    factory = make_factory(policy, suite, estimates)
    runs = run_both(
        models["baseline"],
        suite,
        factory,
        trace,
        max_instances=1,
        queue_depth=5,
        seed=seed,
    )
    assert_bit_identical(runs)
    assert runs["event"][1].dropped_requests > 0


@pytest.mark.parametrize("policy", ("sjf", "dag"))
def test_engines_identical_with_headroom(suite, models, estimates, policy):
    """A fleet that never saturates exercises the contention-free pass."""
    trace = make_trace(suite, 0.02, 1)
    factory = make_factory(policy, suite, estimates)
    runs = run_both(
        models["dscs"], suite, factory, trace, max_instances=50, seed=1
    )
    assert_bit_identical(runs)
    assert runs["event"][1].dropped_requests == 0
    assert int(runs["event"][1].queue_depth.max()) == 0


def test_engines_identical_on_empty_trace(suite, models, estimates):
    trace = RequestTrace(
        arrival_seconds=np.array([]), app_names=(), duration_seconds=60.0
    )
    factory = make_factory("sjf", suite, estimates)
    runs = run_both(
        models["dscs"], suite, factory, trace, max_instances=4, seed=1
    )
    assert_bit_identical(runs)
    assert len(runs["vectorized"][1].sample_times) == 60


def test_engines_identical_across_repeated_runs(suite, models, estimates):
    """Pools persist across run() calls; both engines must agree then too."""
    factory = make_factory("sjf", suite, estimates)
    first = make_trace(suite, 0.02, 1)
    second = make_trace(suite, 0.02, 2)
    event_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=9, policy=factory
    )
    fast_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=9, policy=factory
    )
    for trace in (first, second):
        event_series = event_sim.run(trace, engine="event")
        fast_series = fast_sim.run(trace, engine="vectorized")
        assert event_series.identical_to(fast_series)
    assert repr(event_sim._rng.bit_generator.state) == repr(
        fast_sim._rng.bit_generator.state
    )


def test_vectorized_keyed_policy_uses_keyed_engine(
    suite, models, estimates, monkeypatch
):
    """Non-FCFS + sorted trace must actually route to run_keyed."""
    calls = []

    def spying_run_keyed(sim, policy, trace, interval):
        calls.append(policy.key.name)
        return run_keyed(sim, policy, trace, interval)

    monkeypatch.setattr(simulation_module, "run_keyed", spying_run_keyed)
    trace = make_trace(suite, 0.02, 3)
    factory = make_factory("sjf", suite, estimates)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=2, seed=3, policy=factory
    )
    sim.run(trace)  # engine defaults to "auto"
    assert calls == ["sjf"]


def test_unsorted_trace_still_falls_back_to_event(suite, models, estimates):
    """The keyed engine assumes time-ordered arrivals; others fall back."""
    base = make_trace(suite, 0.02, 1)
    shuffled = RequestTrace(
        arrival_seconds=base.arrival_seconds[::-1].copy(),
        app_names=tuple(reversed(base.app_names)),
        duration_seconds=base.duration_seconds,
    )
    factory = make_factory("sjf", suite, estimates)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=factory
    )
    assert not sim._keyed_vectorizable(factory.build(), shuffled)
    fast = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=factory
    ).run(shuffled, engine="vectorized")
    event = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=factory
    ).run(shuffled, engine="event")
    assert fast.identical_to(event)


def test_unknown_app_coverage_matches_across_engines(suite, models):
    """SJF unknown-app accounting is engine-independent."""
    partial = dict(list(suite.items())[:2])
    estimates = {
        name: float(
            np.mean(
                models["baseline"].sample_latencies(
                    app, np.random.default_rng(0), 64
                )
            )
        )
        for name, app in partial.items()
    }
    factory = PolicyFactory("sjf", service_estimates=estimates)
    trace = make_trace(suite, 0.05, 2)
    unknowns = {}
    for engine in ("event", "vectorized"):
        sim = RackSimulation(
            models["baseline"],
            suite,
            max_instances=2,
            seed=2,
            policy=factory,
        )
        sim.run(trace, engine=engine)
        unknowns[engine] = sim.last_policy.unknown_apps
    assert unknowns["event"] == unknowns["vectorized"]
    # Every admitted app outside the estimate set was observed.
    assert set(unknowns["event"]) == set(suite) - set(partial)

    # Coverage accounting must work even when the fleet never congests
    # (every request starts immediately, nothing ever queues).
    for engine in ("event", "vectorized"):
        sim = RackSimulation(
            models["dscs"],
            suite,
            max_instances=500,
            seed=2,
            policy=factory,
        )
        series = sim.run(trace, engine=engine)
        assert int(series.queue_depth.max()) == 0
        assert set(sim.last_policy.unknown_apps) == set(suite) - set(partial)


def test_fcfs_subclass_with_coverage_hook_routes_to_keyed_engine(
    suite, models
):
    """The FCFS fast path has no observe_app calls, so a subclass
    carrying a coverage hook must take the keyed engine instead — same
    results, hook honoured on both engines."""
    from repro.cluster.schedulers import FCFSPolicy

    class ObservingFCFS(FCFSPolicy):
        def __init__(self):
            super().__init__()
            self.seen = set()

        def observe_app(self, app_name):
            self.seen.add(app_name)

    class Factory:
        def build(self):
            return ObservingFCFS()

    trace = make_trace(suite, 0.02, 1)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=Factory()
    )
    assert not sim._vectorizable(ObservingFCFS(), trace)
    assert sim._keyed_vectorizable(ObservingFCFS(), trace)
    series = sim.run(trace, engine="vectorized")
    event_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=Factory()
    )
    assert series.identical_to(event_sim.run(trace, engine="event"))
    assert sim.last_policy.seen == event_sim.last_policy.seen == set(suite)


def test_pre_hook_external_policy_still_runs(suite, models):
    """Policies written against the old push/pop/len protocol (no
    observe_app) must still run on the event path."""

    class OldProtocolFCFS:
        def __init__(self):
            self._queue = []

        def push(self, request):
            self._queue.append(request)

        def pop(self):
            return self._queue.pop(0)

        def __len__(self):
            return len(self._queue)

    class Factory:
        def build(self):
            return OldProtocolFCFS()

    trace = make_trace(suite, 0.02, 1)
    sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1, policy=Factory()
    )
    series = sim.run(trace)  # not a KeyedPolicy: auto falls back to event
    reference = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1
    ).run(trace, engine="event")
    assert series.identical_to(reference)


# Engine families an unknown application must fail identically on.
UNKNOWN_APP_CONFIGS = ("fault-free", "retry-active", "observer-plane")


def _unknown_app_kwargs(config):
    if config == "fault-free":
        return {}
    if config == "retry-active":
        return {"retry": RetryPolicy(timeout_seconds=100.0)}
    return {"control": observer_plane(1)}


@pytest.mark.parametrize("engine", ("event", "vectorized", "streaming"))
@pytest.mark.parametrize("config", UNKNOWN_APP_CONFIGS)
def test_keyed_run_on_unknown_application_raises(
    suite, models, estimates, config, engine
):
    """Every engine family rejects an app outside the suite, before any
    service draw — also when the request would meet a full queue (one
    instance, one queue slot) and so never be admitted."""
    app = next(iter(suite))
    traces = (
        RequestTrace(
            arrival_seconds=np.array([0.0, 0.1]),
            app_names=(app, "not-a-real-app"),
            duration_seconds=1.0,
        ),
        RequestTrace(
            arrival_seconds=np.array([0.0, 0.001, 0.002]),
            app_names=(app, app, "not-a-real-app"),
            duration_seconds=1.0,
        ),
    )
    factory = make_factory("sjf", suite, estimates)
    for trace in traces:
        sim = RackSimulation(
            models["baseline"],
            suite,
            max_instances=1,
            queue_depth=1,
            seed=1,
            policy=factory,
            **_unknown_app_kwargs(config),
        )
        state = repr(sim._rng.bit_generator.state)
        with pytest.raises(SchedulingError, match="not-a-real-app"):
            sim.run(trace, engine=engine)
        assert repr(sim._rng.bit_generator.state) == state
        assert sim._service_samples == {}


@pytest.mark.parametrize("policy", ("fcfs", "criticality"))
def test_unsorted_trace_served_in_arrival_order(suite, models, policy):
    """FCFS order on an unsorted trace is arrival order on every event
    path: the fault-free oracle, the fault-aware oracle under a retry
    policy that never fires, and the control oracle under an observer
    plane.  The admission sequence keyed ties break on is the request's
    rank in (arrival, trace index) order, not its trace position."""
    app = next(iter(suite))
    trace = RequestTrace(
        arrival_seconds=np.array([1.02, 1.0, 1.01]),
        app_names=(app, app, app),
        duration_seconds=3.0,
    )
    factory = (
        PolicyFactory("fcfs")
        if policy == "fcfs"
        else PolicyFactory("criticality", priorities={app: 0})
    )
    runs = []
    for kwargs in (
        {},
        {"retry": RetryPolicy(max_retries=1)},
        {"control": observer_plane(1)},
    ):
        sim = RackSimulation(
            models["baseline"],
            suite,
            max_instances=1,
            seed=1,
            policy=factory,
            **kwargs,
        )
        runs.append(sim.run(trace, engine="event"))
    for series in runs:
        assert series.retries == 0
        # One instance serves the queue in arrival order: completion k
        # belongs to the k-th earliest arrival.
        assert np.allclose(
            series.completed_times - series.completed_latency_seconds,
            [1.0, 1.01, 1.02],
        )
        for name in (
            "completed_latency_seconds",
            "completed_times",
            "queue_depth",
            "busy_instances",
            "dropped_times",
        ):
            assert np.array_equal(getattr(series, name), getattr(runs[0], name))

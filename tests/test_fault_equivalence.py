"""Fault/retry runs must match their oracle bit for bit — and inert
configs must be free.

A fault/retry run is a control run whose plane does nothing, so the
fault-injection layer's oracle is the control oracle
(:func:`~repro.cluster.control_engine.run_control_event`) run with an
inert ``ControlPlane()``: ``engine="event"`` routes fault/retry runs
there.  Everything the oracle produces — series, latencies, drop times
*and reasons*, retry/timeout/kill/hedge counters, RNG end state,
service-pool state — must match the materialized inert-plane run of
the control kernel (``run_chaos_vectorized``) exactly, across seeds,
fault mixes, and both policy families (FCFS and keyed).  And a
zero-fault schedule must degrade to the runs with nothing active bit
for bit, including the recorded ``BENCH_rack.json`` check hash.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.control import ControlPlane
from repro.cluster.faults import FaultSchedule, FaultTimeline, RetryPolicy
from repro.cluster.fleet_engine import series_digest
from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu, dscs_dsa
from tests.conftest import assert_same_draws

SEEDS = (1, 2, 3)

PLATFORM_BUILDERS = {
    "baseline": baseline_cpu,
    "dscs": dscs_dsa,
}

# Every failure process and every retry feature at once: instance
# crashes, correlated node outages, slowdown windows, queue timeouts,
# bounded retries with jittered backoff, and hedged dispatch.
FULL_FAULTS = FaultSchedule(
    instance_mtbf_seconds=120.0,
    instance_mttr_seconds=10.0,
    node_outage_mtbf_seconds=300.0,
    node_mttr_seconds=20.0,
    node_size=2,
    slowdown_rate_per_minute=4.0,
    slowdown_multiplier=2.5,
    slowdown_duration_seconds=5.0,
    seed=7,
)
FULL_RETRY = RetryPolicy(
    timeout_seconds=3.0,
    max_retries=2,
    backoff_base_seconds=0.2,
    backoff_cap_seconds=2.0,
    jitter=0.5,
    hedge_after_seconds=1.5,
)


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


@pytest.fixture(scope="module")
def models():
    return {
        name: ServerlessExecutionModel(platform=builder())
        for name, builder in PLATFORM_BUILDERS.items()
    }


def make_trace(suite, scale, seed):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(rate * scale for rate in (250, 800, 250)),
        segment_seconds=20.0,
    )
    return generator.generate(np.random.default_rng(seed))


def policy_for(name, suite, models):
    if name == "fcfs":
        return None
    if name == "sjf":
        estimates = {
            app_name: float(
                np.mean(
                    models["baseline"].sample_latencies(
                        app, np.random.default_rng(0), 64
                    )
                )
            )
            for app_name, app in suite.items()
        }
        return PolicyFactory("sjf", service_estimates=estimates)
    if name == "dag":
        return PolicyFactory("dag", applications=suite)
    raise AssertionError(name)


def run_both(model, suite, trace, **kwargs):
    """One fresh simulation per engine; returns (sim, series) pairs."""
    runs = {}
    for engine in ("event", "vectorized"):
        sim = RackSimulation(model, suite, **kwargs)
        runs[engine] = (sim, sim.run(trace, engine=engine))
    return runs


def assert_bit_identical(runs):
    event_sim, event_series = runs["event"]
    fast_sim, fast_series = runs["vectorized"]
    assert event_series.identical_to(fast_series)
    # Identity must extend to simulator state: the same RNG stream was
    # consumed in the same order, leaving the same pools behind.
    assert_same_draws(fast_sim, event_sim)


@pytest.mark.parametrize("policy", ("fcfs", "sjf"))
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_engines_identical_full_config(suite, models, policy, seed):
    """Everything on at once: crashes, outages, slowdowns, retries,
    timeouts, hedging — both policy families, several seeds."""
    trace = make_trace(suite, 0.05, seed)
    runs = run_both(
        models["baseline"],
        suite,
        trace,
        max_instances=4,
        queue_depth=30,
        seed=seed,
        policy=policy_for(policy, suite, models),
        faults=FULL_FAULTS,
        retry=FULL_RETRY,
    )
    assert_bit_identical(runs)
    series = runs["event"][1]
    # The perturbation genuinely fired (otherwise this test is vacuous).
    assert series.retries > 0
    assert series.timeouts > 0
    assert series.dropped_requests > 0
    assert sum(series.drop_breakdown().values()) == series.dropped_requests


@pytest.mark.parametrize("seed", SEEDS)
def test_node_outages_with_hedging_identical(suite, models, seed):
    """Correlated node loss + hedged dispatch on the keyed engine."""
    trace = make_trace(suite, 0.3, seed)
    runs = run_both(
        models["baseline"],
        suite,
        trace,
        max_instances=16,
        queue_depth=50,
        seed=seed,
        policy=policy_for("sjf", suite, models),
        faults=FaultSchedule(
            node_outage_mtbf_seconds=60.0,
            node_mttr_seconds=60.0,
            node_size=8,
            seed=11,
        ),
        retry=RetryPolicy(hedge_after_seconds=0.2),
    )
    assert_bit_identical(runs)
    series = runs["event"][1]
    assert series.crash_kills > 0
    assert series.hedges_launched > 0
    assert series.hedge_wins > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_retry_only_identical(suite, models, seed):
    """No faults at all: the retry layer alone must stay bit-identical
    (queue-full rejections re-enter through the DAG policy's key)."""
    trace = make_trace(suite, 0.05, seed)
    runs = run_both(
        models["baseline"],
        suite,
        trace,
        max_instances=1,
        queue_depth=5,
        seed=seed,
        policy=policy_for("dag", suite, models),
        retry=RetryPolicy(
            max_retries=2, backoff_base_seconds=0.1, jitter=0.0
        ),
    )
    assert_bit_identical(runs)
    assert runs["event"][1].retries > 0


def test_slowdown_only_identical(suite, models):
    """Slowdown windows without capacity churn or a retry policy."""
    trace = make_trace(suite, 0.05, 1)
    runs = run_both(
        models["baseline"],
        suite,
        trace,
        max_instances=4,
        seed=1,
        faults=FaultSchedule(
            slowdown_rate_per_minute=6.0,
            slowdown_multiplier=3.0,
            slowdown_duration_seconds=4.0,
            seed=5,
        ),
    )
    assert_bit_identical(runs)
    # Slowdowns stretch service times, so latencies must differ from a
    # fault-free run — the windows genuinely applied.
    clean = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1
    ).run(trace, engine="vectorized")
    assert not np.array_equal(
        runs["event"][1].completed_latency_seconds,
        clean.completed_latency_seconds,
    )


@pytest.mark.parametrize("policy", ("fcfs", "sjf"))
def test_zero_fault_chaos_engines_reproduce_fault_free(
    suite, models, policy
):
    """The inert-plane control kernel and its oracle (the control
    oracle with an inert plane), run on an empty timeline + inert retry
    policy, must equal the runs with nothing active (the inline oracle
    and the kernel's quiet paths) bit for bit."""
    from repro.cluster.chaos_engine import run_chaos_vectorized
    from repro.cluster.control_engine import run_control_event

    def oracle(*args):
        return run_control_event(*args, ControlPlane())

    trace = make_trace(suite, 0.05, 2)
    factory = policy_for(policy, suite, models)

    def chaos_run(runner):
        sim = RackSimulation(
            models["baseline"],
            suite,
            max_instances=4,
            seed=2,
            policy=factory,
        )
        queue = factory.build() if factory else None
        if queue is None:
            from repro.cluster.schedulers import FCFSPolicy

            queue = FCFSPolicy()
        series = runner(
            sim, queue, trace, 1.0, FaultTimeline.empty(4), RetryPolicy()
        )
        return sim, series

    baseline_sim = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=2, policy=factory
    )
    baseline = baseline_sim.run(trace, engine="vectorized")
    for runner in (oracle, run_chaos_vectorized):
        sim, series = chaos_run(runner)
        assert series.identical_to(baseline)
        assert_same_draws(sim, baseline_sim)
        assert series.retries == 0
        assert series.crash_kills == 0


def test_inert_config_routes_to_fault_free_engines(suite, models):
    """faults/retry objects that change nothing must not change the
    execution path either — the run stays on the vectorized engines."""
    trace = make_trace(suite, 0.05, 3)
    perturbed = RackSimulation(
        models["baseline"],
        suite,
        max_instances=4,
        seed=3,
        faults=FaultSchedule(),  # no process enabled
        retry=RetryPolicy(),  # no timeout, no retries, no hedging
    )
    plain = RackSimulation(models["baseline"], suite, max_instances=4, seed=3)
    assert not perturbed._chaos_active()
    assert perturbed.run(trace).identical_to(plain.run(trace))


def test_unsorted_trace_chaos_falls_back_to_event_engine(suite, models):
    """Chaos + an unsorted trace must route to the oracle."""
    base = make_trace(suite, 0.05, 1)
    shuffled = RequestTrace(
        arrival_seconds=base.arrival_seconds[::-1].copy(),
        app_names=tuple(reversed(base.app_names)),
        duration_seconds=base.duration_seconds,
    )

    def run(engine):
        return RackSimulation(
            models["baseline"],
            suite,
            max_instances=4,
            queue_depth=30,
            seed=1,
            faults=FULL_FAULTS,
            retry=FULL_RETRY,
        ).run(shuffled, engine=engine)

    assert run("vectorized").identical_to(run("event"))


# ----------------------------------------------------------------------
# Zero-fault reproduction of the recorded benchmark hash.


def test_zero_fault_run_reproduces_bench_rack_hash():
    """The full Fig. 13 workload with inert fault/retry objects attached
    must reproduce the recorded ``BENCH_rack.json`` check hash — the
    availability layer costs nothing and changes nothing until enabled."""
    from repro.cluster.trace import DEFAULT_RATE_ENVELOPE
    from repro.experiments.common import (
        BASELINE_NAME,
        DSCS_NAME,
        build_context,
    )

    bench_path = Path(__file__).resolve().parent.parent / "BENCH_rack.json"
    recorded = json.loads(bench_path.read_text())

    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    generator = TraceGenerator(
        context.app_names, rate_envelope=DEFAULT_RATE_ENVELOPE
    )
    trace = generator.generate(np.random.default_rng(13))
    assert len(trace) == recorded["workload"]["num_requests"]

    series = {}
    for name in (BASELINE_NAME, DSCS_NAME):
        simulation = RackSimulation(
            context.models[name],
            context.applications,
            max_instances=200,
            seed=13,
            faults=FaultSchedule(),
            retry=RetryPolicy(),
        )
        series[name] = simulation.run(trace, engine="vectorized")
    assert series_digest(series) == recorded["check_hash"]

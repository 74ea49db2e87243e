"""The control engines must be bit-identical — and an inert plane free.

The closed-loop layer has two execution paths: the event-driven control
oracle and the vectorized control-epoch kernel.  Everything the oracle
produces — series (incl. live-capacity and per-completion app records),
latencies, drop times *and reasons* (incl. ``shed``), scaling/retry/
timeout/kill/hedge counters, RNG end state, service-pool state — must
match the vectorized kernel exactly, across scaling policies, shedding
configs, seeds, and fault mixes.  The same oracle run with an inert
``ControlPlane()`` is the oracle of fault/retry runs without a
controller, which take the same kernel with an inert plane: it fires no
decision ticks and records no control telemetry.  A disabled controller must degrade to the recorded
``BENCH_rack.json`` and ``BENCH_faults.json`` check hashes bit for bit,
and the ``fig15-overload`` study must show brownout (p99 of admitted
criticality-0 traffic within 2x of the uncongested baseline at 4x
overload) where the uncontrolled run collapses.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.control import (
    AutoscalerPolicy,
    ControlPlane,
    OverloadPolicy,
    observer_plane,
)
from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.fleet_engine import series_digest
from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu
from tests.conftest import assert_same_draws

SEEDS = (1, 2, 3)

# Instance churn + slowdowns + retries + hedging: the control loop must
# stay bit-identical while composing with the full chaos layer.
CHAOS_FAULTS = FaultSchedule(
    instance_mtbf_seconds=120.0,
    instance_mttr_seconds=10.0,
    slowdown_rate_per_minute=4.0,
    slowdown_multiplier=2.5,
    slowdown_duration_seconds=5.0,
    seed=7,
)
CHAOS_RETRY = RetryPolicy(
    timeout_seconds=3.0,
    max_retries=2,
    backoff_base_seconds=0.2,
    backoff_cap_seconds=2.0,
    jitter=0.5,
    hedge_after_seconds=1.5,
)

SCALERS = {
    "target_utilization": AutoscalerPolicy(
        policy="target_utilization",
        min_instances=4,
        scale_down_cooldown_seconds=5.0,
        warmup_seconds=2.5,
    ),
    "queue_depth": AutoscalerPolicy(
        policy="queue_depth", min_instances=4, warmup_seconds=1.0
    ),
}
SHEDDERS = {
    "tokens": OverloadPolicy(
        admission_rate_rps=9.0, admission_burst_seconds=1.0
    ),
    "codel+brownout+breaker": OverloadPolicy(
        queue_delay_target_seconds=0.2,
        latency_slo_seconds=1.0,
        priorities={},  # filled per-suite by the fixture below
        breaker_failure_threshold=0.5,
        breaker_min_failures=3,
        breaker_open_seconds=4.0,
    ),
}


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


@pytest.fixture(scope="module")
def model():
    return ServerlessExecutionModel(platform=baseline_cpu())


@pytest.fixture(scope="module")
def shedders(suite):
    priorities = {name: i % 3 for i, name in enumerate(sorted(suite))}
    configured = dict(SHEDDERS)
    configured["codel+brownout+breaker"] = OverloadPolicy(
        queue_delay_target_seconds=0.2,
        latency_slo_seconds=1.0,
        priorities=priorities,
        breaker_failure_threshold=0.5,
        breaker_min_failures=3,
        breaker_open_seconds=4.0,
    )
    return configured


def make_trace(suite, scale, seed):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(rate * scale for rate in (250, 800, 250)),
        segment_seconds=20.0,
    )
    return generator.generate(np.random.default_rng(seed))


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


# ----------------------------------------------------------------------
# The equivalence matrix: scaling policies x shedding configs x seeds.


@pytest.mark.parametrize("scaler", sorted(SCALERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_autoscaler_engines_identical(suite, model, scaler, seed):
    """Each scaling policy alone, under full chaos, across seeds."""
    trace = make_trace(suite, 0.04, seed)
    runs = run_both(
        model,
        suite,
        trace,
        max_instances=12,
        queue_depth=60,
        seed=seed,
        policy=PolicyFactory("dag", applications=suite),
        faults=CHAOS_FAULTS,
        retry=CHAOS_RETRY,
        control=ControlPlane(autoscaler=SCALERS[scaler]),
    )
    assert_bit_identical(runs)
    series = runs["event"][1]
    # The loop genuinely closed: capacity moved both ways.
    assert series.scale_ups > 0
    assert series.scale_downs > 0
    assert len(series.live_instances) == len(series.sample_times)
    assert series.live_instances.min() >= SCALERS[scaler].min_instances
    assert series.live_instances.max() <= 12


@pytest.mark.parametrize("shedder", sorted(SHEDDERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_shedding_engines_identical(suite, model, shedders, shedder, seed):
    """Each overload config, composed with an autoscaler, across seeds."""
    trace = make_trace(suite, 0.04, seed)
    runs = run_both(
        model,
        suite,
        trace,
        max_instances=12,
        queue_depth=60,
        seed=seed,
        policy=PolicyFactory("dag", applications=suite),
        faults=CHAOS_FAULTS,
        retry=CHAOS_RETRY,
        control=ControlPlane(
            autoscaler=SCALERS["queue_depth"], overload=shedders[shedder]
        ),
    )
    assert_bit_identical(runs)
    series = runs["event"][1]
    breakdown = series.drop_breakdown()
    assert breakdown["shed"] > 0  # the protection genuinely fired
    assert sum(breakdown.values()) == series.dropped_requests


def test_fault_free_control_engines_identical(suite, model, shedders):
    """No chaos at all: the control loop alone must stay bit-identical
    (sheds recorded, nothing retried, no RNG spent on shed arrivals)."""
    trace = make_trace(suite, 0.04, 1)
    runs = run_both(
        model,
        suite,
        trace,
        max_instances=8,
        queue_depth=40,
        seed=1,
        policy=PolicyFactory("dag", applications=suite),
        control=ControlPlane(
            autoscaler=SCALERS["target_utilization"],
            overload=shedders["tokens"],
        ),
    )
    assert_bit_identical(runs)
    series = runs["event"][1]
    assert series.drop_breakdown()["shed"] > 0
    assert series.retries == 0
    assert series.crash_kills == 0


def test_unsorted_trace_control_falls_back_to_event_engine(suite, model):
    """Control + an unsorted trace must route to the control oracle."""
    from repro.cluster.trace import RequestTrace

    base = make_trace(suite, 0.04, 1)
    shuffled = RequestTrace(
        arrival_seconds=base.arrival_seconds[::-1].copy(),
        app_names=tuple(reversed(base.app_names)),
        duration_seconds=base.duration_seconds,
    )

    def run(engine):
        return RackSimulation(
            model,
            suite,
            max_instances=8,
            queue_depth=40,
            seed=1,
            control=ControlPlane(autoscaler=SCALERS["queue_depth"]),
        ).run(shuffled, engine=engine)

    assert run("vectorized").identical_to(run("event"))


# ----------------------------------------------------------------------
# Observer plane: routes through the control engines, changes nothing.


@pytest.mark.parametrize("engine", ("event", "vectorized", "streaming"))
def test_observer_plane_matches_uncontrolled_run(suite, model, engine):
    """An observer plane (floor pinned to the ceiling) must reproduce
    the uncontrolled run exactly on every shared field — it adds the
    per-app completion record without touching the dynamics.  On the
    event and streaming engines both sides run the control family (the
    uncontrolled one with an inert plane), so the inert side must also
    carry no control telemetry."""
    trace = make_trace(suite, 0.04, 2)

    def run(control):
        return RackSimulation(
            model,
            suite,
            max_instances=8,
            queue_depth=40,
            seed=2,
            faults=CHAOS_FAULTS,
            retry=CHAOS_RETRY,
            control=control,
        ).run(trace, engine=engine)

    observed = run(observer_plane(8))
    plain = run(None)
    if engine == "streaming":
        # Shared fields: everything but the live series and per-app
        # counts, which only the observer records.
        assert plain.completed_per_app == {}
        assert len(plain.live_instances) == 0
        assert plain.scale_ups == plain.scale_downs == 0
        assert observed.completed_count == plain.completed_count
        assert np.array_equal(
            observed.latency_sum_per_bucket, plain.latency_sum_per_bucket
        )
        assert np.array_equal(
            observed.dropped_per_bucket, plain.dropped_per_bucket
        )
        assert np.array_equal(
            observed.drop_reason_counts, plain.drop_reason_counts
        )
        assert observed.sketch.identical_to(plain.sketch)
        assert sum(observed.completed_per_app.values()) == (
            observed.completed_count
        )
    else:
        assert np.array_equal(
            observed.completed_latency_seconds,
            plain.completed_latency_seconds,
        )
        assert np.array_equal(observed.completed_times, plain.completed_times)
        assert np.array_equal(observed.dropped_times, plain.dropped_times)
        assert np.array_equal(
            observed.dropped_reasons, plain.dropped_reasons
        )
        assert len(plain.completed_app_ids) == 0
        assert len(plain.live_instances) == 0
        assert plain.app_catalog == ()
        assert plain.scale_ups == plain.scale_downs == 0
        assert len(observed.completed_app_ids) == len(
            observed.completed_times
        )
    assert np.array_equal(observed.queue_depth, plain.queue_depth)
    assert np.array_equal(observed.busy_instances, plain.busy_instances)
    assert observed.retries == plain.retries
    assert observed.timeouts == plain.timeouts
    assert observed.crash_kills == plain.crash_kills
    assert observed.hedges_launched == plain.hedges_launched
    # ... and the record the observer adds is actually there.
    assert observed.scale_ups == 0 and observed.scale_downs == 0
    assert len(observed.live_instances) == len(observed.sample_times)
    assert np.all(observed.live_instances == 8)


# ----------------------------------------------------------------------
# Controller-disabled reproduction of the recorded benchmark hashes.


def _bench_workload(bench_name):
    from repro.cluster.trace import DEFAULT_RATE_ENVELOPE
    from repro.experiments.common import (
        BASELINE_NAME,
        DSCS_NAME,
        build_context,
    )

    bench_path = Path(__file__).resolve().parent.parent / bench_name
    recorded = json.loads(bench_path.read_text())
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    generator = TraceGenerator(
        context.app_names, rate_envelope=DEFAULT_RATE_ENVELOPE
    )
    trace = generator.generate(np.random.default_rng(13))
    assert len(trace) == recorded["workload"]["num_requests"]
    return recorded, context, trace, (BASELINE_NAME, DSCS_NAME)


def test_disabled_controller_reproduces_bench_rack_hash():
    """The full Fig. 13 workload with an inert ``ControlPlane()``
    attached must reproduce the recorded ``BENCH_rack.json`` check hash
    — a disabled controller costs nothing and changes nothing."""
    recorded, context, trace, platforms = _bench_workload("BENCH_rack.json")
    series = {}
    for name in platforms:
        simulation = RackSimulation(
            context.models[name],
            context.applications,
            max_instances=200,
            seed=13,
            control=ControlPlane(),
        )
        assert not simulation._control_active()
        series[name] = simulation.run(trace, engine="vectorized")
    assert series_digest(series) == recorded["check_hash"]


def test_disabled_controller_reproduces_bench_faults_hash():
    """Same, under the ``BENCH_faults.json`` chaos workload: the inert
    plane must leave the fault/retry run's recorded hash untouched."""
    recorded, context, trace, platforms = _bench_workload(
        "BENCH_faults.json"
    )
    workload = recorded["workload"]
    faults = FaultSchedule(
        instance_mtbf_seconds=workload["faults"]["instance_mtbf_s"],
        instance_mttr_seconds=workload["faults"]["instance_mttr_s"],
        slowdown_rate_per_minute=workload["faults"][
            "slowdown_rate_per_minute"
        ],
        slowdown_multiplier=2.0,
        slowdown_duration_seconds=5.0,
        seed=workload["faults"]["fault_seed"],
    )
    retry = RetryPolicy(
        timeout_seconds=workload["retry"]["timeout_s"],
        max_retries=workload["retry"]["max_retries"],
    )
    series = {}
    for name in platforms:
        simulation = RackSimulation(
            context.models[name],
            context.applications,
            max_instances=200,
            seed=13,
            faults=faults,
            retry=retry,
            control=ControlPlane(),
        )
        assert not simulation._control_active()
        series[name] = simulation.run(trace, engine="vectorized")
    assert series_digest(series) == recorded["check_hash"]


# ----------------------------------------------------------------------
# The acceptance criterion: brownout, not collapse.


def test_overload_brownout_vs_collapse():
    """fig15-overload at 4x: the shedding controller keeps the p99 of
    admitted criticality-0 traffic within 2x of the uncongested
    baseline, while the uncontrolled run collapses past that bound."""
    from repro.experiments.registry import REGISTRY, load_all

    load_all()
    study = REGISTRY.run("fig15-overload", profile="fast").study

    platform = "Baseline (CPU)"
    baseline_p99 = study.class_p99(1.0, False, platform, 0)
    controlled_p99 = study.class_p99(4.0, True, platform, 0)
    uncontrolled_p99 = study.class_p99(4.0, False, platform, 0)

    assert np.isfinite(baseline_p99) and baseline_p99 > 0
    assert controlled_p99 <= 2.0 * baseline_p99
    assert uncontrolled_p99 > 2.0 * baseline_p99
    # Collapse is not marginal: the uncontrolled tail is an order of
    # magnitude past the brownout tail.
    assert uncontrolled_p99 > 10.0 * controlled_p99

    # Graceful degradation: the controller converts indiscriminate
    # queue-overflow loss into targeted sheds of low-criticality work.
    controlled = study.at(4.0, True, platform)
    uncontrolled = study.at(4.0, False, platform)
    assert controlled.series.drop_breakdown()["shed"] > 0
    assert (
        controlled.series.drop_breakdown()["queue_full"]
        < uncontrolled.series.drop_breakdown()["queue_full"]
    )
    # Criticality 0 is never shed, so its admitted volume survives.
    crit0 = [
        name for name, rank in study.priorities.items() if rank == 0
    ]
    admitted = controlled.series.completed_latencies_for_apps(crit0)
    baseline_admitted = study.at(
        1.0, False, platform
    ).series.completed_latencies_for_apps(crit0)
    assert len(admitted) > 0
    assert len(admitted) >= len(baseline_admitted)

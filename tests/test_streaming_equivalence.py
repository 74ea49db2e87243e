"""The streaming engine must be bit-identical at every chunk size.

A rack run has three kernels — FCFS, keyed policies and control, the
last also serving fault/retry runs with an inert plane — and each runs
both ways: materialized, as one whole-trace chunk folded into a sink
that keeps every request, or streamed, as bounded chunks folded into
running telemetry at every chunk boundary.  The contract under test:

- for chunk sizes of a single request (every arrival is a chunk
  boundary), smaller than a busy period, a non-divisor of the trace
  length, and larger than the whole trace, the streamed result is
  bit-identical to the materialized run *and* the event-driven oracle:
  series, drop times and reasons, availability and scaling counters,
  quantile sketch, RNG end state, service-pool cursors;
- the per-chunk fold counts tick-visible events exactly like the
  whole-trace ``np.searchsorted`` reconstruction;
- a generator-backed :class:`StreamedTrace` source reproduces
  ``generate()`` exactly while the engine retains only bounded
  service-pool windows (the windowed-replay path);
- sketch percentiles track the exact order statistics within the
  sketch's documented ``relative_error_bound``;
- ``chunk_requests`` is validated, and streamed sources are rejected by
  materialized engines;
- the fleet runner streams per-rack: worker- and chunk-invariant, with
  merged sketches identical to the materialized stitch.
"""

import numpy as np
import pytest

from repro.cluster.control import (
    AutoscalerPolicy,
    ControlPlane,
    OverloadPolicy,
)
from repro.cluster.fast_engine import TickLog, sample_tick_times
from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.fleet import FleetTopology
from repro.cluster.fleet_engine import FleetRunner
from repro.cluster.schedulers import FCFSPolicy, PolicyFactory
from repro.cluster.simulation import RackSimulation, SeriesSink
from repro.cluster.streaming import StreamedSeries, _dispatch_streaming
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.errors import ConfigurationError
from repro.experiments.benchmarks import benchmark_suite
from repro.experiments.common import BASELINE_NAME, build_context
from repro.platforms.registry import baseline_cpu
from tests.conftest import assert_same_draws

# One request (a fold, watermark carry and pool compaction at every
# arrival) / smaller than a busy period / a non-divisor of the trace /
# larger than the whole trace: the chunk regimes the fold must not
# observe.
CHUNKS = (1, 7, 997, 10**6)

CHAOS_FAULTS = FaultSchedule(
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
CHAOS_RETRY = RetryPolicy(
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
def model():
    return ServerlessExecutionModel(platform=baseline_cpu())


def make_trace(suite, scale, seed):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(rate * scale for rate in (250, 800, 250)),
        segment_seconds=20.0,
    )
    return generator.generate(np.random.default_rng(seed))


def sjf_policy(model, suite):
    estimates = {
        name: float(
            np.mean(
                model.sample_latencies(app, np.random.default_rng(0), 64)
            )
        )
        for name, app in suite.items()
    }
    return PolicyFactory("sjf", service_estimates=estimates)


def family_kwargs(family, model, suite):
    """Simulation kwargs for one engine family (fresh policy objects)."""
    if family == "fcfs":
        return dict(max_instances=4, queue_depth=30, seed=1)
    if family == "keyed-sjf":
        return dict(
            max_instances=4,
            queue_depth=30,
            seed=1,
            policy=sjf_policy(model, suite),
        )
    if family == "chaos-fcfs":
        return dict(
            max_instances=4,
            queue_depth=30,
            seed=1,
            faults=CHAOS_FAULTS,
            retry=CHAOS_RETRY,
        )
    if family == "chaos-sjf":
        return dict(
            max_instances=4,
            queue_depth=30,
            seed=1,
            policy=sjf_policy(model, suite),
            faults=CHAOS_FAULTS,
            retry=CHAOS_RETRY,
        )
    if family == "control-sjf":
        return dict(
            max_instances=8,
            queue_depth=30,
            seed=1,
            policy=sjf_policy(model, suite),
            control=ControlPlane(
                autoscaler=AutoscalerPolicy(
                    policy="queue_depth",
                    min_instances=4,
                    warmup_seconds=1.0,
                ),
                overload=OverloadPolicy(
                    admission_rate_rps=9.0, admission_burst_seconds=1.0
                ),
            ),
        )
    if family == "control-chaos-dag":
        return dict(
            max_instances=8,
            queue_depth=30,
            seed=2,
            policy=PolicyFactory("dag", applications=suite),
            faults=CHAOS_FAULTS,
            retry=CHAOS_RETRY,
            control=ControlPlane(
                autoscaler=AutoscalerPolicy(
                    policy="target_utilization",
                    min_instances=4,
                    scale_down_cooldown_seconds=5.0,
                    warmup_seconds=2.5,
                ),
            ),
        )
    raise AssertionError(family)


FAMILIES = (
    "fcfs",
    "keyed-sjf",
    "chaos-fcfs",
    "chaos-sjf",
    "control-sjf",
    "control-chaos-dag",
)


def run_streamed(model, suite, trace, chunk, **kwargs):
    simulation = RackSimulation(model, suite, **kwargs)
    series = simulation.run(
        trace, engine="streaming", chunk_requests=chunk
    )
    return simulation, series


# ----------------------------------------------------------------------
# Chunk-size invariance against both materialized engines.


@pytest.mark.parametrize("family", FAMILIES)
def test_chunk_invariant_vs_materialized_and_oracle(family, model, suite):
    """Every chunk regime reproduces the vectorized engine and the
    event oracle bit for bit — including RNG end state and service-pool
    cursors, so a longer simulation would stay on the same stream."""
    trace = make_trace(suite, 0.05, 1)
    references = {}
    for engine in ("vectorized", "event"):
        simulation = RackSimulation(
            model, suite, **family_kwargs(family, model, suite)
        )
        series = simulation.run(trace, engine=engine)
        references[engine] = (
            simulation,
            StreamedSeries.from_series(series),
        )
    for chunk in CHUNKS:
        streamed_sim, streamed = run_streamed(
            model,
            suite,
            trace,
            chunk,
            **family_kwargs(family, model, suite),
        )
        for engine, (ref_sim, reference) in references.items():
            assert streamed.identical_to(reference), (family, chunk, engine)
            assert_same_draws(streamed_sim, ref_sim)


@pytest.mark.parametrize("family", FAMILIES)
def test_chunked_fold_keeps_request_order(family, model, suite):
    """Folding chunk by chunk into the materialized run's retaining sink
    reproduces its per-request arrays exactly — completions in canonical
    (completion, start) order, drops in event order — so no chunk
    boundary reorders what a streamed run folds."""
    trace = make_trace(suite, 0.05, 1)
    reference = RackSimulation(
        model, suite, **family_kwargs(family, model, suite)
    ).run(trace, engine="vectorized")
    for chunk in CHUNKS:
        simulation = RackSimulation(
            model, suite, **family_kwargs(family, model, suite)
        )
        factory = simulation._policy_factory
        policy = factory.build() if factory is not None else FCFSPolicy()
        chunked = _dispatch_streaming(
            simulation, policy, trace, SeriesSink(trace, 1.0), chunk
        )
        assert chunked.identical_to(reference), (family, chunk)
        assert np.array_equal(
            chunked.completed_app_ids, reference.completed_app_ids
        ), (family, chunk)


# ----------------------------------------------------------------------
# The per-chunk tick fold.


def tick_events():
    """Ascending events before, at, between and after ten unit ticks."""
    ticks = sample_tick_times(10.0, 1.0)
    between = np.random.default_rng(3).uniform(0.0, 12.0, 40)
    return ticks, np.sort(
        np.concatenate([[0.0, 0.5], ticks, ticks[:4], between, [11.5]])
    )


@pytest.mark.parametrize("inclusive", (True, False))
def test_tick_log_matches_searchsorted_reconstruction(inclusive):
    """Scalars and ascending parts, counted over several flushes (one
    of them empty), give each tick exactly the count a searchsorted
    over the whole log gives it: equal-time events are seen when
    inclusive and not otherwise."""
    ticks, events = tick_events()
    log = TickLog(ticks, inclusive)
    log.count()  # nothing logged yet
    pieces = np.split(events, [2, 3, 9, 10, 30, 31, 50])
    for k, piece in enumerate(pieces):
        if k % 2:
            for t in piece.tolist():
                log.append(t)
        else:
            log.extend(piece)
        if k % 3 == 1:
            log.count()
    log.count()
    side = "right" if inclusive else "left"
    assert np.array_equal(
        log.series(), np.searchsorted(events, ticks, side=side)
    )


@pytest.mark.parametrize("inclusive", (True, False))
def test_tick_log_flush_granularity_is_invisible(inclusive):
    """Counting after every event, or once at the end, gives the same
    series; with no ticks the series is empty."""
    ticks, events = tick_events()
    per_event = TickLog(ticks, inclusive)
    at_end = TickLog(ticks, inclusive)
    for t in events.tolist():
        per_event.append(t)
        per_event.count()
        at_end.append(t)
    at_end.count()
    side = "right" if inclusive else "left"
    expected = np.searchsorted(events, ticks, side=side)
    assert np.array_equal(per_event.series(), expected)
    assert np.array_equal(at_end.series(), expected)
    no_ticks = TickLog(np.empty(0), inclusive)
    no_ticks.extend(events)
    no_ticks.count()
    assert len(no_ticks.series()) == 0


# ----------------------------------------------------------------------
# Generator-backed sources: identity plus bounded pool windows.


def test_streamed_trace_source_reproduces_generate(model, suite):
    """``generator.stream(rng)`` fed straight into the streaming engine
    matches generating the full trace first, and leaves the trace RNG in
    the ``generate()`` end state."""
    generator = TraceGenerator(
        list(suite), rate_envelope=(10, 40, 10), segment_seconds=20.0
    )
    trace = generator.generate(np.random.default_rng(5))
    materialized_sim = RackSimulation(
        model, suite, max_instances=4, queue_depth=30, seed=3
    )
    reference = StreamedSeries.from_series(
        materialized_sim.run(trace, engine="vectorized")
    )

    stream_rng = np.random.default_rng(5)
    streamed_sim = RackSimulation(
        model, suite, max_instances=4, queue_depth=30, seed=3
    )
    streamed = streamed_sim.run(
        generator.stream(stream_rng), engine="streaming", chunk_requests=123
    )
    assert streamed.identical_to(reference)
    assert_same_draws(streamed_sim, materialized_sim)
    generate_rng = np.random.default_rng(5)
    generator.generate(generate_rng)
    assert repr(stream_rng.bit_generator.state) == repr(
        generate_rng.bit_generator.state
    )


@pytest.mark.parametrize("chunk", (512, 8192))
@pytest.mark.parametrize(
    "family", ("fcfs", "keyed-sjf", "chaos-sjf", "control-sjf")
)
def test_windowed_pools_stay_on_stream(family, chunk, model, suite):
    """Past the service-pool window, streamed sources re-materialize
    pending draw blocks by replaying a cloned bit generator: the series,
    live RNG, cursors, and the retained pool tail must all match the
    unwindowed materialized run."""
    names = list(suite)[:2]
    apps = {name: suite[name] for name in names}

    def make_kwargs():
        # Enough servable load that each app consumes ~10k service draws
        # — several growth blocks past the 4096-sample replay window.
        kwargs = family_kwargs(family, model, apps)
        kwargs.update(max_instances=64, queue_depth=2000, seed=3)
        if family == "control-sjf":
            kwargs["control"] = ControlPlane(
                autoscaler=AutoscalerPolicy(
                    policy="queue_depth",
                    min_instances=8,
                    warmup_seconds=1.0,
                )
            )
        return kwargs

    def generator():
        return TraceGenerator(
            names, rate_envelope=(300.0, 900.0, 300.0), segment_seconds=20.0
        )

    materialized_sim = RackSimulation(model, apps, **make_kwargs())
    reference = StreamedSeries.from_series(
        materialized_sim.run(
            generator().generate(np.random.default_rng(5)),
            engine="vectorized",
        )
    )
    streamed_sim = RackSimulation(model, apps, **make_kwargs())
    streamed = streamed_sim.run(
        generator().stream(np.random.default_rng(5)),
        engine="streaming",
        chunk_requests=chunk,
    )
    assert streamed.identical_to(reference), (family, chunk)
    # ~15k draws per app crosses several growth blocks: compaction must
    # have trimmed consumed samples, and what physically remains must be
    # the tail of the materialized pool at the same logical offsets.
    assert any(streamed_sim.pools.retained(name)[0] > 0 for name in names)
    assert_same_draws(streamed_sim, materialized_sim)


# ----------------------------------------------------------------------
# Sketch accuracy against exact order statistics.


def test_sketch_percentiles_within_documented_bound(model, suite):
    trace = make_trace(suite, 0.05, 1)
    materialized = RackSimulation(
        model, suite, max_instances=4, queue_depth=30, seed=1
    ).run(trace, engine="vectorized")
    _, streamed = run_streamed(
        model, suite, trace, 997, max_instances=4, queue_depth=30, seed=1
    )
    latencies = materialized.completed_latency_seconds
    bound = streamed.sketch.relative_error_bound
    for q in (50.0, 90.0, 95.0, 99.0, 99.9):
        exact = float(np.percentile(latencies, q, method="lower"))
        estimate = streamed.latency_percentile(q)
        assert abs(estimate - exact) <= bound * exact, q


# ----------------------------------------------------------------------
# Validation.


def test_chunk_requests_validation(model, suite):
    trace = make_trace(suite, 0.01, 1)
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ConfigurationError):
            RackSimulation(model, suite, seed=1).run(
                trace, engine="streaming", chunk_requests=bad
            )
    with pytest.raises(ConfigurationError):
        RackSimulation(model, suite, seed=1).run(
            trace, engine="vectorized", chunk_requests=4
        )


def test_streamed_source_gating(model, suite):
    generator = TraceGenerator(
        list(suite), rate_envelope=(10, 40, 10), segment_seconds=20.0
    )
    source = generator.stream(np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        RackSimulation(model, suite, seed=1).run(
            source, engine="vectorized"
        )
    # a consumed stream cannot be run twice
    consumed = generator.stream(np.random.default_rng(1))
    RackSimulation(model, suite, seed=1).run(
        consumed, engine="streaming", chunk_requests=64
    )
    with pytest.raises(ConfigurationError):
        RackSimulation(model, suite, seed=1).run(
            consumed, engine="streaming", chunk_requests=64
        )


def test_unsorted_trace_rejected(model, suite):
    name = list(suite)[0]
    bad = RequestTrace(np.array([2.0, 1.0]), (name, name), 40.0)
    with pytest.raises(ConfigurationError):
        RackSimulation(model, suite, seed=1).run(
            bad, engine="streaming", chunk_requests=8
        )


# ----------------------------------------------------------------------
# Fleet: streamed racks stitch identically.


def test_fleet_streaming_worker_and_chunk_invariant():
    """Streaming racks are worker- and chunk-invariant (bit-identical
    fleet stitch), and agree with the materialized stitch on every
    cross-engine comparable: request accounting, drop breakdowns, and
    the merged quantile sketch accumulators.  (The per-rack check hashes
    deliberately cover different projections — the streaming hash folds
    telemetry the engine never materializes as vectors — so the two
    engine families are compared on shared aggregates, not hashes.)"""
    context = build_context(platform_names=[BASELINE_NAME])
    envelope = tuple(
        rate * 0.04
        for rate in (250, 320, 420, 560, 700, 800, 780, 650, 520, 430)
    )
    generator = TraceGenerator(
        context.app_names, rate_envelope=envelope, segment_seconds=30.0
    )
    trace = generator.generate(np.random.default_rng(13))
    topology = FleetTopology.uniform(
        4, BASELINE_NAME, max_instances=8, seed=13
    )
    materialized = FleetRunner(context, engine="vectorized").run(
        topology, trace, workers=1
    )
    serial = FleetRunner(
        context, engine="streaming", chunk_requests=997
    ).run(topology, trace, workers=1)
    sharded = FleetRunner(
        context, engine="streaming", chunk_requests=64
    ).run(topology, trace, workers=4)

    assert serial.identical_to(sharded)
    assert serial.fleet_hash == sharded.fleet_hash
    assert serial.merged_sketch.identical_to(sharded.merged_sketch)
    for a, b in zip(serial.racks, sharded.racks):
        assert a.check_hash == b.check_hash

    assert serial.merged_sketch.identical_to(materialized.merged_sketch)
    assert serial.total_requests == materialized.total_requests
    assert serial.completed == materialized.completed
    assert serial.dropped == materialized.dropped
    assert serial.drop_breakdown() == materialized.drop_breakdown()
    for streamed_rack, rack in zip(serial.racks, materialized.racks):
        assert streamed_rack.name == rack.name
        assert streamed_rack.seed == rack.seed
        assert streamed_rack.requests == rack.requests
        assert streamed_rack.completed == rack.completed
        assert streamed_rack.dropped == rack.dropped
        assert streamed_rack.drop_breakdown == rack.drop_breakdown
        assert streamed_rack.sketch.identical_to(rack.sketch)


def test_fleet_streaming_rejects_materialized_only_modes():
    context = build_context(platform_names=[BASELINE_NAME])
    with pytest.raises(ConfigurationError):
        FleetRunner(context, engine="streaming", keep_latencies=True)
    with pytest.raises(ConfigurationError):
        FleetRunner(context, engine="vectorized", chunk_requests=8)

"""Trace generation and the rack-scale discrete-event simulation."""

import numpy as np
import pytest

from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.errors import ConfigurationError
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu, dscs_dsa


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


def small_trace(suite, scale=0.02, seed=1):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(r * scale for r in (250, 800, 250)),
        segment_seconds=20.0,
    )
    return generator.generate(np.random.default_rng(seed))


class TestTrace:
    def test_arrivals_sorted_and_within_duration(self, suite):
        trace = small_trace(suite)
        assert np.all(np.diff(trace.arrival_seconds) >= 0)
        assert trace.arrival_seconds.max() <= trace.duration_seconds

    def test_apps_drawn_from_suite(self, suite):
        trace = small_trace(suite)
        assert set(trace.app_names) <= set(suite)

    def test_poisson_counts_track_envelope(self, suite):
        generator = TraceGenerator(
            list(suite), rate_envelope=(100.0, 400.0), segment_seconds=30.0
        )
        trace = generator.generate(np.random.default_rng(0))
        first = np.sum(trace.arrival_seconds < 30.0)
        second = np.sum(trace.arrival_seconds >= 30.0)
        assert second > 2 * first

    def test_requests_per_second_series(self, suite):
        trace = small_trace(suite)
        rps = trace.requests_per_second(1.0)
        assert len(rps) == int(trace.duration_seconds)
        assert rps.sum() == pytest.approx(len(trace))

    def test_deterministic_for_seed(self, suite):
        a = small_trace(suite, seed=5)
        b = small_trace(suite, seed=5)
        assert np.array_equal(a.arrival_seconds, b.arrival_seconds)
        assert a.app_names == b.app_names

    def test_empty_envelope_rejected(self, suite):
        with pytest.raises(ConfigurationError):
            TraceGenerator(list(suite), rate_envelope=())

    def test_negative_rate_rejected(self, suite):
        with pytest.raises(ConfigurationError):
            TraceGenerator(list(suite), rate_envelope=(-1.0,))

    def test_zero_rate_segment_produces_silent_gap(self, suite):
        generator = TraceGenerator(
            list(suite), rate_envelope=(20.0, 0.0, 20.0), segment_seconds=20.0
        )
        trace = generator.generate(np.random.default_rng(4))
        assert len(trace) > 0
        in_gap = (trace.arrival_seconds >= 20.0) & (trace.arrival_seconds < 40.0)
        assert int(np.sum(in_gap)) == 0
        # The silent segment still counts toward the trace duration.
        assert trace.duration_seconds == pytest.approx(60.0)
        assert trace.requests_per_second(20.0)[1] == 0.0

    def test_all_zero_envelope_yields_empty_trace(self, suite):
        generator = TraceGenerator(
            list(suite), rate_envelope=(0.0, 0.0), segment_seconds=20.0
        )
        trace = generator.generate(np.random.default_rng(4))
        assert len(trace) == 0
        assert trace.duration_seconds == pytest.approx(40.0)
        rps = trace.requests_per_second(20.0)
        assert np.array_equal(rps, np.zeros(2))

    def test_single_app_trace_assigns_everything_to_it(self, suite):
        only = next(iter(suite))
        generator = TraceGenerator(
            [only], rate_envelope=(15.0,), segment_seconds=20.0
        )
        trace = generator.generate(np.random.default_rng(4))
        assert len(trace) > 0
        assert set(trace.app_names) == {only}

    def test_requests_per_second_nondivisor_bucket(self, suite):
        trace = small_trace(suite)  # 60 s trace
        rps = trace.requests_per_second(7.0)
        # ceil(60 / 7) buckets, each exactly 7 s wide (the ninth runs
        # past the trace end), so rate x width recovers every arrival.
        assert len(rps) == 9
        assert np.sum(rps) * 7.0 == pytest.approx(len(trace))

    def test_requests_per_second_divisor_bucket_unchanged(self, suite):
        trace = small_trace(suite)
        rps = trace.requests_per_second(20.0)
        assert len(rps) == 3
        assert np.sum(rps) * 20.0 == pytest.approx(len(trace))


class TestRackSimulation:
    def test_all_requests_complete_with_headroom(self, suite):
        model = ServerlessExecutionModel(platform=dscs_dsa())
        sim = RackSimulation(model, suite, max_instances=50)
        trace = small_trace(suite)
        series = sim.run(trace)
        assert len(series.completed_latency_seconds) == len(trace)
        assert series.dropped_requests == 0

    def test_saturation_builds_queue(self, suite):
        model = ServerlessExecutionModel(platform=baseline_cpu())
        sim = RackSimulation(model, suite, max_instances=2)
        trace = small_trace(suite)
        series = sim.run(trace)
        assert series.queue_depth.max() > 0
        # Queueing inflates latency beyond pure service time.
        assert series.mean_latency_seconds > 0.2

    def test_queue_depth_bounded_and_drops_counted(self, suite):
        model = ServerlessExecutionModel(platform=baseline_cpu())
        sim = RackSimulation(model, suite, max_instances=1, queue_depth=5)
        trace = small_trace(suite)
        series = sim.run(trace)
        assert series.queue_depth.max() <= 5
        assert series.dropped_requests > 0
        completed_plus_dropped = (
            len(series.completed_latency_seconds) + series.dropped_requests
        )
        assert completed_plus_dropped == len(trace)

    def test_dscs_outperforms_baseline_at_scale(self, suite):
        trace = small_trace(suite, scale=0.05)
        base_series = RackSimulation(
            ServerlessExecutionModel(platform=baseline_cpu()), suite, max_instances=10
        ).run(trace)
        dscs_series = RackSimulation(
            ServerlessExecutionModel(platform=dscs_dsa()), suite, max_instances=10
        ).run(trace)
        assert dscs_series.mean_latency_seconds < base_series.mean_latency_seconds
        assert dscs_series.queue_depth.max() <= base_series.queue_depth.max()

    def test_latency_buckets(self, suite):
        model = ServerlessExecutionModel(platform=dscs_dsa())
        sim = RackSimulation(model, suite, max_instances=50)
        series = sim.run(small_trace(suite))
        buckets = series.mean_latency_per_bucket(20.0)
        assert len(buckets) >= 3

    def test_busy_never_exceeds_instances(self, suite):
        model = ServerlessExecutionModel(platform=baseline_cpu())
        sim = RackSimulation(model, suite, max_instances=4)
        series = sim.run(small_trace(suite))
        assert series.busy_instances.max() <= 4

    def test_invalid_configs_rejected(self, suite):
        model = ServerlessExecutionModel(platform=baseline_cpu())
        with pytest.raises(ConfigurationError):
            RackSimulation(model, suite, max_instances=0)
        with pytest.raises(ConfigurationError):
            RackSimulation(model, suite, queue_depth=0)


class TestServiceSamplePool:
    def test_pool_grows_instead_of_wrapping(self, suite):
        from repro.cluster.service_pools import _PRESAMPLE_COUNT

        model = ServerlessExecutionModel(platform=dscs_dsa())
        sim = RackSimulation(model, suite, max_instances=4)
        app_name = next(iter(suite))
        draws = [sim.pools.draw(app_name) for _ in range(_PRESAMPLE_COUNT + 10)]
        _, pool, length = sim.pools.retained(app_name)
        # Exhausting the initial pool doubled it rather than cycling.
        assert len(pool) == length == 2 * _PRESAMPLE_COUNT
        # The overflow draws must come from fresh samples, not a replay of
        # the first ten (a wrap would correlate long traces).
        assert draws[_PRESAMPLE_COUNT:] != draws[:10]

    def test_draws_are_sequential_prefix_of_pool(self, suite):
        model = ServerlessExecutionModel(platform=dscs_dsa())
        sim = RackSimulation(model, suite, max_instances=4)
        app_name = next(iter(suite))
        draws = [sim.pools.draw(app_name) for _ in range(100)]
        _, pool, _ = sim.pools.retained(app_name)
        assert draws == [float(x) for x in pool[:100]]


class TestTraceValidation:
    """Malformed rates and durations fail loudly at construction —
    before they can poison tick grids or Poisson draws downstream."""

    @pytest.mark.parametrize(
        "envelope",
        [
            (100.0, -5.0, 100.0),
            (100.0, float("nan"), 100.0),
            (float("inf"), 100.0),
        ],
    )
    def test_negative_or_non_finite_rate_rejected(self, suite, envelope):
        with pytest.raises(ConfigurationError, match="rate"):
            TraceGenerator(list(suite), rate_envelope=envelope)

    def test_zero_rate_segment_is_legal(self, suite):
        generator = TraceGenerator(
            list(suite), rate_envelope=(0.0, 5.0), segment_seconds=10.0
        )
        trace = generator.generate(np.random.default_rng(0))
        assert np.all(trace.arrival_seconds >= 10.0)

    @pytest.mark.parametrize(
        "segment", [0.0, -30.0, float("nan"), float("inf")]
    )
    def test_invalid_segment_rejected(self, suite, segment):
        with pytest.raises(ConfigurationError, match="segment"):
            TraceGenerator(
                list(suite), rate_envelope=(5.0,), segment_seconds=segment
            )

    @pytest.mark.parametrize("duration", [float("nan"), -1.0])
    def test_invalid_trace_duration_rejected(self, duration):
        from repro.cluster.trace import RequestTrace

        with pytest.raises(ConfigurationError, match="duration"):
            RequestTrace(
                arrival_seconds=np.array([0.5]),
                app_names=("f",),
                duration_seconds=duration,
            )

    def test_mismatched_lengths_rejected(self):
        from repro.cluster.trace import RequestTrace

        with pytest.raises(ConfigurationError):
            RequestTrace(
                arrival_seconds=np.array([0.5, 1.0]),
                app_names=("f",),
                duration_seconds=10.0,
            )


class TestAvailabilityEdgeCases:
    """An empty trace (or bucket) has nothing to account for, so
    availability is undefined rather than perfect: NaN, never 1.0."""

    def test_empty_trace_availability_is_nan(self, suite):
        from repro.cluster.trace import RequestTrace

        model = ServerlessExecutionModel(platform=baseline_cpu())
        trace = RequestTrace(
            arrival_seconds=np.array([]),
            app_names=(),
            duration_seconds=10.0,
        )
        series = RackSimulation(model, suite, max_instances=4).run(trace)
        assert series.total_requests == 0
        assert np.isnan(series.availability)

    def test_zero_request_series_availability_is_nan(self):
        from repro.cluster.simulation import SimulationSeries

        series = SimulationSeries(
            sample_times=np.array([]),
            queue_depth=np.array([], dtype=np.int64),
            busy_instances=np.array([], dtype=np.int64),
            completed_latency_seconds=np.array([]),
            completed_times=np.array([]),
            dropped_requests=0,
            total_requests=0,
        )
        assert np.isnan(series.availability)

    def test_nonempty_series_availability_is_a_fraction(self, suite):
        model = ServerlessExecutionModel(platform=baseline_cpu())
        series = RackSimulation(model, suite, max_instances=4).run(
            small_trace(suite)
        )
        assert 0.0 < series.availability <= 1.0

    def test_buckets_without_terminations_are_nan(self):
        from repro.cluster.simulation import SimulationSeries

        series = SimulationSeries(
            sample_times=np.arange(0.0, 200.0),
            queue_depth=np.zeros(200, dtype=np.int64),
            busy_instances=np.zeros(200, dtype=np.int64),
            completed_latency_seconds=np.array([0.2]),
            completed_times=np.array([10.0]),
            dropped_requests=0,
            total_requests=1,
        )
        per_bucket = series.availability_per_bucket(60.0)
        assert len(per_bucket) == 4
        assert per_bucket[0] == pytest.approx(1.0)
        # No request completed or dropped in the later buckets: their
        # availability is undefined, not a silent 100%.
        assert np.all(np.isnan(per_bucket[1:]))

    def test_empty_series_per_bucket_is_empty(self):
        from repro.cluster.simulation import SimulationSeries

        series = SimulationSeries(
            sample_times=np.array([]),
            queue_depth=np.array([], dtype=np.int64),
            busy_instances=np.array([], dtype=np.int64),
            completed_latency_seconds=np.array([]),
            completed_times=np.array([]),
            dropped_requests=0,
            total_requests=0,
        )
        assert len(series.availability_per_bucket(60.0)) == 0

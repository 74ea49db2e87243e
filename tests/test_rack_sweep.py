"""The rack scenario sweep harness and its per-figure wirings."""

import numpy as np
import pytest

from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.simulation import RackSimulation, ServiceSampleCache
from repro.cluster.sweep import RackScenario, RackSweep, scenario_grid
from repro.errors import ConfigurationError
from repro.experiments import fig13, fig15, fig16, fig17
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

# A 60-second three-segment envelope at low rate: a few hundred requests,
# enough to queue a 2-4 instance fleet without slowing the test suite.
SMALL_ENVELOPE = (6.0, 18.0, 6.0)
SEGMENT_SECONDS = 20.0


@pytest.fixture(scope="module")
def context():
    return build_context(platform_names=[BASELINE_NAME, DSCS_NAME])


@pytest.fixture(scope="module")
def harness(context):
    return RackSweep(
        context,
        rate_envelope=SMALL_ENVELOPE,
        segment_seconds=SEGMENT_SECONDS,
    )


class TestScenarioGrid:
    def test_full_cross_product(self):
        grid = scenario_grid(
            platforms=("a", "b"),
            rate_scales=(0.5, 1.0),
            max_instances=(2, 4),
            policies=("fcfs", "sjf"),
        )
        assert len(grid) == 16
        assert len(set(grid)) == 16  # scenarios are hashable and distinct

    def test_labels_mention_knobs(self):
        scenario = RackScenario(
            platform="p", rate_scale=2.0, max_instances=7, cold=True
        )
        label = scenario.label()
        assert "p" in label and "x2" in label and "7 inst" in label
        assert "cold" in label

    @pytest.mark.parametrize(
        "knobs",
        ({"max_instances": 0}, {"queue_depth": 0}, {"policy": "lottery"}),
    )
    def test_bad_knobs_rejected_at_construction(self, knobs):
        with pytest.raises(ConfigurationError):
            RackScenario(platform="p", **knobs)

    def test_chaos_knobs_thread_through_grid(self):
        faults = FaultSchedule(instance_mtbf_seconds=60.0)
        retry = RetryPolicy(max_retries=1)
        grid = scenario_grid(
            platforms=("a", "b"),
            max_instances=(2,),
            faults=faults,
            retry=retry,
        )
        assert len(set(grid)) == 2  # still hashable with chaos fields
        for scenario in grid:
            assert scenario.faults is faults
            assert scenario.retry is retry
            assert "faults" in scenario.label()
            assert "retry" in scenario.label()
        # Inert objects do not pollute the label.
        quiet = RackScenario(
            platform="a", faults=FaultSchedule(), retry=RetryPolicy()
        )
        assert "faults" not in quiet.label()
        assert "retry" not in quiet.label()


class TestRackSweep:
    def test_trace_reused_across_cells(self, harness):
        first = harness.trace_for(seed=3, rate_scale=1.0)
        again = harness.trace_for(seed=3, rate_scale=1.0)
        assert first is again
        other = harness.trace_for(seed=3, rate_scale=2.0)
        assert other is not first

    def test_cells_match_standalone_runs(self, context, harness):
        grid = scenario_grid(
            platforms=(BASELINE_NAME,),
            rate_scales=(1.0,),
            max_instances=(2, 4),
            seed=3,
        )
        results = harness.run(grid)
        for result in results:
            scenario = result.scenario
            standalone = RackSimulation(
                context.models[scenario.platform],
                context.applications,
                max_instances=scenario.max_instances,
                queue_depth=scenario.queue_depth,
                seed=scenario.seed,
            ).run(harness.trace_for(scenario.seed, scenario.rate_scale))
            assert result.series.identical_to(standalone)

    def test_sample_cache_hits_across_cells(self, context):
        sweep = RackSweep(
            context,
            rate_envelope=SMALL_ENVELOPE,
            segment_seconds=SEGMENT_SECONDS,
        )
        grid = scenario_grid(
            platforms=(DSCS_NAME,),
            rate_scales=(1.0,),
            max_instances=(2, 4, 8),
            seed=3,
        )
        sweep.run(grid)
        cache = sweep._caches[DSCS_NAME]
        assert cache.hits > 0  # later cells replayed earlier cells' draws

    def test_policy_grid_builds_factories(self, harness):
        grid = scenario_grid(
            platforms=(BASELINE_NAME,),
            max_instances=(2,),
            policies=("fcfs", "sjf", "criticality", "dag"),
            seed=3,
        )
        results = harness.run(grid)
        assert len(results) == 4
        total = results[0].series.total_requests
        for result in results:
            assert result.series.total_requests == total
            assert (
                len(result.series.completed_latency_seconds)
                + result.series.dropped_requests
                == total
            )

    def test_unknown_platform_rejected(self, harness):
        with pytest.raises(ConfigurationError):
            harness.run_one(RackScenario(platform="warp-drive"))

    def test_unknown_policy_rejected(self, harness):
        with pytest.raises(ConfigurationError):
            harness.run_one(
                RackScenario(platform=BASELINE_NAME, policy="lottery")
            )

    def test_summary_fields(self, harness):
        result = harness.run_one(
            RackScenario(platform=BASELINE_NAME, max_instances=2, seed=3)
        )
        summary = result.summary()
        assert summary["requests"] == result.series.total_requests
        assert summary["p95_latency_s"] >= summary["mean_latency_s"] * 0.1
        assert summary["peak_queue"] == result.peak_queue_depth
        # Availability telemetry is always present (zeros when fault
        # free) so sweep tables stay rectangular across mixed grids.
        assert summary["availability"] == 1.0 or summary["dropped"] > 0
        assert summary["dropped_queue_full"] == summary["dropped"]
        assert summary["dropped_timeout"] == 0
        assert summary["dropped_crashed"] == 0
        assert summary["retries"] == 0

    def test_chaos_cells_match_standalone_runs(self, context, harness):
        faults = FaultSchedule(
            instance_mtbf_seconds=90.0,
            instance_mttr_seconds=15.0,
            seed=21,
        )
        retry = RetryPolicy(timeout_seconds=3.0, max_retries=2)
        grid = scenario_grid(
            platforms=(BASELINE_NAME,),
            max_instances=(2, 4),
            seed=3,
            faults=faults,
            retry=retry,
        )
        results = harness.run(grid)
        assert any(r.series.retries > 0 for r in results)
        for result in results:
            scenario = result.scenario
            standalone = RackSimulation(
                context.models[scenario.platform],
                context.applications,
                max_instances=scenario.max_instances,
                queue_depth=scenario.queue_depth,
                seed=scenario.seed,
                faults=faults,
                retry=retry,
            ).run(harness.trace_for(scenario.seed, scenario.rate_scale))
            assert result.series.identical_to(standalone)
            row = result.as_row()
            assert (
                row["dropped_queue_full"]
                + row["dropped_timeout"]
                + row["dropped_crashed"]
                == row["dropped"]
            )

    def test_sample_cache_is_bit_exact_under_chaos(self, context):
        """Cached and uncached chaos sweeps agree bit for bit: the
        replayed blocks cover retry and hedge re-draws too."""
        faults = FaultSchedule(
            instance_mtbf_seconds=60.0,
            instance_mttr_seconds=10.0,
            slowdown_rate_per_minute=2.0,
            seed=8,
        )
        retry = RetryPolicy(
            timeout_seconds=2.0,
            max_retries=2,
            backoff_base_seconds=0.2,
            hedge_after_seconds=0.3,
        )
        grid = scenario_grid(
            platforms=(BASELINE_NAME,),
            max_instances=(2, 3, 4),
            policies=("fcfs", "sjf"),
            seed=3,
            faults=faults,
            retry=retry,
        )

        def run(reuse):
            sweep = RackSweep(
                context,
                rate_envelope=SMALL_ENVELOPE,
                segment_seconds=SEGMENT_SECONDS,
                reuse_service_samples=reuse,
            )
            return sweep, sweep.run(grid)

        cached_sweep, cached = run(True)
        _, uncached = run(False)
        assert any(r.series.retries > 0 for r in cached)
        for a, b in zip(cached, uncached):
            assert a.series.identical_to(b.series)
        assert cached_sweep._caches[BASELINE_NAME].hits > 0


class TestServiceSampleCache:
    def test_replay_is_bit_exact(self, context):
        model = context.models[DSCS_NAME]
        app = next(iter(context.applications.values()))
        cache = ServiceSampleCache()
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        first = cache.draw(model, app, rng_a, 64)
        replay = cache.draw(model, app, rng_b, 64)
        assert cache.hits == 1 and cache.misses == 1
        assert np.array_equal(first, replay)
        # The replayed RNG advanced exactly like the sampled one.
        assert repr(rng_a.bit_generator.state) == repr(
            rng_b.bit_generator.state
        )

    def test_cold_draws_keyed_separately(self, context):
        model = context.models[DSCS_NAME]
        app = next(iter(context.applications.values()))
        cache = ServiceSampleCache()
        warm = cache.draw(model, app, np.random.default_rng(5), 64)
        cold = cache.draw(model, app, np.random.default_rng(5), 64, cold=True)
        assert cache.misses == 2
        assert cold.mean() > warm.mean()  # cold starts dominate latency


class TestFigureWirings:
    def test_fig13_sweep_grid(self, context):
        results = fig13.sweep(
            rate_scales=(0.01,),
            max_instances=(4, 8),
            context=context,
            seed=5,
        )
        assert len(results) == 4  # 2 platforms x 2 fleet sizes
        by_cell = {
            (r.scenario.platform, r.scenario.max_instances): r
            for r in results
        }
        # More instances never hurts mean latency on the same trace.
        for platform in (BASELINE_NAME, DSCS_NAME):
            assert (
                by_cell[(platform, 8)].mean_latency_seconds
                <= by_cell[(platform, 4)].mean_latency_seconds + 1e-12
            )

    def test_fig15_rack_tail_study(self):
        study = fig15.run_rack(
            tail_ratios=(1.5, 3.0),
            percentiles=(50.0, 99.0),
            rate_scale=0.01,
            max_instances=8,
            seed=5,
        )
        for key, speedup in study.speedups.items():
            assert speedup > 1.0, key
        # DSCS's advantage grows toward the tail (paper Fig. 15 shape).
        assert study.at(3.0, 99.0) > study.at(3.0, 50.0)

    def test_fig16_rack_depth_scaling(self, context):
        study = fig16.run_rack(
            extras=(0, 2),
            rate_scale=0.01,
            max_instances=8,
            seed=5,
            context=context,
        )
        # Deeper accelerated pipelines widen the gap (paper Fig. 16).
        assert study.speedup(2) > study.speedup(0) > 1.0

    def test_fig17_rack_cold_start(self, context):
        study = fig17.run_rack(
            rate_scale=0.005, max_instances=64, seed=5, context=context
        )
        assert study.warm_speedup > 1.0
        assert study.cold_speedup > 1.0
        # With queueing headroom the rack study reduces to the paper's
        # per-invocation comparison: cold starts erode the advantage.
        assert study.cold_penalty > 1.0


class TestEmptyScenarioStats:
    """A scenario that completes nothing reports NaN, not a fake 0.0."""

    @pytest.fixture()
    def empty_result(self):
        from repro.cluster.simulation import SimulationSeries
        from repro.cluster.sweep import ScenarioResult

        series = SimulationSeries(
            sample_times=np.array([0.0, 1.0]),
            queue_depth=np.zeros(2, dtype=np.int64),
            busy_instances=np.zeros(2, dtype=np.int64),
            completed_latency_seconds=np.array([], dtype=np.float64),
            completed_times=np.array([], dtype=np.float64),
            dropped_requests=5,
            total_requests=5,
        )
        scenario = RackScenario(platform=BASELINE_NAME, queue_depth=1)
        return ScenarioResult(scenario=scenario, series=series)

    def test_mean_latency_nan_when_all_dropped(self, empty_result):
        assert np.isnan(empty_result.mean_latency_seconds)

    def test_percentiles_nan_when_all_dropped(self, empty_result):
        assert np.isnan(empty_result.latency_percentile(50.0))
        assert np.isnan(empty_result.p95_latency_seconds)
        assert np.isnan(empty_result.p99_latency_seconds)

    def test_percentile_range_still_validated(self, empty_result):
        with pytest.raises(ConfigurationError):
            empty_result.latency_percentile(101.0)
        with pytest.raises(ConfigurationError):
            empty_result.latency_percentile(-0.1)

    def test_summary_rows_carry_nan(self, empty_result):
        for row in (empty_result.summary(), empty_result.as_row()):
            assert np.isnan(row["mean_latency_s"])
            assert np.isnan(row["p95_latency_s"])
            assert row["dropped"] == 5

    def test_populated_scenario_unaffected(self, context):
        sweep = RackSweep(
            context,
            rate_envelope=SMALL_ENVELOPE,
            segment_seconds=SEGMENT_SECONDS,
        )
        result = sweep.run_one(
            RackScenario(platform=BASELINE_NAME, max_instances=4)
        )
        assert result.mean_latency_seconds > 0.0
        assert result.p95_latency_seconds >= result.latency_percentile(50.0)

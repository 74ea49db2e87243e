"""The Fig. 13 experiment module at reduced scale."""

import numpy as np
import pytest

from repro.experiments import fig13
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context


@pytest.fixture(scope="module")
def study():
    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    # 1/40th of the paper's request rates against 1/40th of the fleet:
    # the same saturation regime, seconds instead of minutes to run.
    return fig13.run(max_instances=5, context=context, rate_scale=0.025)


def test_trace_matches_paper_duration(study):
    assert study.trace.duration_seconds == pytest.approx(20 * 60)


def test_all_requests_complete(study):
    assert (
        len(study.baseline.completed_latency_seconds)
        + study.baseline.dropped_requests
        == study.baseline.total_requests
    )
    assert len(study.dscs.completed_latency_seconds) == study.dscs.total_requests


def test_baseline_queues_dscs_does_not(study):
    assert study.baseline_peak_queue > 10
    assert study.dscs_peak_queue <= study.baseline_peak_queue / 5


def test_baseline_latency_climbs_under_burst(study):
    base = study.baseline.mean_latency_per_bucket(60.0)
    dscs = study.dscs.mean_latency_per_bucket(60.0)
    base_valid = base[~np.isnan(base)]
    dscs_valid = dscs[~np.isnan(dscs)]
    # The baseline's worst minute is far above its best; DSCS stays flat.
    assert base_valid.max() > 2 * base_valid.min()
    assert dscs_valid.max() < 1.5 * dscs_valid.min()


def test_dscs_mean_latency_much_lower(study):
    assert (
        study.dscs.mean_latency_seconds
        < study.baseline.mean_latency_seconds / 3
    )


def test_requests_per_second_series_shape(study):
    rps = study.trace.requests_per_second(60.0)
    assert len(rps) == 20  # one bucket per minute
    assert rps.max() > rps.min()


class TestPolicySweep:
    @pytest.fixture(scope="class")
    def context(self):
        return build_context(platform_names=[BASELINE_NAME, DSCS_NAME])

    def test_policy_grid_covers_all_policies(self, context):
        results = fig13.policy_sweep(
            rate_scales=(0.02,),
            max_instances=(3,),
            seed=5,
            context=context,
        )
        cells = {(r.scenario.platform, r.scenario.policy) for r in results}
        assert len(cells) == 8  # 2 platforms x 4 policies
        total = results[0].series.total_requests
        for result in results:
            assert result.series.total_requests == total

    def test_explicit_priorities_change_criticality_cells(self, context):
        target = sorted(context.applications)[-1]  # last alphabetically
        kwargs = dict(
            rate_scales=(0.02,),
            max_instances=(2,),
            policies=("criticality",),
            seed=5,
            context=context,
        )
        default = fig13.policy_sweep(**kwargs)
        boosted = fig13.policy_sweep(priorities=(f"{target}=0",), **kwargs)
        # Boosting the alphabetically-last app genuinely reorders the
        # congested queue relative to the alphabetical default ranking.
        assert not np.array_equal(
            default[0].series.completed_latency_seconds,
            boosted[0].series.completed_latency_seconds,
        )

    def test_bad_priority_pairs_rejected(self, context):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig13.policy_sweep(
                rate_scales=(0.02,),
                max_instances=(2,),
                priorities=("no-separator",),
                context=context,
            )
        with pytest.raises(ConfigurationError):
            fig13.policy_sweep(
                rate_scales=(0.02,),
                max_instances=(2,),
                priorities=("app=not-an-int",),
                context=context,
            )


@pytest.mark.parametrize("engine", ("event", "vectorized", "streaming"))
def test_run_without_completions_reports_nan_mean(engine):
    """An idle trace completes nothing, so there is no latency to
    average: every row reports a NaN mean beside its NaN percentiles,
    on every engine."""
    from repro.experiments.registry import REGISTRY, load_all

    load_all()
    result = REGISTRY.run(
        "fig13", profile="fast", rate_scale=0.0, engine=engine
    )
    assert len(result.rows) == 2
    for row in result.rows:
        assert row["requests"] == 0
        assert np.isnan(row["mean_latency_s"])
        assert np.isnan(row["p95_latency_s"])
        assert np.isnan(row["p99_latency_s"])

"""The vectorized FCFS rack engine must be bit-identical to the oracle.

Every series the event-driven reference produces — sample times, queue
depth, busy instances, completion times, latencies — plus the drop count,
the RNG end state, and the service-sample pool state must match exactly
across seeds, rate scales, fleet sizes, and both platforms, in headroom,
saturation, and drop regimes.  Non-FCFS policies must transparently fall
back to the event-driven path.
"""

import numpy as np
import pytest

from repro.cluster import simulation as simulation_module
from repro.cluster.fast_engine import sample_tick_times
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.cluster.schedulers import PolicyFactory
from repro.core.model import ServerlessExecutionModel
from repro.errors import ConfigurationError
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu, dscs_dsa
from tests.conftest import assert_same_draws

SEEDS = (1, 2, 3)
RATE_SCALES = (0.02, 0.05)

PLATFORM_BUILDERS = {
    "baseline": baseline_cpu,
    "dscs": dscs_dsa,
}


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


def run_both(model, suite, trace, **kwargs):
    """One fresh simulation per engine; returns (sims, series) pairs."""
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


@pytest.mark.parametrize("platform", sorted(PLATFORM_BUILDERS))
@pytest.mark.parametrize("rate_scale", RATE_SCALES)
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_identical_across_seeds_scales_platforms(
    suite, models, platform, rate_scale, seed
):
    trace = make_trace(suite, rate_scale, seed)
    runs = run_both(
        models[platform], suite, trace, max_instances=4, seed=seed
    )
    assert_bit_identical(runs)
    assert runs["event"][1].total_requests == len(trace)


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_identical_under_drops(suite, models, seed):
    """Full-queue admission control: same drops, bit for bit."""
    trace = make_trace(suite, 0.05, seed)
    runs = run_both(
        models["baseline"],
        suite,
        trace,
        max_instances=1,
        queue_depth=5,
        seed=seed,
    )
    assert_bit_identical(runs)
    assert runs["event"][1].dropped_requests > 0


def test_engines_identical_with_headroom(suite, models):
    """A fleet that never saturates exercises the contention-free pass."""
    trace = make_trace(suite, 0.02, 1)
    runs = run_both(models["dscs"], suite, trace, max_instances=50, seed=1)
    assert_bit_identical(runs)
    assert runs["event"][1].dropped_requests == 0
    assert int(runs["event"][1].queue_depth.max()) == 0


def test_engines_identical_on_empty_trace(suite, models):
    trace = RequestTrace(
        arrival_seconds=np.array([]), app_names=(), duration_seconds=60.0
    )
    runs = run_both(models["dscs"], suite, trace, max_instances=4, seed=1)
    assert_bit_identical(runs)
    assert len(runs["vectorized"][1].sample_times) == 60


def test_engines_identical_across_repeated_runs(suite, models):
    """Pools persist across run() calls; both engines must agree then too."""
    first = make_trace(suite, 0.02, 1)
    second = make_trace(suite, 0.02, 2)
    event_sim = RackSimulation(models["baseline"], suite, max_instances=4, seed=9)
    fast_sim = RackSimulation(models["baseline"], suite, max_instances=4, seed=9)
    for trace in (first, second):
        event_series = event_sim.run(trace, engine="event")
        fast_series = fast_sim.run(trace, engine="vectorized")
        assert event_series.identical_to(fast_series)
    assert_same_draws(fast_sim, event_sim)


def test_auto_engine_matches_both(suite, models):
    trace = make_trace(suite, 0.02, 2)
    auto = RackSimulation(models["baseline"], suite, max_instances=4, seed=2)
    auto_series = auto.run(trace)  # engine defaults to "auto"
    runs = run_both(models["baseline"], suite, trace, max_instances=4, seed=2)
    assert auto_series.identical_to(runs["event"][1])
    assert auto_series.identical_to(runs["vectorized"][1])


def test_non_fcfs_policy_falls_back_transparently(suite, models):
    """engine="vectorized" with SJF must still produce SJF results."""
    trace = make_trace(suite, 0.02, 3)
    estimates = {
        name: float(
            np.mean(
                models["baseline"].sample_latencies(
                    app, np.random.default_rng(0), 64
                )
            )
        )
        for name, app in suite.items()
    }
    policy = PolicyFactory("sjf", service_estimates=estimates)

    def sjf_run(engine):
        sim = RackSimulation(
            models["baseline"], suite, max_instances=2, seed=3, policy=policy
        )
        return sim.run(trace, engine=engine)

    via_vectorized = sjf_run("vectorized")
    via_event = sjf_run("event")
    assert via_vectorized.identical_to(via_event)
    # SJF genuinely reorders under contention, so the fallback really ran
    # the policy (a silent FCFS run would differ).
    fcfs = RackSimulation(
        models["baseline"], suite, max_instances=2, seed=3
    ).run(trace, engine="event")
    assert not np.array_equal(
        via_event.completed_latency_seconds, fcfs.completed_latency_seconds
    )


def test_explicit_fcfs_policy_still_vectorizable(suite, models):
    """PolicyFactory("fcfs") builds an FCFS queue -> fast path applies."""
    trace = make_trace(suite, 0.02, 1)
    with_factory = RackSimulation(
        models["baseline"],
        suite,
        max_instances=4,
        seed=1,
        policy=PolicyFactory("fcfs"),
    ).run(trace, engine="vectorized")
    plain = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1
    ).run(trace, engine="event")
    assert with_factory.identical_to(plain)


def test_unsorted_trace_falls_back_to_event_engine(
    suite, models, monkeypatch
):
    """The fast engine assumes time-ordered arrivals; others fall back."""
    base = make_trace(suite, 0.02, 1)
    shuffled = RequestTrace(
        arrival_seconds=base.arrival_seconds[::-1].copy(),
        app_names=tuple(reversed(base.app_names)),
        duration_seconds=base.duration_seconds,
    )
    entered = []
    for name in ("run_vectorized", "run_keyed"):

        def spy(*args, _name=name, _entry=getattr(simulation_module, name)):
            entered.append(_name)
            return _entry(*args)

        monkeypatch.setattr(simulation_module, name, spy)
    fast = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1
    ).run(shuffled, engine="vectorized")
    assert entered == []
    event = RackSimulation(
        models["baseline"], suite, max_instances=4, seed=1
    ).run(shuffled, engine="event")
    assert fast.identical_to(event)


def test_unknown_engine_rejected(suite, models):
    sim = RackSimulation(models["baseline"], suite)
    with pytest.raises(ConfigurationError):
        sim.run(make_trace(suite, 0.02, 1), engine="warp")


class TestSampleTicks:
    def test_integral_interval(self):
        ticks = sample_tick_times(60.0, 1.0)
        assert len(ticks) == 60
        assert ticks[0] == 1.0 and ticks[-1] == 60.0

    def test_fractional_interval_is_drift_free(self):
        ticks = sample_tick_times(10.0, 0.1)
        assert len(ticks) == 100
        # 0.1 accumulated 100x drifts past 10.0; arange-scaling does not.
        assert ticks[-1] == pytest.approx(10.0)
        assert np.all(np.diff(ticks) > 0)

    def test_horizon_shorter_than_interval(self):
        assert len(sample_tick_times(0.5, 1.0)) == 0

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_tick_times(10.0, 0.0)

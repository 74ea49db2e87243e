"""Scheduling policies (paper §5.3 + its future-work directions)."""

import numpy as np
import pytest

from repro.cluster.schedulers import (
    CriticalityPolicy,
    DAGAwarePolicy,
    FCFSPolicy,
    PolicyFactory,
    QueuedRequest,
    ShortestJobFirstPolicy,
)
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.errors import SchedulingError
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu


def request(app, seq, arrival=0.0):
    return QueuedRequest(arrival=arrival, app_name=app, sequence=seq)


class TestFCFS:
    def test_strict_arrival_order(self):
        policy = FCFSPolicy()
        for i, app in enumerate(("a", "b", "c")):
            policy.push(request(app, i))
        assert [policy.pop().app_name for _ in range(3)] == ["a", "b", "c"]

    def test_empty_pop_raises(self):
        with pytest.raises(SchedulingError):
            FCFSPolicy().pop()

    def test_len(self):
        policy = FCFSPolicy()
        policy.push(request("a", 0))
        assert len(policy) == 1


class TestSJF:
    def test_shortest_estimate_first(self):
        policy = ShortestJobFirstPolicy({"slow": 1.0, "fast": 0.1})
        policy.push(request("slow", 0))
        policy.push(request("fast", 1))
        assert policy.pop().app_name == "fast"
        assert policy.pop().app_name == "slow"

    def test_ties_break_by_sequence(self):
        policy = ShortestJobFirstPolicy({"a": 0.5})
        policy.push(request("a", 1))
        policy.push(request("a", 0))
        assert policy.pop().sequence == 0

    def test_unknown_app_sorts_last(self):
        policy = ShortestJobFirstPolicy({"known": 5.0})
        policy.push(request("mystery", 0))
        policy.push(request("known", 1))
        assert policy.pop().app_name == "known"

    def test_unknown_apps_collected_and_logged_once(self, caplog):
        policy = ShortestJobFirstPolicy({"known": 5.0})
        with caplog.at_level("WARNING", logger="repro.cluster.schedulers"):
            for app in ("mystery", "mystery", "ghost", "known"):
                policy.observe_app(app)
        assert policy.unknown_apps == ("ghost", "mystery")
        logged = [r for r in caplog.records if "no service estimate" in r.message]
        assert len(logged) == 2  # once per unknown app, not per call

    def test_full_coverage_leaves_unknowns_empty(self):
        policy = ShortestJobFirstPolicy({"a": 1.0, "b": 2.0})
        policy.observe_app("a")
        policy.observe_app("b")
        assert policy.unknown_apps == ()

    def test_push_does_not_observe(self):
        policy = ShortestJobFirstPolicy({"known": 5.0})
        policy.push(request("mystery", 0))
        assert policy.unknown_apps == ()

    def test_rejects_bad_estimates(self):
        with pytest.raises(SchedulingError):
            ShortestJobFirstPolicy({})
        with pytest.raises(SchedulingError):
            ShortestJobFirstPolicy({"a": 0.0})


class TestCriticality:
    def test_critical_class_first(self):
        policy = CriticalityPolicy({"wildfire": 0, "batch": 5})
        policy.push(request("batch", 0))
        policy.push(request("wildfire", 1))
        assert policy.pop().app_name == "wildfire"

    def test_fcfs_within_class(self):
        policy = CriticalityPolicy({"a": 1})
        policy.push(request("a", 0))
        policy.push(request("a", 1))
        assert policy.pop().sequence == 0

    def test_default_priority_for_unknown(self):
        policy = CriticalityPolicy({"vip": 0}, default_priority=9)
        assert policy.priority_of("stranger") == 9

    def test_empty_priorities_rejected(self):
        # An empty priority map silently degenerates to FCFS — reject it.
        with pytest.raises(SchedulingError):
            CriticalityPolicy({})

    def test_non_integer_priorities_rejected(self):
        with pytest.raises(SchedulingError):
            CriticalityPolicy({"vip": 1.5})
        with pytest.raises(SchedulingError):
            CriticalityPolicy({"vip": True})
        with pytest.raises(SchedulingError):
            CriticalityPolicy({"vip": 0}, default_priority=2.5)


class TestDAGAware:
    def test_prefers_deeper_pipelines(self):
        suite = benchmark_suite()
        deep = suite["Remote Sensing"].with_extra_inference_stages(3)
        apps = {"shallow": suite["Credit Risk Assessment"], "deep": deep}
        policy = DAGAwarePolicy(apps)
        policy.push(request("shallow", 0))
        policy.push(request("deep", 1))
        assert policy.pop().app_name == "deep"

    def test_requires_applications(self):
        with pytest.raises(SchedulingError):
            DAGAwarePolicy({})


class TestPolicyFactory:
    def test_builds_each_policy(self):
        suite = benchmark_suite()
        assert isinstance(PolicyFactory("fcfs").build(), FCFSPolicy)
        assert isinstance(
            PolicyFactory("sjf", service_estimates={"a": 1.0}).build(),
            ShortestJobFirstPolicy,
        )
        assert isinstance(
            PolicyFactory("criticality", priorities={"a": 0}).build(),
            CriticalityPolicy,
        )
        assert isinstance(
            PolicyFactory("dag", applications=suite).build(), DAGAwarePolicy
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            PolicyFactory("lottery").build()

    def test_sjf_requires_estimates(self):
        with pytest.raises(SchedulingError):
            PolicyFactory("sjf").build()

    def test_criticality_requires_priorities(self):
        # No/empty priorities used to silently build a slow FCFS queue.
        with pytest.raises(SchedulingError):
            PolicyFactory("criticality").build()
        with pytest.raises(SchedulingError):
            PolicyFactory("criticality", priorities={}).build()

    def test_criticality_priorities_must_be_ints(self):
        with pytest.raises(SchedulingError):
            PolicyFactory("criticality", priorities={"a": "high"}).build()


class TestPoliciesAtScale:
    @pytest.fixture(scope="class")
    def setup(self):
        suite = benchmark_suite()
        model = ServerlessExecutionModel(platform=baseline_cpu())
        generator = TraceGenerator(
            list(suite), rate_envelope=(8.0, 16.0, 8.0), segment_seconds=20.0
        )
        trace = generator.generate(np.random.default_rng(3))
        return suite, model, trace

    def _mean_latency(self, setup, policy):
        suite, model, trace = setup
        sim = RackSimulation(
            model, suite, max_instances=2, seed=11, policy=policy
        )
        return sim.run(trace).mean_latency_seconds

    def test_sjf_beats_fcfs_on_mean_latency(self, setup):
        suite, model, _ = setup
        estimates = {
            name: model.invoke(app, np.random.default_rng(0)).latency_seconds
            for name, app in suite.items()
        }
        fcfs = self._mean_latency(setup, PolicyFactory("fcfs"))
        sjf = self._mean_latency(
            setup, PolicyFactory("sjf", service_estimates=estimates)
        )
        # SJF minimises mean waiting time in a single queue (classic result).
        assert sjf < fcfs

    def test_criticality_prioritises_chosen_app(self, setup):
        suite, model, trace = setup
        target = "Remote Sensing"
        boosted = RackSimulation(
            model,
            suite,
            max_instances=2,
            seed=11,
            policy=PolicyFactory("criticality", priorities={target: 0}),
        ).run(trace)
        plain = RackSimulation(
            model, suite, max_instances=2, seed=11, policy=PolicyFactory("fcfs")
        ).run(trace)
        # All requests complete either way; the boosted run is valid.
        assert len(boosted.completed_latency_seconds) == len(trace)
        assert len(plain.completed_latency_seconds) == len(trace)

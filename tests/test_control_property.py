"""Generated differential test of the control kernel against its oracle.

The hand-picked cells of ``test_control_equivalence.py`` and
``test_fault_equivalence.py`` pin the control kernel on a few
configurations; this suite draws them.  A derandomized ``hypothesis``
strategy picks a FIFO, SJF or multi-class criticality key, a queue
short enough for queue-full drops, a fault schedule with crashes and
slowdowns, timeouts, retries and hedging (or no retry layer at all when
faults or an active plane already make the run fault-aware), an inert,
autoscaling (with warmup), shedding or token-admission control plane, a
materialized run or a streamed one in small chunks, and the trace and
simulation seeds.  Every run must equal
:func:`~repro.cluster.control_engine.run_control_event` bit for bit —
series, drops and reasons, counters, RNG end state and service pools.

A fixed congested FIFO case also spies on the FIFO pass, so the suite
cannot pass by sending every congested arrival down the serial path.

The kernel's quiet runs get the same treatment: with no faults, retry
or plane, a second strategy draws FCFS, multi-class SJF and
criticality, one-class criticality, the (tied) DAG key and an FCFS
subclass with a coverage hook, short queues from a single instance up
and deep ones that fill, and the run settings and seeds, against the
inline oracle; on both sides that hook must have seen the trace's
catalog.  A fixed deep-queue FCFS case spies on pass B's bulk
queue-full drops and cuts, and the closed-form admission count is
checked against the serial rule it replaces.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import control_engine
from repro.cluster.control import (
    AutoscalerPolicy,
    ControlPlane,
    OverloadPolicy,
)
from repro.cluster.fast_engine import admitted_counts
from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.schedulers import FCFSPolicy, PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.streaming import StreamedSeries
from repro.cluster.trace import TraceGenerator
from repro.core.model import ServerlessExecutionModel
from repro.experiments.benchmarks import benchmark_suite
from repro.platforms.registry import baseline_cpu
from tests.conftest import assert_same_draws


@pytest.fixture(scope="module")
def suite():
    return benchmark_suite()


@pytest.fixture(scope="module")
def model():
    return ServerlessExecutionModel(platform=baseline_cpu())


@pytest.fixture(scope="module")
def estimates(model, suite):
    return {
        name: float(
            np.mean(model.sample_latencies(app, np.random.default_rng(0), 64))
        )
        for name, app in suite.items()
    }


def make_trace(suite, scale, seed):
    generator = TraceGenerator(
        list(suite),
        rate_envelope=tuple(rate * scale for rate in (250, 800, 250)),
        segment_seconds=15.0,
    )
    return generator.generate(np.random.default_rng(seed))


def make_plane(kind, priorities):
    if kind == "inert":
        return None
    if kind == "autoscale":
        return ControlPlane(
            autoscaler=AutoscalerPolicy(
                policy="queue_depth",
                min_instances=1,
                scale_down_cooldown_seconds=2.0,
                warmup_seconds=1.5,
            ),
        )
    if kind == "shed":
        return ControlPlane(
            overload=OverloadPolicy(
                queue_delay_target_seconds=0.3,
                latency_slo_seconds=1.0,
                priorities=priorities,
                breaker_failure_threshold=0.5,
                breaker_min_failures=3,
                breaker_open_seconds=2.0,
            ),
            control_interval_seconds=0.5,
        )
    assert kind == "tokens"
    return ControlPlane(
        overload=OverloadPolicy(
            admission_rate_rps=12.0, admission_burst_seconds=1.0
        ),
    )


configs = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["fcfs", "sjf", "criticality"]),
        "max_instances": st.integers(2, 6),
        "queue_depth": st.integers(2, 12),
        "mtbf": st.sampled_from([None, 15.0, 60.0]),
        "slowdowns": st.booleans(),
        "fault_seed": st.integers(0, 9),
        # Half the draws have no retry layer at all: timer-free runs.
        "retry": st.booleans(),
        "timeout": st.sampled_from([None, 0.4, 1.5]),
        "max_retries": st.integers(0, 2),
        "backoff": st.sampled_from([0.0, 0.05, 0.3]),
        "hedge": st.sampled_from([None, None, 0.4]),
        "plane": st.sampled_from(["inert", "autoscale", "shed", "tokens"]),
        "chunk": st.sampled_from([None, 1, 7, 64]),
        "scale": st.sampled_from([0.03, 0.06]),
        "trace_seed": st.integers(0, 30),
        "seed": st.integers(0, 30),
    }
)


def simulation_kwargs(config, suite, estimates):
    faults = FaultSchedule(
        instance_mtbf_seconds=config["mtbf"],
        instance_mttr_seconds=4.0,
        slowdown_rate_per_minute=6.0 if config["slowdowns"] else 0.0,
        slowdown_multiplier=2.0,
        slowdown_duration_seconds=3.0,
        seed=config["fault_seed"],
    )
    retry = RetryPolicy()
    if config["retry"]:
        retry = RetryPolicy(
            timeout_seconds=config["timeout"],
            max_retries=config["max_retries"],
            backoff_base_seconds=config["backoff"],
            backoff_cap_seconds=1.0,
            hedge_after_seconds=config["hedge"],
        )
    priorities = {name: i % 3 for i, name in enumerate(sorted(suite))}
    policy = None
    if config["policy"] == "sjf":
        policy = PolicyFactory("sjf", service_estimates=estimates)
    elif config["policy"] == "criticality":
        policy = PolicyFactory("criticality", priorities=priorities)
    plane = make_plane(config["plane"], priorities)
    if not (faults.active or plane is not None or retry.active):
        # Timeouts only, so every run belongs to the control family; an
        # inactive retry policy stays as drawn wherever faults or an
        # active plane already put the run there.
        retry = RetryPolicy(timeout_seconds=2.0)
    return dict(
        max_instances=config["max_instances"],
        queue_depth=config["queue_depth"],
        seed=config["seed"],
        policy=policy,
        faults=faults,
        retry=retry,
        control=plane,
    )


def run_and_compare(model, suite, trace, kwargs, chunk):
    oracle_sim = RackSimulation(model, suite, **kwargs)
    oracle = oracle_sim.run(trace, engine="event")
    sim = RackSimulation(model, suite, **kwargs)
    if chunk is None:
        series = sim.run(trace, engine="vectorized")
        assert series.identical_to(oracle)
    else:
        series = sim.run(trace, engine="streaming", chunk_requests=chunk)
        assert series.identical_to(StreamedSeries.from_series(oracle))
    # A streamed run compacts its pools: they must agree wherever both
    # runs still hold samples.
    assert_same_draws(sim, oracle_sim)
    for policy in (sim.last_policy, oracle_sim.last_policy):
        if isinstance(policy, ObservingFCFS):
            assert policy.seen == set(trace.app_catalog)
    return oracle


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs)
def test_control_kernel_matches_oracle(config, model, suite, estimates):
    trace = make_trace(suite, config["scale"], config["trace_seed"])
    kwargs = simulation_kwargs(config, suite, estimates)
    run_and_compare(model, suite, trace, kwargs, config["chunk"])


class ObservingFCFS(FCFSPolicy):
    """FCFS with a coverage hook: records every app it is shown."""

    def __init__(self):
        super().__init__()
        self.seen = set()

    def observe_app(self, app_name):
        self.seen.add(app_name)


class ObservingFCFSFactory:
    def build(self):
        return ObservingFCFS()


def fault_free_policy(name, suite, estimates):
    if name == "fcfs":
        return None
    if name == "observing fcfs":
        return ObservingFCFSFactory()
    if name == "sjf":
        return PolicyFactory("sjf", service_estimates=estimates)
    if name == "criticality":
        return PolicyFactory(
            "criticality",
            priorities={app: i % 3 for i, app in enumerate(sorted(suite))},
        )
    if name == "one-class criticality":
        return PolicyFactory("criticality", priorities=dict.fromkeys(suite, 1))
    assert name == "dag"
    return PolicyFactory("dag", applications=suite)


fault_free_configs = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(
            [
                "fcfs",
                "sjf",
                "criticality",
                "one-class criticality",
                "dag",
                "observing fcfs",
            ]
        ),
        "max_instances": st.integers(1, 6),
        # Short queues, and deep ones the congested rate fills: pass B
        # windows then commit queue-full drops in bulk, and a window
        # completion before a predicted drop cuts some of them.
        "queue_depth": st.one_of(st.integers(1, 12), st.integers(150, 400)),
        "chunk": st.sampled_from([None, 1, 7, 64]),
        # A nearly idle rack, where some apps are only ever admitted in
        # contention-free windows, and a congested one.
        "scale": st.sampled_from([0.005, 0.06]),
        "trace_seed": st.integers(0, 30),
        "seed": st.integers(0, 30),
    }
)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=fault_free_configs)
def test_quiet_runs_match_oracle(config, model, suite, estimates):
    trace = make_trace(suite, config["scale"], config["trace_seed"])
    kwargs = dict(
        max_instances=config["max_instances"],
        queue_depth=config["queue_depth"],
        seed=config["seed"],
        policy=fault_free_policy(config["policy"], suite, estimates),
    )
    run_and_compare(model, suite, trace, kwargs, config["chunk"])


def test_pass_b_commits_queue_full_drops_in_bulk(model, suite, monkeypatch):
    """A quiet FCFS rack whose deep queue fills commits queue-full drops
    a window at a time, cuts a window where one of its own completions
    frees a slot before a predicted drop, and still matches the
    oracle."""
    windows = []  # (drops committed, cut) per pass B window
    pass_b = control_engine._ControlRun.pass_b

    def spy(run, i, occupied, avail):
        drops = len(run.drop_times)
        j, avail = pass_b(run, i, occupied, avail)
        windows.append((len(run.drop_times) - drops, avail is None))
        return j, avail

    monkeypatch.setattr(control_engine._ControlRun, "pass_b", spy)
    trace = make_trace(suite, 0.06, 2)
    kwargs = dict(max_instances=4, queue_depth=250, seed=5)
    oracle = run_and_compare(model, suite, trace, kwargs, None)
    assert oracle.drop_breakdown()["queue_full"] > 0
    assert max(drops for drops, _ in windows) > 100
    assert any(cut and drops for drops, cut in windows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    start=st.integers(0, 4),
    # Mostly flat steps, so that arrivals find the queue full.
    steps=st.lists(st.sampled_from([0, 0, 1, 2]), max_size=60),
)
def test_admitted_counts_follow_the_serial_rule(start, steps):
    """The closed-form admissions of a congested FIFO window equal the
    serial rule ``A[k+1] = A[k] + (A[k] < free[k])`` for every
    nondecreasing ``free >= 0``."""
    free = start + np.cumsum(np.array([0] + steps, dtype=np.int64))
    expected = []
    admitted = 0
    for slots in free.tolist():
        admitted += admitted < slots
        expected.append(admitted)
    assert admitted_counts(free).tolist() == expected


def test_fifo_pass_serves_congested_arrivals(model, suite, monkeypatch):
    """A congested FIFO rack with faults, timeouts, retries and
    queue-full drops sends arrivals through the FIFO pass, and the run
    still matches the oracle."""
    served = []
    fifo_pass = control_engine._ControlRun.fifo_pass

    def spy(run, i, cut, cut_rank):
        j = fifo_pass(run, i, cut, cut_rank)
        served.append(j - i)
        return j

    monkeypatch.setattr(control_engine._ControlRun, "fifo_pass", spy)
    trace = make_trace(suite, 0.04, 3)
    kwargs = dict(
        max_instances=3,
        queue_depth=8,
        seed=5,
        faults=FaultSchedule(
            instance_mtbf_seconds=20.0,
            instance_mttr_seconds=4.0,
            slowdown_rate_per_minute=6.0,
            slowdown_duration_seconds=3.0,
            seed=2,
        ),
        retry=RetryPolicy(timeout_seconds=0.6, max_retries=1),
    )
    oracle = run_and_compare(model, suite, trace, kwargs, None)
    assert sum(served) > len(trace) // 8
    assert oracle.timeouts > 0 and oracle.retries > 0
    assert oracle.drop_breakdown()["queue_full"] > 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["add", "push", "push", "push", "pop", "retire", "kill"]
            ),
            st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=4),
        ),
        max_size=40,
    )
)
def test_in_flight_keeps_canonical_order(ops):
    """The control kernel's in-flight run retires, pops and kills in
    (completion, start order) however batched and serial starts mix —
    completions drawn from three values, so most of them tie."""
    flight = control_engine._InFlight()
    reference = []  # (done, seq) rows in service
    seq = 0
    for op, times in ops:
        if op == "add":
            count = len(times)
            flight.add(
                np.array(times), np.zeros(count), np.zeros(count, np.intp),
                np.zeros(count, np.int64), np.zeros(count, np.int64), seq,
            )
            reference += [(done, seq + k) for k, done in enumerate(times)]
            seq += count
        elif op == "push":
            flight.push((times[0], seq, 0.0, 0, 0, 0))
            reference.append((times[0], seq))
            seq += 1
        elif op == "pop" and reference:
            row = flight.pop()
            assert (row[0], row[1]) == min(reference)
            reference.remove(min(reference))
        elif op == "retire":
            rows, cols = flight.retire_before(times[0])
            got = [(row[0], row[1]) for row in rows]
            if cols is not None:
                got += list(zip(cols[0].tolist(), cols[1].tolist()))
            expected = sorted(row for row in reference if row[0] < times[0])
            assert got == expected
            reference = [row for row in reference if row[0] >= times[0]]
        elif op == "kill" and reference:
            count = min(len(times), len(reference))
            victims = flight.kill(count)
            expected = sorted(reference)[::-1][:count]
            assert [(row[0], row[1]) for row in victims] == expected
            reference = sorted(reference)[: len(reference) - count]
        assert len(flight) == len(reference)
        assert flight.next_time() == min(reference, default=(np.inf,))[0]

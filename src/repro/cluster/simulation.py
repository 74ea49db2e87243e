"""Rack-scale discrete-event simulation (paper §6.1, §6.2.2).

Up to 200 function instances serve a request trace under FCFS scheduling
with a bounded queue (depth 10,000).  Per-request service times are drawn
from the execution model's latency distribution for the request's
application, pre-sampled in bulk for speed, through
:attr:`RackSimulation.pools`, a
:class:`~repro.cluster.service_pools.ServicePools`: the one owner of
the rack RNG's draw schedule, under which serial, windowed, read-ahead
and bounded draws all consume the RNG in one order.  Outputs the
queue-depth and latency time series of Fig. 13 plus aggregate
wall-clock statistics.

Two kinds of engine produce those series:

- ``engine="event"`` — the reference oracle: a timestamp-ordered event
  queue firing one callback per arrival, completion, and sample tick.
- ``engine="vectorized"`` — the rack kernel,
  :func:`~repro.cluster.control_engine.control_kernel`, bit-identical
  to the oracle (same drops, same latencies, same series, same RNG end
  state) at a fraction of the wall-clock cost, for FCFS and every
  policy driven by a :class:`~repro.cluster.policy_keys.PolicyKey`
  (SJF / criticality / DAG-aware): contention-free stretches in
  batches; on a run with nothing active, congested ones by the FCFS
  recurrence when every key ties, else a primitive-heap loop.

The default ``engine="auto"`` vectorizes every run on a time-ordered
trace; the event-driven oracle remains the fallback for unsorted
traces.  A vectorized run is the kernel over one whole-trace chunk,
folded into a retaining :class:`SeriesSink`; ``engine="streaming"``
runs the same kernel over bounded chunks, folded into a
:class:`~repro.cluster.streaming.StreamedSeries`.

Faults, retries and a control plane change only what the kernel is
given: a run with none of them active gets an empty fault timeline,
``RetryPolicy()`` and ``ControlPlane()``, one with only faults or
retries active an inert ``ControlPlane()``.  The oracle differs:
``engine="event"`` and unsorted traces run the inline fault-free oracle
when nothing is active, else
:func:`~repro.cluster.control_engine.run_control_event`.  A
materialized kernel run enters through one of four entries, which only
label it for the benchmark's probes: ``run_vectorized`` (FCFS) and
``run_keyed`` (other keyed policies) with nothing active,
``run_chaos_vectorized`` (inert plane) and ``run_control_vectorized``
(active plane) otherwise.

Every engine rejects a trace naming an application the simulation does
not know, and a policy that is not a
:class:`~repro.cluster.schedulers.KeyedPolicy`, before any service
draw; then it shows the policy's coverage hook the trace's application
catalog, once per app.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.control import ControlPlane
from repro.cluster.fast_engine import (
    admission_ranks,
    run_vectorized,
    sample_tick_times,
)
from repro.cluster.faults import (
    DROP_REASONS,
    FaultSchedule,
    FaultTimeline,
    RetryPolicy,
)
from repro.cluster.policy_engine import run_keyed
from repro.cluster.schedulers import (
    FCFSPolicy,
    KeyedPolicy,
    PolicyFactory,
    QueuedRequest,
)
from repro.cluster.service_pools import ServicePools, ServiceSampleCache
from repro.core.model import ServerlessExecutionModel
from repro.cluster.trace import RequestTrace
from repro.errors import ConfigurationError, SchedulingError
from repro.serverless.application import Application
from repro.sim.event_queue import Event, EventQueue

_ENGINES = ("auto", "event", "vectorized", "streaming")


def check_run_settings(engine: str, chunk_requests: Optional[int]) -> None:
    """Reject an unknown ``engine`` or a ``chunk_requests`` it cannot use.

    The one check behind :meth:`RackSimulation.run` and
    :class:`~repro.cluster.sweep.RackSweep` (and so every sweep and
    fleet run): ``chunk_requests`` is a positive int, and only
    ``engine="streaming"`` reads it.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {_ENGINES}"
        )
    if chunk_requests is None:
        return
    if isinstance(chunk_requests, bool) or not isinstance(chunk_requests, int):
        raise ConfigurationError(
            f"chunk_requests must be an int, got {chunk_requests!r}"
        )
    if chunk_requests <= 0:
        raise ConfigurationError(
            f"chunk_requests must be positive, got {chunk_requests}"
        )
    if engine != "streaming":
        raise ConfigurationError(
            "chunk_requests only applies to engine='streaming'; "
            f"got engine={engine!r}"
        )


def _empty_float_array() -> np.ndarray:
    return np.empty(0)


def _empty_reason_array() -> np.ndarray:
    return np.empty(0, dtype=np.int8)


def _empty_int_array() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass
class SimulationSeries:
    """Time-series outputs of one rack simulation (Fig. 13 b-d).

    Beyond the Fig. 13 series, each run carries availability telemetry:
    per-drop times and reason codes (indices into
    :data:`~repro.cluster.faults.DROP_REASONS`) and the chaos counters
    (retries injected, timeouts fired, in-flight requests killed by
    crashes, hedges launched/won).  Fault-free runs report all-zero
    counters and every drop as ``queue_full`` — the only loss mode a
    perfect fleet has.
    """

    sample_times: np.ndarray
    queue_depth: np.ndarray
    busy_instances: np.ndarray
    completed_latency_seconds: np.ndarray
    completed_times: np.ndarray
    dropped_requests: int
    total_requests: int
    dropped_times: np.ndarray = field(default_factory=_empty_float_array)
    dropped_reasons: np.ndarray = field(default_factory=_empty_reason_array)
    retries: int = 0
    timeouts: int = 0
    crash_kills: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    # Control-plane telemetry, populated only when a control plane is
    # active (empty/zero otherwise).  ``live_instances`` is the
    # autoscaled live capacity at each sample tick;
    # ``completed_app_ids`` indexes ``app_catalog`` per completion, for
    # per-criticality latency slicing.
    live_instances: np.ndarray = field(default_factory=_empty_int_array)
    completed_app_ids: np.ndarray = field(default_factory=_empty_int_array)
    app_catalog: tuple = ()
    scale_ups: int = 0
    scale_downs: int = 0

    def mean_latency_per_bucket(self, bucket_seconds: float = 60.0) -> np.ndarray:
        """Average request latency per time bucket (Fig. 13 c/d)."""
        if bucket_seconds <= 0:
            raise ConfigurationError(f"non-positive bucket: {bucket_seconds}")
        if len(self.completed_times) == 0:
            return np.array([])
        # The horizon must cover completions that land after the last
        # sample tick (a saturated rack keeps draining past the trace
        # end); clamping them into the final sampled bucket would skew
        # its mean with the whole backlog.
        horizon = float(self.completed_times.max())
        if len(self.sample_times):
            horizon = max(horizon, float(self.sample_times[-1]))
        buckets = max(1, int(np.ceil(horizon / bucket_seconds)))
        sums = np.zeros(buckets)
        counts = np.zeros(buckets)
        indices = np.minimum(
            (self.completed_times / bucket_seconds).astype(int), buckets - 1
        )
        np.add.at(sums, indices, self.completed_latency_seconds)
        np.add.at(counts, indices, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return means

    def identical_to(self, other: "SimulationSeries") -> bool:
        """Exact (bit-level) equality with another run's series."""
        return (
            self.dropped_requests == other.dropped_requests
            and self.total_requests == other.total_requests
            and self.retries == other.retries
            and self.timeouts == other.timeouts
            and self.crash_kills == other.crash_kills
            and self.hedges_launched == other.hedges_launched
            and self.hedge_wins == other.hedge_wins
            and np.array_equal(self.sample_times, other.sample_times)
            and np.array_equal(self.queue_depth, other.queue_depth)
            and np.array_equal(self.busy_instances, other.busy_instances)
            and np.array_equal(
                self.completed_latency_seconds,
                other.completed_latency_seconds,
            )
            and np.array_equal(self.completed_times, other.completed_times)
            and np.array_equal(self.dropped_times, other.dropped_times)
            and np.array_equal(self.dropped_reasons, other.dropped_reasons)
            and self.scale_ups == other.scale_ups
            and self.scale_downs == other.scale_downs
            and self.app_catalog == other.app_catalog
            and np.array_equal(self.live_instances, other.live_instances)
            and np.array_equal(
                self.completed_app_ids, other.completed_app_ids
            )
        )

    def drop_breakdown(self) -> Dict[str, int]:
        """Drops by reason (``queue_full`` / ``timeout`` / ``crashed`` /
        ``shed``).

        Always sums to :attr:`dropped_requests` — runs predating the
        per-reason record (empty ``dropped_reasons`` with a non-zero
        total) report everything as ``queue_full``, the only loss mode
        the fault-free simulator had.
        """
        counts = dict.fromkeys(DROP_REASONS, 0)
        if len(self.dropped_reasons):
            for code, count in zip(
                *np.unique(self.dropped_reasons, return_counts=True)
            ):
                counts[DROP_REASONS[int(code)]] = int(count)
        else:
            counts[DROP_REASONS[0]] = self.dropped_requests
        return counts

    def completed_latencies_for_apps(self, app_names) -> np.ndarray:
        """Latencies of completions belonging to the given applications.

        Requires the per-completion app record (:attr:`completed_app_ids`
        / :attr:`app_catalog`), populated only when a control plane is
        active; for other runs this returns an empty array.
        """
        if len(self.completed_app_ids) == 0:
            return np.empty(0)
        wanted = set(app_names)
        ids = [
            i for i, name in enumerate(self.app_catalog) if name in wanted
        ]
        mask = np.isin(self.completed_app_ids, np.asarray(ids, dtype=np.int64))
        return self.completed_latency_seconds[mask]

    @property
    def availability(self) -> float:
        """Fraction of trace requests that eventually completed.

        An empty trace has nothing to account for: availability is
        undefined rather than perfect — NaN, the same convention
        :meth:`availability_per_bucket` uses for buckets where no
        request ended.
        """
        if self.total_requests == 0:
            return float("nan")
        return len(self.completed_latency_seconds) / self.total_requests

    @property
    def goodput_rps(self) -> float:
        """Completed requests per second of simulated wall clock."""
        horizon = self.wall_clock_seconds
        if horizon <= 0:
            return 0.0
        return len(self.completed_latency_seconds) / horizon

    def availability_per_bucket(
        self, bucket_seconds: float = 60.0
    ) -> np.ndarray:
        """Per-bucket ``completed / (completed + dropped)`` fraction.

        Buckets with no terminating requests report NaN — no request
        ended there, so availability is undefined rather than perfect.
        """
        if bucket_seconds <= 0:
            raise ConfigurationError(f"non-positive bucket: {bucket_seconds}")
        horizon = 0.0
        for times in (self.completed_times, self.dropped_times, self.sample_times):
            if len(times):
                horizon = max(horizon, float(times.max()))
        if horizon <= 0:
            return np.array([])
        buckets = max(1, int(np.ceil(horizon / bucket_seconds)))
        completed = np.zeros(buckets)
        ended = np.zeros(buckets)
        for times, target in (
            (self.completed_times, completed),
            (self.dropped_times, None),
        ):
            if len(times) == 0:
                continue
            indices = np.minimum(
                (times / bucket_seconds).astype(int), buckets - 1
            )
            np.add.at(ended, indices, 1)
            if target is not None:
                np.add.at(target, indices, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(ended > 0, completed / np.maximum(ended, 1), np.nan)

    @property
    def wall_clock_seconds(self) -> float:
        """Time from first arrival to last completion."""
        if len(self.completed_times) == 0:
            return 0.0
        return float(self.completed_times.max())

    @property
    def completed_count(self) -> int:
        """Requests that completed."""
        return len(self.completed_latency_seconds)

    @property
    def mean_latency_seconds(self) -> float:
        """Mean completed latency; NaN when nothing completed.

        A run that completes nothing (an idle trace, or a fleet that
        drops every request) has no latency to average — NaN, matching
        the availability NaN-on-empty convention, rather than a
        misleading 0.0.
        """
        if len(self.completed_latency_seconds) == 0:
            return float("nan")
        return float(self.completed_latency_seconds.mean())

    def latency_percentile(self, q: float) -> float:
        """Exact completed-latency percentile (0..100); NaN when nothing
        completed.  A :class:`~repro.cluster.streaming.StreamedSeries`
        answers the same query from its quantile sketch."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile out of range: {q}")
        if len(self.completed_latency_seconds) == 0:
            return float("nan")
        return float(np.percentile(self.completed_latency_seconds, q))


class SeriesSink:
    """Telemetry sink of a materialized run: retains every fold.

    The rack kernels fold into a sink once per trace chunk: completions
    in canonical (completion time, start order), drops in event order;
    at the end they set the tick series and run counters and call
    :meth:`finalize`.  A materialized run is one whole-trace chunk
    folded here, and :meth:`finalize` joins the folds into a
    :class:`SimulationSeries`; a streamed run folds into a
    :class:`~repro.cluster.streaming.StreamedSeries` instead.
    """

    def __init__(
        self, trace: RequestTrace, sample_interval_seconds: float
    ) -> None:
        self.sample_times = sample_tick_times(
            trace.duration_seconds, sample_interval_seconds
        )
        self.total_requests = len(trace)
        self.queue_depth = self.busy_instances = _empty_int_array()
        self.retries = self.timeouts = self.crash_kills = 0
        self.hedges_launched = self.hedge_wins = 0
        # Control telemetry, set only when a control plane is active.
        self.live_instances = _empty_int_array()
        self.app_catalog: tuple = ()
        self.scale_ups = self.scale_downs = 0
        self._completions: List[tuple] = []
        self._drops: List[tuple] = []

    def fold_completions(self, times, latencies, app_ids=None) -> None:
        self._completions.append((times, latencies, app_ids))

    def fold_drops(self, times, reasons) -> None:
        """Fold a batch of drops; ``reasons`` is an array or one code."""
        reasons = np.asarray(reasons, dtype=np.int8)
        if reasons.ndim == 0:
            reasons = np.full(len(times), reasons)
        self._drops.append((times, reasons))

    def finalize(self) -> SimulationSeries:
        def joined(parts, field, empty):
            arrays = [part[field] for part in parts]
            return np.concatenate(arrays) if arrays else empty()

        drop_times = joined(self._drops, 0, _empty_float_array)
        return SimulationSeries(
            sample_times=self.sample_times,
            queue_depth=self.queue_depth,
            busy_instances=self.busy_instances,
            completed_latency_seconds=joined(
                self._completions, 1, _empty_float_array
            ),
            completed_times=joined(self._completions, 0, _empty_float_array),
            dropped_requests=len(drop_times),
            total_requests=self.total_requests,
            dropped_times=drop_times,
            dropped_reasons=joined(self._drops, 1, _empty_reason_array),
            retries=self.retries,
            timeouts=self.timeouts,
            crash_kills=self.crash_kills,
            hedges_launched=self.hedges_launched,
            hedge_wins=self.hedge_wins,
            live_instances=self.live_instances,
            completed_app_ids=(
                joined(self._completions, 2, _empty_int_array)
                if self.app_catalog
                else _empty_int_array()
            ),
            app_catalog=self.app_catalog,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
        )


class RackSimulation:
    """Rack simulator for one execution model under a scheduling policy.

    Defaults to FCFS, the paper's deployed policy (§5.3); pass a
    :class:`~repro.cluster.schedulers.PolicyFactory` to explore the
    paper's future-work policies (SJF, criticality-, DAG-aware).
    :attr:`pools` holds the per-app service-time pools, which persist
    across runs, and the RNG they draw on.
    """

    def __init__(
        self,
        model: ServerlessExecutionModel,
        applications: Dict[str, Application],
        max_instances: int = 200,
        queue_depth: int = 10_000,
        seed: int = 2024,
        policy: Optional[PolicyFactory] = None,
        cold: bool = False,
        sample_cache: Optional[ServiceSampleCache] = None,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        control: Optional[ControlPlane] = None,
    ) -> None:
        if max_instances <= 0:
            raise ConfigurationError(f"non-positive instances: {max_instances}")
        if queue_depth <= 0:
            raise ConfigurationError(f"non-positive queue depth: {queue_depth}")
        self._applications = dict(applications)
        self._max_instances = max_instances
        self._queue_depth = queue_depth
        self._rng = np.random.default_rng(seed)
        self.pools = ServicePools(
            model, self._applications, self._rng, cold, sample_cache
        )
        self._policy_factory = policy
        self._faults = faults
        self._retry = retry
        self._control = control
        self._last_policy: Optional[KeyedPolicy] = None

    @property
    def last_policy(self) -> Optional[KeyedPolicy]:
        """The policy instance built by the most recent :meth:`run`.

        Lets sweeps inspect per-run policy state after the fact — e.g.
        :attr:`~repro.cluster.schedulers.ShortestJobFirstPolicy.unknown_apps`
        to assert an estimate table covered the whole trace.
        """
        return self._last_policy

    def run(
        self,
        trace: RequestTrace,
        sample_interval_seconds: float = 1.0,
        engine: str = "auto",
        chunk_requests: Optional[int] = None,
    ) -> SimulationSeries:
        """Simulate ``trace`` and return the measurement series.

        Whatever the engine, the run first rejects a trace naming an
        unknown application (:class:`~repro.errors.SchedulingError`) and
        a policy that is not a
        :class:`~repro.cluster.schedulers.KeyedPolicy`
        (:class:`~repro.errors.ConfigurationError`), then calls the
        policy's coverage hook once per name in ``trace.app_catalog``,
        in catalog order, before any service draw.

        ``engine`` selects the execution strategy: ``"event"`` forces the
        event-driven oracle, ``"vectorized"`` the rack kernel over one
        whole-trace chunk (unsorted traces transparently fall back to
        the oracle), ``"streaming"`` the same kernel in constant
        memory (bounded chunks of at most ``chunk_requests`` arrivals
        folded into a :class:`~repro.cluster.streaming.StreamedSeries`
        — bit-identical decisions and RNG stream, no whole-trace
        arrays), and ``"auto"``
        (default) vectorizes whenever it can.  ``chunk_requests`` is
        only meaningful with ``engine="streaming"``; streamed trace
        sources (:class:`~repro.cluster.trace.StreamedTrace`) *require*
        that engine.
        """
        if sample_interval_seconds <= 0:
            raise ConfigurationError(
                f"non-positive sample interval: {sample_interval_seconds}"
            )
        check_run_settings(engine, chunk_requests)
        if not isinstance(trace, RequestTrace) and engine != "streaming":
            raise ConfigurationError(
                "streamed trace sources require engine='streaming'; "
                f"got engine={engine!r} with {type(trace).__name__}"
            )
        # One rule for every engine: a trace naming an application this
        # simulation cannot serve is rejected before any service draw,
        # whether or not the request would have been admitted.
        for app_name in trace.app_catalog:
            if app_name not in self._applications:
                raise SchedulingError(f"unknown application {app_name!r}")

        if self._policy_factory is not None:
            queue = self._policy_factory.build()
        else:
            queue = FCFSPolicy()
        if not isinstance(queue, KeyedPolicy):
            raise ConfigurationError(
                "RackSimulation requires a keyed policy (a "
                "repro.cluster.schedulers.KeyedPolicy, ordered by a "
                "repro.cluster.policy_keys.PolicyKey); got "
                f"{type(queue).__name__}"
            )
        self._last_policy = queue
        for app_name in trace.app_catalog:
            queue.observe_app(app_name)

        if engine == "streaming":
            from repro.cluster.streaming import run_streaming

            if isinstance(trace, RequestTrace) and not self._time_ordered(
                trace
            ):
                raise ConfigurationError(
                    "engine='streaming' requires a time-ordered trace"
                )
            return run_streaming(
                self, queue, trace, sample_interval_seconds, chunk_requests
            )

        dynamics = self._fault_dynamics(trace)
        if dynamics is not None:
            from repro.cluster.chaos_engine import run_chaos_vectorized
            from repro.cluster.control_engine import (
                run_control_event,
                run_control_vectorized,
            )

            timeline, retry, plane = dynamics
            if engine != "event" and self._time_ordered(trace):
                if plane.active:
                    return run_control_vectorized(
                        self, queue, trace, sample_interval_seconds,
                        timeline, retry, plane,
                    )
                return run_chaos_vectorized(
                    self, queue, trace, sample_interval_seconds,
                    timeline, retry,
                )
            return run_control_event(
                self, queue, trace, sample_interval_seconds,
                timeline, retry, plane,
            )

        if engine != "event" and self._time_ordered(trace):
            # One kernel; its entries only label the run for the
            # benchmark's probes, which wrap each by name.
            entry = run_vectorized if type(queue) is FCFSPolicy else run_keyed
            return entry(self, queue, trace, sample_interval_seconds)

        events = EventQueue()
        busy = 0
        dropped = 0
        drop_times: List[float] = []
        latencies: List[float] = []
        completion_times: List[float] = []
        sample_times: List[float] = []
        queue_series: List[int] = []
        busy_series: List[int] = []

        def start_service(request: QueuedRequest, now: float) -> None:
            nonlocal busy
            busy += 1
            service = self.pools.draw(request.app_name)
            done = now + service
            events.push(Event(done, on_completion, (request, done)))

        def on_arrival(payload) -> None:
            request, now = payload
            if busy < self._max_instances:
                start_service(request, now)
            elif len(queue) < self._queue_depth:
                queue.push(request)
            else:
                nonlocal dropped
                dropped += 1
                drop_times.append(now)

        def on_completion(payload) -> None:
            nonlocal busy
            request, now = payload
            busy -= 1
            latencies.append(now - request.arrival)
            completion_times.append(now)
            if len(queue):
                start_service(queue.pop(), now)

        def on_sample(payload) -> None:
            now = payload
            sample_times.append(now)
            queue_series.append(len(queue))
            busy_series.append(busy)

        arrivals = []
        for sequence, arrival, app_name in zip(
            admission_ranks(trace.arrival_seconds),
            trace.arrival_seconds,
            trace.app_names,
        ):
            request = QueuedRequest(
                arrival=float(arrival), app_name=app_name, sequence=sequence
            )
            arrivals.append(
                Event(float(arrival), on_arrival, (request, float(arrival)))
            )
        events.push_many(arrivals)
        ticks = sample_tick_times(
            trace.duration_seconds, sample_interval_seconds
        )
        events.push_many(
            Event(tick, on_sample, tick) for tick in ticks.tolist()
        )

        while events:
            events.pop().fire()

        return SimulationSeries(
            sample_times=np.array(sample_times),
            queue_depth=np.array(queue_series),
            busy_instances=np.array(busy_series),
            completed_latency_seconds=np.array(latencies),
            completed_times=np.array(completion_times),
            dropped_requests=dropped,
            total_requests=len(trace),
            dropped_times=np.array(drop_times),
            dropped_reasons=np.zeros(len(drop_times), dtype=np.int8),
        )

    def _chaos_active(self) -> bool:
        """Whether faults or the retry layer perturb this simulation."""
        return (self._faults is not None and self._faults.active) or (
            self._retry is not None and self._retry.active
        )

    def _control_active(self) -> bool:
        """Whether the closed-loop control plane is engaged."""
        return self._control is not None and self._control.active

    def _fault_dynamics(
        self, trace
    ) -> Optional[Tuple[FaultTimeline, RetryPolicy, ControlPlane]]:
        """Timeline, retry policy and control plane of a fault-aware run.

        ``None`` when faults, retry and control are all inert: such a
        run takes the fault-free oracle or the kernel's quiet path
        (:func:`~repro.cluster.control_engine.quiet_dynamics`), so
        attaching no-op configuration objects changes nothing.
        Otherwise the run goes to the control family, with an inert
        ``ControlPlane()`` when only faults or retries are active —
        control subsumes chaos.
        """
        control = self._control_active()
        if not (control or self._chaos_active()):
            return None
        return (
            self._fault_timeline(trace),
            self._retry if self._retry is not None else RetryPolicy(),
            self._control if control else ControlPlane(),
        )

    def _fault_timeline(self, trace: RequestTrace) -> FaultTimeline:
        """Materialize the fault schedule over the trace horizon."""
        if self._faults is None:
            return FaultTimeline.empty(self._max_instances)
        return self._faults.materialize(
            self._max_instances, trace.duration_seconds
        )

    @staticmethod
    def _time_ordered(trace: RequestTrace) -> bool:
        arrivals = trace.arrival_seconds
        return len(arrivals) == 0 or bool(np.all(np.diff(arrivals) >= 0))

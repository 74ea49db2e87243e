"""Rack-scale discrete-event simulation (paper §6.1, §6.2.2).

Up to 200 function instances serve a request trace under FCFS scheduling
with a bounded queue (depth 10,000).  Per-request service times are drawn
from the execution model's latency distribution for the request's
application, pre-sampled in bulk for speed.  Outputs the queue-depth and
latency time series of Fig. 13 plus aggregate wall-clock statistics.

Two kinds of engine produce those series:

- ``engine="event"`` — the reference oracle: a timestamp-ordered event
  queue firing one callback per arrival, completion, and sample tick.
- ``engine="vectorized"`` — a numpy kernel, bit-identical to the oracle
  (same drops, same latencies, same series, same RNG end state) at a
  fraction of the wall-clock cost: the busy-period FCFS kernel in
  :mod:`repro.cluster.fast_engine`, or for keyed policies (SJF /
  criticality / DAG-aware — anything driven by a
  :class:`~repro.cluster.policy_keys.PolicyKey`) the index-priority
  kernel in :mod:`repro.cluster.policy_engine`, which batches
  contention-free stretches and dispatches congested ones through a
  primitive-heap loop.

The default ``engine="auto"`` vectorizes whenever the trace is
time-ordered; the event-driven oracle remains the fallback for unsorted
traces.  A vectorized run is its kernel over one whole-trace chunk,
folded into a retaining :class:`SeriesSink`; ``engine="streaming"``
runs the same kernel over bounded chunks, folded into a
:class:`~repro.cluster.streaming.StreamedSeries`.

Runs with active faults, retries or a control plane take one
fault-aware route: the control family, with an inert ``ControlPlane()``
when only faults or retries are active.  ``engine="event"`` and unsorted
traces run :func:`~repro.cluster.control_engine.run_control_event`;
every other run takes the control kernel, entered through
``run_control_vectorized`` (active plane) or ``run_chaos_vectorized``
(inert plane) when materialized.

Every engine rejects a trace naming an application the simulation does
not know, before any service draw.
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
from repro.core.model import ServerlessExecutionModel
from repro.cluster.trace import RequestTrace
from repro.errors import ConfigurationError, SchedulingError
from repro.serverless.application import Application
from repro.sim.event_queue import Event, EventQueue

# Number of latency samples pre-drawn per application.
_PRESAMPLE_COUNT = 4096

# Ceiling on one pool growth draw.  The pool doubles until a block
# would exceed this, then grows in fixed blocks: unbounded doubling
# makes the transient arrays inside a single ``sample_latencies`` call
# O(trace), which would defeat the streaming engines' constant-memory
# contract.  Part of the deterministic draw schedule shared by every
# engine — changing it changes results for any simulation consuming
# more than 2x this many samples per app.
_POOL_BLOCK_MAX = 32_768

_ENGINES = ("auto", "event", "vectorized", "streaming")


class ServiceSampleCache:
    """Memoised service-time draw blocks, shared across simulations.

    A sweep runs the same platform model over the same trace under many
    scenario knobs (instance counts, policies, cold starts); each run
    draws the same pre-sample blocks from the same RNG states.  The cache
    keys a draw by ``(model, application, count, cold, RNG state)`` and
    replays the stored block *and* the post-draw RNG state on a hit, so
    cached runs stay bit-identical to uncached ones.
    """

    def __init__(self) -> None:
        self._blocks: Dict[tuple, tuple] = {}
        # Strong refs keep id()-based keys unambiguous for the cache's
        # lifetime (a collected model's id could otherwise be reused).
        self._pinned: List[object] = []
        self.hits = 0
        self.misses = 0

    def draw(
        self,
        model: ServerlessExecutionModel,
        app: Application,
        rng: np.random.Generator,
        count: int,
        cold: bool = False,
    ) -> np.ndarray:
        key = (
            id(model),
            id(app),
            int(count),
            bool(cold),
            repr(rng.bit_generator.state),
        )
        cached = self._blocks.get(key)
        if cached is not None:
            values, state_after = cached
            rng.bit_generator.state = state_after
            self.hits += 1
            return values
        values = model.sample_latencies(app, rng, count, cold=cold)
        self._blocks[key] = (values, rng.bit_generator.state)
        self._pinned.append(model)
        self._pinned.append(app)
        self.misses += 1
        return values


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
        self._model = model
        self._applications = dict(applications)
        self._max_instances = max_instances
        self._queue_depth = queue_depth
        self._rng = np.random.default_rng(seed)
        self._policy_factory = policy
        self._cold = cold
        self._sample_cache = sample_cache
        self._faults = faults
        self._retry = retry
        self._control = control
        self._service_samples: Dict[str, np.ndarray] = {}
        self._service_cursor: Dict[str, int] = {}
        # Logical offset of each physical pool's first element: the
        # streaming engines compact consumed prefixes away, but the
        # doubling growth schedule (and hence RNG consumption) is
        # computed on the logical length, so draws stay identical.
        self._service_trim: Dict[str, int] = {}
        # Bounded-pool mode (streamed trace sources): block draws larger
        # than this window retain only their leading slice; the rest is
        # re-materialized on demand by replaying the recorded RNG state
        # on a clone.  None = keep every drawn sample (default).
        self._service_window: Optional[int] = None
        # Per-app FIFO of partially materialized blocks:
        # [pre-draw bit-generator state, block length, samples already
        # appended to the physical pool].  Only the head block may have
        # a prefix in the pool; later blocks wait in full.
        self._service_pending: Dict[str, List[List[object]]] = {}
        self._last_policy: Optional[KeyedPolicy] = None

    @property
    def last_policy(self) -> Optional[KeyedPolicy]:
        """The policy instance built by the most recent :meth:`run`.

        Lets sweeps inspect per-run policy state after the fact — e.g.
        :attr:`~repro.cluster.schedulers.ShortestJobFirstPolicy.unknown_apps`
        to assert an estimate table covered the whole trace.
        """
        return self._last_policy

    def _draw_service_block(
        self,
        app_name: str,
        count: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Draw ``count`` service times for ``app_name`` from the RNG."""
        app = self._applications.get(app_name)
        if app is None:
            raise SchedulingError(f"unknown application {app_name!r}")
        if rng is None:
            rng = self._rng
        if self._sample_cache is not None:
            return self._sample_cache.draw(
                self._model, app, rng, count, cold=self._cold
            )
        return self._model.sample_latencies(
            app, rng, count, cold=self._cold
        )

    def _pool_pending(self, app_name: str) -> int:
        """Drawn-but-not-yet-materialized sample count for ``app_name``."""
        blocks = self._service_pending.get(app_name)
        if not blocks:
            return 0
        return sum(int(length) - int(drawn) for _, length, drawn in blocks)

    def _pool_grow_block(self, app_name: str, size: int) -> np.ndarray:
        """One schedule draw; returns the slice to append to the pool.

        The live RNG always consumes the full block — the growth
        schedule is engine-invariant — but in bounded-pool mode only a
        window of samples is kept: the pre-draw bit-generator state is
        recorded and the remainder re-materialized later from a clone
        (:meth:`_pool_refill`).  Blocks drawn while earlier blocks are
        still pending contribute nothing to the pool yet (their turn
        comes in FIFO order), so the physical pool always holds one
        contiguous logical range.
        """
        window = self._service_window
        blocks = self._service_pending.get(app_name)
        if window is None or (size <= window and not blocks):
            return self._draw_service_block(app_name, size)
        state = self._rng.bit_generator.state
        block = self._draw_service_block(app_name, size)
        if blocks:
            blocks.append([state, size, 0])
            return block[:0]
        keep = min(window, size)
        if keep < size:
            self._service_pending[app_name] = [[state, size, keep]]
        return block[:keep].copy()

    def _pool_refill(self, app_name: str) -> np.ndarray:
        """Re-materialize the next window of the pending head block.

        Replays the block's recorded draw on a cloned generator — same
        state, same call, hence bit-identical values — and returns the
        next unmaterialized slice.  The live RNG is untouched.
        """
        blocks = self._service_pending[app_name]
        state, length, drawn = blocks[0]
        bitgen = type(self._rng.bit_generator)()
        bitgen.state = state
        block = self._draw_service_block(
            app_name, int(length), rng=np.random.Generator(bitgen)
        )
        window = self._service_window or int(length)
        take = block[int(drawn) : int(drawn) + window].copy()
        drawn = int(drawn) + len(take)
        if drawn >= int(length):
            blocks.pop(0)
            if not blocks:
                del self._service_pending[app_name]
        else:
            blocks[0][2] = drawn
        return take

    def _service_time(self, app_name: str) -> float:
        """Next pre-sampled service time for ``app_name``.

        The pool grows geometrically (doubling, capped at
        ``_POOL_BLOCK_MAX`` per block) when exhausted instead of
        wrapping modulo its length — wrapping would replay the same
        sample sequence and correlate service times across a long trace.
        """
        samples = self._service_samples.get(app_name)
        if samples is None:
            samples = self._pool_grow_block(app_name, _PRESAMPLE_COUNT)
            self._service_samples[app_name] = samples
            self._service_cursor[app_name] = 0
        cursor = self._service_cursor[app_name]
        trim = self._service_trim.get(app_name, 0)
        while cursor - trim >= len(samples):
            if self._pool_pending(app_name):
                fresh = self._pool_refill(app_name)
            else:
                # Logical length = discarded prefix + physical samples
                # (no pending remainder at this point).
                fresh = self._pool_grow_block(
                    app_name, min(trim + len(samples), _POOL_BLOCK_MAX)
                )
            samples = np.concatenate([samples, fresh])
            self._service_samples[app_name] = samples
        self._service_cursor[app_name] = cursor + 1
        return float(samples[cursor - trim])

    def run(
        self,
        trace: RequestTrace,
        sample_interval_seconds: float = 1.0,
        engine: str = "auto",
        chunk_requests: Optional[int] = None,
    ) -> SimulationSeries:
        """Simulate ``trace`` and return the measurement series.

        ``engine`` selects the execution strategy: ``"event"`` forces the
        event-driven oracle, ``"vectorized"`` a fast path (the FCFS
        busy-period kernel or, for keyed policies, the index-priority
        kernel, over one whole-trace chunk — unsorted traces
        transparently fall back to the oracle), ``"streaming"`` the same
        kernels in constant memory (bounded chunks of at most
        ``chunk_requests`` arrivals folded into a
        :class:`~repro.cluster.streaming.StreamedSeries` — bit-identical
        decisions and RNG stream, no whole-trace arrays), and ``"auto"``
        (default) vectorizes whenever it can.  ``chunk_requests`` is
        only meaningful with ``engine="streaming"``; streamed trace
        sources (:class:`~repro.cluster.trace.StreamedTrace`) *require*
        that engine.
        """
        if sample_interval_seconds <= 0:
            raise ConfigurationError(
                f"non-positive sample interval: {sample_interval_seconds}"
            )
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {_ENGINES}"
            )
        if chunk_requests is not None:
            if isinstance(chunk_requests, bool) or not isinstance(
                chunk_requests, int
            ):
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
        self._last_policy = queue

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

        dynamics = self._fault_dynamics(queue, trace)
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

        if engine != "event":
            if self._vectorizable(queue, trace):
                return run_vectorized(self, trace, sample_interval_seconds)
            if self._keyed_vectorizable(queue, trace):
                return run_keyed(self, queue, trace, sample_interval_seconds)

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
            service = self._service_time(request.app_name)
            done = now + service
            events.push(Event(done, on_completion, (request, done)))

        # Queued requests are observed by push; immediate starts are
        # observed on arrival so coverage accounting (e.g. SJF
        # unknown_apps) sees every admitted application.  External
        # policies written against the pre-hook protocol may not
        # implement observe_app — tolerate its absence.
        observe_app = getattr(queue, "observe_app", lambda app_name: None)

        def on_arrival(payload) -> None:
            request, now = payload
            if busy < self._max_instances:
                observe_app(request.app_name)
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
        self, queue, trace
    ) -> Optional[Tuple[FaultTimeline, RetryPolicy, ControlPlane]]:
        """Timeline, retry policy and control plane of a fault-aware run.

        ``None`` when faults, retry and control are all inert: such a
        run stays on the fault-free engines, so attaching no-op
        configuration objects changes nothing.  Otherwise the run goes
        to the control family, with an inert ``ControlPlane()`` when
        only faults or retries are active — control subsumes chaos.
        """
        control = self._control_active()
        if not (control or self._chaos_active()):
            return None
        if not isinstance(queue, KeyedPolicy):
            raise ConfigurationError(
                "fault injection, retries and the control plane require "
                "a keyed policy (one built on "
                "repro.cluster.policy_keys.PolicyKey); got "
                f"{type(queue).__name__}"
            )
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

    @staticmethod
    def _vectorizable(queue, trace: RequestTrace) -> bool:
        """FCFS over a time-ordered trace is what the fast engine models.

        Exactly :class:`FCFSPolicy`, not subclasses: the busy-period
        engine has no ``observe_app`` calls, so a subclass carrying a
        coverage hook routes to the keyed engine instead (same results,
        the hook honoured).
        """
        return type(queue) is FCFSPolicy and RackSimulation._time_ordered(
            trace
        )

    @staticmethod
    def _keyed_vectorizable(queue, trace: RequestTrace) -> bool:
        """Any priority-key policy routes to the index-priority engine."""
        return isinstance(queue, KeyedPolicy) and RackSimulation._time_ordered(
            trace
        )

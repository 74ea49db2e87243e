"""The rack kernel, and the fault-aware oracle it is checked against.

One kernel, :func:`control_kernel`, serves every keyed-policy run on a
time-ordered trace: FCFS, SJF, criticality and DAG-aware, with or
without faults, retries and a control plane, materialized or streamed.

A fault-aware run perturbs the rack.  A
:class:`~repro.cluster.faults.FaultTimeline` steps fleet capacity up
and down (crashes kill the in-flight requests with the latest
completions and shrink capacity; recoveries dispatch the backlog),
slowdown windows scale service times, and a
:class:`~repro.cluster.faults.RetryPolicy` times out queued requests,
re-injects failed attempts with backoff, and hedges started requests
with a backup copy.  A :class:`~repro.cluster.control.ControlPlane`
evaluated at a fixed control interval closes the loop: reactive
autoscaling (live capacity becomes ``min(autoscaled, surviving)``,
where ``surviving`` is the fault timeline's step function) and overload
protection (token-bucket admission, CoDel-style queue shedding,
brownout by criticality, per-app circuit breaking — every shed a
terminal ``shed`` drop).  A run with nothing active gets an empty
timeline, ``RetryPolicy()`` and ``ControlPlane()``
(:func:`quiet_dynamics`).

Same-timestamp events follow a strict rank order, extending the base
simulator's ``arrival < tick < completion`` rule (a capacity crash is
ground truth the controller reacts to; control decisions precede the
traffic they govern):

    fault < control (decision before warmup activation)
          < timeout < arrival (trace before injected) < tick < completion

with completions tie-broken by start order.

Shared semantics, implemented twice:

- :func:`run_control_event` — the reference oracle: one ranked event
  heap with one handler per event kind (faults, control ticks, warmup
  activations, timeouts, arrivals, sample ticks, completions).
- :func:`control_kernel` — a next-event loop over the same sources.
  Faults and control events partition the timeline into capacity
  epochs; within one, trace arrivals are served in batches.
  Contention-free stretches run through the windowed pass A
  (``completion = arrival + service``, ``searchsorted`` occupancy
  checks, tentative-draw RNG rollback), the arrival gate applied as a
  vectorized mask (token spend committed only for the admitted prefix
  that actually starts; shed arrivals never touch the RNG).

  On a *quiet* run — nothing but completions can rank between two trace
  arrivals: an empty timeline, an inert plane and an inactive retry
  policy — congested stretches need no event walk.  A FIFO rack (one
  key prefix for the whole catalog) runs the multi-server recurrence
  over the ``cap`` server-free times, which fixes each request's start
  at admission, over windows whose queue-full drops are closed-form
  (pass B).  A keyed rack dispatches the min-``(*key, sequence)``
  request at each completion from a heap of server-free times, and what
  still waits when arrivals stop is dispatched like any waiting request.

  Otherwise congested stretches of a FIFO rack run through the FIFO
  pass: the same recurrence walked in event order with the gate,
  queue-full failures, timeouts and retries inline — re-injected
  requests waiting behind every trace request, as their keys say — and
  every service drawn at its start through a start-order read-ahead, so
  nothing is tentative (:mod:`repro.cluster.service_pools`: serial,
  windowed, read-ahead and bounded draws all consume the RNG in one
  order).  Keyed queues step serially through the keyed dispatch.

  In-flight requests are one columnar sorted run (:class:`_InFlight`),
  so completions retire as array slices while nobody waits.  The
  kernel walks the trace in chunks and folds its events into a
  telemetry sink (see :mod:`repro.cluster.fast_engine`):
  :func:`~repro.cluster.fast_engine.run_vectorized` (FCFS) and
  :func:`~repro.cluster.policy_engine.run_keyed` with nothing active,
  :func:`~repro.cluster.chaos_engine.run_chaos_vectorized` (inert
  plane) and :func:`run_control_vectorized` (active plane) are one
  whole-trace chunk into a retaining sink, ``engine="streaming"``
  bounded chunks into a :class:`~repro.cluster.streaming.StreamedSeries`.

Control subsumes chaos: a fault/retry run is a control run whose plane
does nothing.  An inert ``ControlPlane()`` schedules no decision ticks
and records no control telemetry, so :func:`run_control_event` with an
inert plane is the oracle of every fault/retry run, and
:class:`~repro.cluster.simulation.RackSimulation` sends every such run
on ``engine="event"`` or an unsorted trace there (a run with nothing
active goes to its inline fault-free oracle instead).

Failure handling is crash-only and loss-free in accounting terms: every
trace request ends as exactly one completion or one reasoned drop
(``queue_full`` / ``timeout`` / ``crashed`` / ``shed``), which
``tests/test_fault_property.py`` asserts for every engine and seed.  The
decision logic itself lives in one place —
:class:`~repro.cluster.control.ControllerState` — and is *shared*, not
re-implemented: both engines feed it the identical observations in the
identical order, which is what makes the control loop bit-identical by
construction (``tests/test_control_equivalence.py``,
``tests/test_fault_equivalence.py``, and the generated configurations
of ``tests/test_control_property.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.control import ControllerState, ControlPlane
from repro.cluster.fast_engine import (
    TickLog,
    admission_ranks,
    admitted_counts,
    checked_chunks,
    key_prefixes,
    occupancy_cut,
    sample_tick_times,
)
from repro.cluster.faults import (
    REASON_CRASHED,
    REASON_QUEUE_FULL,
    REASON_SHED,
    REASON_TIMEOUT,
    FaultTimeline,
    RetryPolicy,
)
from repro.cluster.policy_keys import KeyedQueue
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace

_INF = float("inf")

# Adaptive window sizing for the batched passes: grow while windows commit
# whole, shrink back after a cut so drop bursts do not waste vector work.
_WINDOW_MIN = 512
_WINDOW_MAX = 32_768

# Same-timestamp event ranks (see module docstring).
_RANK_FAULT = 0
_RANK_CONTROL = 1
_RANK_TIMER = 2
_RANK_ARRIVAL = 3
_RANK_TICK = 4
_RANK_COMPLETION = 5


def _live_series(
    state: ControllerState, ticks: np.ndarray
) -> np.ndarray:
    """Live-capacity value at each sample tick, from the change log.

    Live changes happen at control events (rank before the sample
    tick), so a change at a tick's own timestamp is visible to it —
    ``side="right"``.
    """
    times = np.asarray([t for t, _ in state.live_log])
    values = np.asarray([v for _, v in state.live_log], dtype=np.int64)
    idx = np.searchsorted(times, ticks, side="right") - 1
    return values[np.maximum(idx, 0)]


def _decision_ticks(trace, plane: ControlPlane) -> List[float]:
    """Control decision times: none for an inert plane.

    An inert plane decides nothing, so its ticks could only cut pass-A
    windows; skipping them keeps a fault/retry run free of control
    events on both engines.
    """
    if not plane.active:
        return []
    return sample_tick_times(
        trace.duration_seconds, plane.control_interval_seconds
    ).tolist()


def _control_telemetry(
    state: ControllerState, ticks: np.ndarray, completed_app_ids: np.ndarray
) -> Dict[str, object]:
    """The control-plane fields of a run's series: empty when inert.

    An inert plane records no control telemetry, so a fault/retry run
    reports the same series whichever engine family served it.
    """
    if not state.plane.active:
        return {}
    return dict(
        live_instances=_live_series(state, ticks),
        completed_app_ids=completed_app_ids,
        app_catalog=tuple(state.app_names),
        scale_ups=state.scale_ups,
        scale_downs=state.scale_downs,
    )


def run_control_event(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
    plane: ControlPlane,
) -> "SimulationSeries":
    """The rack simulator's fault-aware reference oracle (explicit
    ranked event heap).

    Requests are ``(qseq, orig_seq, attempt, app_name, orig_arrival)``
    tuples: ``qseq`` is the admission sequence the policy key
    tie-breaks on (the request's rank in (arrival, trace index) order
    for first attempts, ``n + retry#`` for re-arrivals, so retries never
    jump ahead of equal-key originals), ``orig_seq`` indexes the trace
    request (and the retry jitter hash), and latency is always measured
    from ``orig_arrival``.  Capacity is ``min(live, surviving)``: fault
    events move ``surviving`` (and kill in-flight work down to it —
    crashes kill), control events move ``live`` (scale-downs drain
    gracefully, killing nothing).

    With an inert ``plane`` this is the oracle of fault/retry runs: no
    decision ticks fire and no control telemetry is recorded, which is
    exactly the result the control kernel must reproduce for them.
    """
    from repro.cluster.simulation import SimulationSeries

    arrivals = np.asarray(trace.arrival_seconds, dtype=np.float64)
    n = len(arrivals)
    if n and float(arrivals[0]) < 0:
        raise SimulationError(
            f"event scheduled at negative time {float(arrivals[0])}"
        )
    qmax = sim._queue_depth
    timeout = retry.timeout_seconds
    hedge = retry.hedge_after_seconds
    max_retries = retry.max_retries
    multiplier_at = timeline.multiplier_at
    key_for = policy.key.key_for
    service_time = sim.pools.draw

    app_names = list(trace.app_catalog)
    name_to_id = {name: i for i, name in enumerate(app_names)}
    state = ControllerState(plane, sim._max_instances, app_names)
    controlled = plane.active
    windows = state.windows_active
    surviving = timeline.initial_capacity
    cap = min(state.live, surviving)

    events: List[tuple] = []
    counter = count()

    queue = KeyedQueue()
    # qseq -> (enqueue time, heap sort key); doubles as the queued set.
    queued: Dict[int, Tuple[float, tuple]] = {}
    handles: Dict[int, object] = {}
    in_flight: Dict[int, tuple] = {}  # start_seq -> (completion, request)
    killed: Set[int] = set()
    busy = 0
    start_counter = 0
    retry_counter = 0

    dropped = 0
    drop_times: List[float] = []
    drop_reasons: List[int] = []
    latencies: List[float] = []
    completion_times: List[float] = []
    completed_ids: List[int] = []
    queue_series: List[int] = []
    busy_series: List[int] = []
    retries = timeouts = crash_kills = 0
    hedges_launched = hedge_wins = 0

    def start_service(request: tuple, now: float) -> None:
        nonlocal busy, start_counter, hedges_launched, hedge_wins
        app_name = request[3]
        sample = service_time(app_name)
        mult = multiplier_at(now)
        effective = mult * sample
        if hedge is not None:
            backup = service_time(app_name)
            alternative = hedge + mult * backup
            if effective > hedge:
                hedges_launched += 1
            if alternative < effective:
                hedge_wins += 1
                effective = alternative
        done = now + effective
        seq = start_counter
        start_counter += 1
        in_flight[seq] = (done, request)
        busy += 1
        heappush(
            events, (done, _RANK_COMPLETION, next(counter), _on_completion, seq)
        )

    def fail(request: tuple, reason: int, now: float) -> None:
        nonlocal dropped, retries, retry_counter
        if windows:
            state.record_failure(name_to_id[request[3]])
        if request[2] < max_retries:
            retries += 1
            delay = retry.backoff_seconds(request[1], request[2])
            reattempt = (
                n + retry_counter,
                request[1],
                request[2] + 1,
                request[3],
                request[4],
            )
            retry_counter += 1
            heappush(
                events,
                (now + delay, _RANK_ARRIVAL, next(counter), _on_arrival, reattempt),
            )
        else:
            dropped += 1
            drop_times.append(now)
            drop_reasons.append(reason)

    def shed(now: float) -> None:
        """A terminal shed drop — never retried, never a 'failure'."""
        nonlocal dropped
        dropped += 1
        drop_times.append(now)
        drop_reasons.append(REASON_SHED)

    def dispatch(now: float) -> None:
        request = queue.pop()
        queued.pop(request[0], None)
        start_service(request, now)

    def _on_arrival(request: tuple, now: float) -> None:
        app_name = request[3]
        if not state.admit(name_to_id[app_name]):
            shed(now)
            return
        if busy < cap:
            start_service(request, now)
        elif len(queue) < qmax:
            qseq = request[0]
            sort_key = (*key_for(app_name), qseq)
            handles[qseq] = queue.push(sort_key, request)
            queued[qseq] = (now, sort_key)
            if timeout is not None:
                heappush(
                    events,
                    (now + timeout, _RANK_TIMER, next(counter), _on_timer, request),
                )
        else:
            fail(request, REASON_QUEUE_FULL, now)

    def _on_timer(request: tuple, now: float) -> None:
        nonlocal timeouts
        qseq = request[0]
        if qseq not in queued:
            return  # already served, shed, or failed; stale timer
        queue.cancel(handles.pop(qseq))
        queued.pop(qseq)
        timeouts += 1
        fail(request, REASON_TIMEOUT, now)

    def _drain(now: float) -> None:
        while busy < cap and len(queue):
            dispatch(now)

    def _on_fault(new_cap: int, now: float) -> None:
        nonlocal surviving, cap, busy, crash_kills
        surviving = new_cap
        if surviving < busy:
            # Crashes kill: the in-flight requests that would finish
            # last die, down to the surviving machine count.  Graceful
            # scale-downs never enter here.
            victims = sorted(
                (done, seq) for seq, (done, _) in in_flight.items()
            )[surviving - busy:]
            for _, seq in reversed(victims):
                _, request = in_flight.pop(seq)
                killed.add(seq)
                busy -= 1
                crash_kills += 1
                fail(request, REASON_CRASHED, now)
        cap = min(state.live, surviving)
        _drain(now)

    def _on_control(payload: tuple, now: float) -> None:
        nonlocal cap
        kind, target = payload
        if kind == "tick":
            head_wait = None
            if queued:
                head_wait = now - min(t for t, _ in queued.values())
            shed_count, activation = state.on_tick(
                now, busy, len(queued), head_wait
            )
            if shed_count:
                victims = state.shed_victims(
                    [(qseq, key) for qseq, (_, key) in queued.items()],
                    shed_count,
                )
                for qseq in victims:
                    queue.cancel(handles.pop(qseq))
                    queued.pop(qseq)
                    shed(now)
            if activation is not None:
                at, live_target = activation
                heappush(
                    events,
                    (at, _RANK_CONTROL, next(counter), _on_control,
                     ("warmup", live_target)),
                )
        else:
            state.activate(now, target)
        cap = min(state.live, surviving)
        _drain(now)

    def _on_completion(seq: int, now: float) -> None:
        nonlocal busy
        if seq in killed:
            killed.discard(seq)
            return
        _, request = in_flight.pop(seq)
        busy -= 1
        latency = now - request[4]
        latencies.append(latency)
        completion_times.append(now)
        if controlled:
            app_id = name_to_id[request[3]]
            completed_ids.append(app_id)
            if windows:
                state.record_completion(app_id, latency)
        if len(queue) and busy < cap:
            dispatch(now)

    def _on_sample(_: object, now: float) -> None:
        queue_series.append(len(queue))
        busy_series.append(busy)

    for orig_seq, (qseq, arrival, app_name) in enumerate(
        zip(admission_ranks(arrivals), arrivals.tolist(), trace.app_names)
    ):
        request = (qseq, orig_seq, 0, app_name, arrival)
        heappush(
            events, (arrival, _RANK_ARRIVAL, next(counter), _on_arrival, request)
        )
    for t, capacity in zip(
        timeline.times.tolist(), timeline.capacities.tolist()
    ):
        heappush(events, (t, _RANK_FAULT, next(counter), _on_fault, int(capacity)))
    # Decision ticks are pushed at setup, so at an equal timestamp they
    # fire before any runtime-scheduled warmup activation (push order
    # breaks the rank tie) — the vectorized engine encodes the same rule.
    for tick in _decision_ticks(trace, plane):
        heappush(
            events,
            (tick, _RANK_CONTROL, next(counter), _on_control, ("tick", None)),
        )
    ticks = sample_tick_times(trace.duration_seconds, sample_interval_seconds)
    for tick in ticks.tolist():
        heappush(events, (tick, _RANK_TICK, next(counter), _on_sample, None))

    while events:
        when, _, _, handler, payload = heappop(events)
        handler(payload, when)

    return SimulationSeries(
        sample_times=ticks,
        queue_depth=np.array(queue_series),
        busy_instances=np.array(busy_series),
        completed_latency_seconds=np.array(latencies),
        completed_times=np.array(completion_times),
        dropped_requests=dropped,
        total_requests=n,
        dropped_times=np.array(drop_times),
        dropped_reasons=np.array(drop_reasons, dtype=np.int8),
        retries=retries,
        timeouts=timeouts,
        crash_kills=crash_kills,
        hedges_launched=hedges_launched,
        hedge_wins=hedge_wins,
        **_control_telemetry(
            state, ticks, np.array(completed_ids, dtype=np.int64)
        ),
    )


# Column dtypes of an in-flight row: completion, start sequence, original
# arrival, app id, original trace index, attempt.
_FLIGHT_DTYPES = (
    np.float64, np.int64, np.float64, np.intp, np.int64, np.int64
)


class _InFlight:
    """The requests in service, in canonical (completion, start order).

    Batched starts merge into one sorted run of columns — completion,
    start sequence, original arrival, app id, original trace index,
    attempt — with a list mirror of the completions, so everything
    before a time retires with one bisect, as array slices.  Requests
    started one at a time go to a small heap of row tuples in the same
    field order.  Ties follow the event queue: an arrival ranks before
    an equal-time completion, so a completion at exactly ``now`` stays
    in service.
    """

    __slots__ = ("_cols", "_done", "_head", "_next", "_heap")

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._reset([np.empty(0, dtype=dtype) for dtype in _FLIGHT_DTYPES])

    def _reset(self, cols: List[np.ndarray]) -> None:
        self._cols = cols
        self._done: List[float] = cols[0].tolist()
        self._head = 0
        self._next = self._done[0] if self._done else _INF

    def __len__(self) -> int:
        return len(self._done) - self._head + len(self._heap)

    def next_time(self) -> float:
        """The earliest completion in service (+inf when idle)."""
        heap = self._heap
        if heap and heap[0][0] < self._next:
            return heap[0][0]
        return self._next

    def push(self, row: tuple) -> None:
        """Add one serially started row."""
        heappush(self._heap, row)

    def pop(self) -> tuple:
        """Retire and return the earliest row."""
        heap = self._heap
        head = self._head
        if heap:
            top = heap[0]
            if top[0] < self._next or (
                top[0] == self._next and top[1] < int(self._cols[1][head])
            ):
                return heappop(heap)
        row = (self._done[head],) + tuple(
            column[head].item() for column in self._cols[1:]
        )
        head += 1
        self._head = head
        self._next = self._done[head] if head < len(self._done) else _INF
        return row

    def _absorb_heap(self) -> None:
        """Merge the serially started rows into the sorted run."""
        heap = self._heap
        if not heap:
            return
        self._heap = []
        head = self._head
        cols = [
            np.concatenate([column[head:], np.array(extra, dtype=dtype)])
            for column, extra, dtype in zip(
                self._cols, zip(*heap), _FLIGHT_DTYPES
            )
        ]
        order = np.lexsort((cols[1], cols[0]))
        self._reset([column[order] for column in cols])

    def add(
        self,
        done: np.ndarray,
        arrival: np.ndarray,
        app: np.ndarray,
        orig: np.ndarray,
        attempt: np.ndarray,
        first_seq: int,
    ) -> None:
        """Merge rows started in start order as sequences ``first_seq,
        first_seq + 1, ...`` — after every row in service."""
        self._absorb_heap()
        head = self._head
        seq = np.arange(first_seq, first_seq + len(done), dtype=np.int64)
        batch = (done, seq, arrival, app, orig, attempt)
        cols = [
            np.concatenate([column[head:], part])
            for column, part in zip(self._cols, batch)
        ]
        # Live rows come first and the batch is in start order, so a
        # stable sort on completion keeps start order among ties.
        order = np.argsort(cols[0], kind="stable")
        self._reset([column[order] for column in cols])

    def retire_before(
        self, now: float
    ) -> Tuple[List[tuple], Optional[List[np.ndarray]]]:
        """Retire every row completing strictly before ``now``.

        Returns ``(rows, columns)``: heap rows as tuples when only the
        heap holds such rows, else the run's slice as columns (the heap
        merged in first when both do); either part may be empty.
        """
        heap = self._heap
        if heap and heap[0][0] < now:
            if self._next >= now:
                rows = []
                while heap and heap[0][0] < now:
                    rows.append(heappop(heap))
                return rows, None
            self._absorb_heap()
        if self._next >= now:
            return [], None
        head = self._head
        cut = bisect_left(self._done, now, head)
        self._head = cut
        self._next = self._done[cut] if cut < len(self._done) else _INF
        return [], [column[head:cut] for column in self._cols]

    def completions(self) -> np.ndarray:
        """Every completion in service, ascending."""
        self._absorb_heap()
        return self._cols[0][self._head :]

    def latest(self, count: int) -> List[float]:
        """The ``count`` latest completions, ascending (a valid heap)."""
        self._absorb_heap()
        return self._done[len(self._done) - count :]

    def kill(self, count: int) -> List[tuple]:
        """Remove the ``count`` rows that would complete last; returns
        them latest first."""
        self._absorb_heap()
        end = len(self._done)
        lo = end - count
        victims = list(
            zip(*(column[lo:end].tolist() for column in self._cols))
        )
        victims.reverse()
        self._reset([column[self._head : lo] for column in self._cols])
        return victims


class _ControlRun:
    """The state one :func:`control_kernel` run walks, and its steps.

    Queue entries are request tuples ``(qseq, app_id, orig_seq, attempt,
    orig_arrival)``.  ``queued`` maps each waiting ``qseq`` to its
    (enqueue time, policy sort key) and is the membership test every
    lazy deletion checks.  On a FIFO rack (one key prefix for the whole
    catalog) trace requests wait in ``fifo_queue`` — qseq order,
    consumed from ``fifo_head`` — and only re-injected requests go to
    the key heap ``qheap``, behind every trace request as their keys
    say; on a keyed rack everything goes to ``qheap``.  A quiet FIFO
    rack queues nothing: the recurrence fixes a waiting request's start
    at admission, so it enters ``flight`` at once and ``busy`` counts it
    (:meth:`fifo_stretch`).
    """

    def __init__(
        self,
        sim: "RackSimulation",
        policy: "KeyedPolicy",
        source,
        sink,
        timeline: FaultTimeline,
        retry: RetryPolicy,
        plane: ControlPlane,
    ) -> None:
        self.sink = sink
        self.timeline = timeline
        self.retry = retry
        self.n = source.total_requests
        self.qmax = sim._queue_depth
        self.timeout = retry.timeout_seconds
        self.hedge = retry.hedge_after_seconds
        self.max_retries = retry.max_retries
        self.multiplier_at = timeline.multiplier_at
        self.service_time = sim.pools.draw

        app_names = list(source.app_catalog)
        self.app_names = app_names
        self.pools = sim.pools
        self.reader = sim.pools.read_ahead(app_names)
        self.prefixes, self.fifo_rack = key_prefixes(policy, app_names)

        state = ControllerState(plane, sim._max_instances, app_names)
        self.state = state
        self.controlled = plane.active
        self.windows = state.windows_active
        self.gating = state.gating_active
        self.surviving = timeline.initial_capacity
        self.cap = min(state.live, self.surviving)

        self.fault_times = timeline.times.tolist()
        self.fault_caps = timeline.capacities.tolist()
        self.has_slowdowns = len(timeline.slow_starts) > 0
        self.slow_starts = timeline.slow_starts.tolist()
        self.slow_ends = timeline.slow_ends.tolist()
        self.ctrl_times = _decision_ticks(source, plane)
        self.activations: List[Tuple[float, int, int]] = []
        self.activation_counter = count()
        # Nothing but completions can rank between two trace arrivals:
        # no fault or slowdown step, no control event, no timer, no
        # re-arrival, no gate, no hedge.  Such a run serves congested
        # stretches without the event walk (:meth:`fifo_stretch`,
        # :meth:`keyed_stretch`).
        self.quiet = (
            timeline.empty_timeline and not plane.active and not retry.active
        )

        # Tick-visible event logs.  ``pre`` events rank before an
        # equal-time sample tick (visible to it); queue pops at a
        # completion (``popped``: a dequeue and a start) rank after.
        ticks = sink.sample_times
        self.starts_pre = TickLog(ticks, inclusive=True)
        self.enqueued = TickLog(ticks, inclusive=True)
        self.dequeued_pre = TickLog(ticks, inclusive=True)
        self.popped = TickLog(ticks, inclusive=False)
        self.kills = TickLog(ticks, inclusive=True)
        self.completion_log = TickLog(ticks, inclusive=False)
        # Completions in canonical order: scalars, then array parts.
        self.done_times: List[float] = []
        self.done_latencies: List[float] = []
        self.done_apps: List[int] = []
        self.done_parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.drop_times: List[float] = []
        self.drop_reasons: List[int] = []

        self.qheap: List[tuple] = []
        self.fifo_queue: List[tuple] = []
        self.fifo_head = 0
        self.queued: Dict[int, Tuple[float, tuple]] = {}
        self.reinjected = 0  # waiting requests with qseq >= n
        self.timers: List[tuple] = []  # (deadline, push order, request)
        self.timer_counter = count()
        self.injected: List[tuple] = []  # (time, push order, request)
        self.injected_counter = count()
        self.flight = _InFlight()
        self.busy = 0
        self.start_counter = 0
        self.retry_counter = 0
        self.retries = self.timeouts = self.crash_kills = 0
        self.hedges_launched = self.hedge_wins = 0
        self.window_size = _WINDOW_MIN

        # The current chunk: arrays, list mirrors, global index of its
        # first request.
        self.arrivals = np.empty(0)
        self.app_ids = np.empty(0, dtype=np.intp)
        self.arrivals_list: List[float] = []
        self.ids_list: List[int] = []
        self.base = 0

    # ---- telemetry -----------------------------------------------------

    def _spill_done(self) -> None:
        if self.done_times:
            self.done_parts.append(
                (
                    np.array(self.done_times),
                    np.array(self.done_latencies),
                    np.array(self.done_apps, dtype=np.intp),
                )
            )
            self.done_times.clear()
            self.done_latencies.clear()
            self.done_apps.clear()

    def fold(self) -> None:
        """Fold the completions, drops and tick counts since the last
        fold into the sink."""
        self._spill_done()
        parts = self.done_parts
        if parts:
            times, latencies, apps = (
                np.concatenate(field) if len(parts) > 1 else field[0]
                for field in zip(*parts)
            )
            self.sink.fold_completions(
                times,
                latencies,
                apps.astype(np.int64) if self.controlled else None,
            )
            self.completion_log.extend(times)
            parts.clear()
        if self.drop_times:
            self.sink.fold_drops(
                np.array(self.drop_times),
                np.array(self.drop_reasons, dtype=np.int8),
            )
            self.drop_times.clear()
            self.drop_reasons.clear()
        for log in (
            self.starts_pre, self.enqueued, self.dequeued_pre,
            self.popped, self.kills, self.completion_log,
        ):
            log.count()

    def finalize(self):
        self.fold()
        sink = self.sink
        popped = self.popped.series()
        sink.busy_instances = (
            self.starts_pre.series()
            + popped
            - self.completion_log.series()
            - self.kills.series()
        )
        sink.queue_depth = (
            self.enqueued.series() - self.dequeued_pre.series() - popped
        )
        if self.controlled:
            sink.live_instances = _live_series(self.state, sink.sample_times)
            sink.app_catalog = tuple(self.app_names)
            sink.scale_ups = self.state.scale_ups
            sink.scale_downs = self.state.scale_downs
        sink.retries = self.retries
        sink.timeouts = self.timeouts
        sink.crash_kills = self.crash_kills
        sink.hedges_launched = self.hedges_launched
        sink.hedge_wins = self.hedge_wins
        return sink.finalize()

    # ---- serial steps --------------------------------------------------

    def start(
        self,
        app_id: int,
        now: float,
        orig_arrival: float,
        orig_seq: int,
        attempt: int,
        pre_tick: bool,
    ) -> None:
        name = self.app_names[app_id]
        sample = self.service_time(name)
        mult = self.multiplier_at(now)
        effective = mult * sample
        hedge = self.hedge
        if hedge is not None:
            backup = self.service_time(name)
            alternative = hedge + mult * backup
            if effective > hedge:
                self.hedges_launched += 1
            if alternative < effective:
                self.hedge_wins += 1
                effective = alternative
        seq = self.start_counter
        self.start_counter = seq + 1
        self.flight.push(
            (now + effective, seq, orig_arrival, app_id, orig_seq, attempt)
        )
        self.busy += 1
        if pre_tick:  # a post-tick start is a pop ``dispatch`` logs
            self.starts_pre.append(now)

    def fail(
        self, app_id: int, orig_seq: int, attempt: int, orig_arrival: float,
        reason: int, now: float,
    ) -> None:
        if self.windows:
            self.state.record_failure(app_id)
        if attempt < self.max_retries:
            self.retries += 1
            delay = self.retry.backoff_seconds(orig_seq, attempt)
            reattempt = (
                self.n + self.retry_counter, app_id, orig_seq, attempt + 1,
                orig_arrival,
            )
            self.retry_counter += 1
            heappush(
                self.injected,
                (now + delay, next(self.injected_counter), reattempt),
            )
        else:
            self.drop_times.append(now)
            self.drop_reasons.append(reason)

    def shed_drop(self, now: float) -> None:
        self.drop_times.append(now)
        self.drop_reasons.append(REASON_SHED)

    def unqueue(self, qseq: int) -> None:
        """Take a waiting request out of the queue (lazy deletion)."""
        del self.queued[qseq]
        if qseq >= self.n:
            self.reinjected -= 1

    def dispatch(self, now: float, pre_tick: bool) -> None:
        """Start the waiting request with the smallest key."""
        fifo = self.fifo_queue
        head = self.fifo_head
        queued = self.queued
        request = None
        while head < len(fifo):
            entry = fifo[head]
            head += 1
            if entry[0] in queued:
                request = entry
                break
        if head > 4096 and 2 * head > len(fifo):
            del fifo[:head]
            head = 0
        self.fifo_head = head
        if request is None:
            while True:
                request = heappop(self.qheap)[-5:]
                if request[0] in queued:
                    break
        self.unqueue(request[0])
        (self.dequeued_pre if pre_tick else self.popped).append(now)
        self.start(
            request[1], now, request[4], request[2], request[3], pre_tick
        )

    def drain(self, now: float) -> None:
        """Dispatch while servers are free (pre-tick: a capacity step)."""
        while self.queued and self.busy < self.cap:
            self.dispatch(now, True)

    def admit(self, request: tuple, now: float) -> None:
        qseq, app_id, orig_seq, attempt, orig_arrival = request
        if not self.state.admit(app_id):
            self.shed_drop(now)
            return
        if self.busy < self.cap:
            self.start(app_id, now, orig_arrival, orig_seq, attempt, True)
        elif len(self.queued) < self.qmax:
            key = self.prefixes[app_id] + (qseq,)
            if self.fifo_rack and qseq < self.n:
                self.fifo_queue.append(request)
            else:
                heappush(self.qheap, key + request[1:])
                if qseq >= self.n:
                    self.reinjected += 1
            self.queued[qseq] = (now, key)
            self.enqueued.append(now)
            if self.timeout is not None:
                heappush(
                    self.timers,
                    (now + self.timeout, next(self.timer_counter), request),
                )
        else:
            self.fail(
                app_id, orig_seq, attempt, orig_arrival, REASON_QUEUE_FULL, now
            )

    def complete(self, row: tuple) -> None:
        """Record one serially retired row."""
        done, _, arrival, app_id, _, _ = row
        latency = done - arrival
        if self.windows:
            self.state.record_completion(app_id, latency)
        self.done_times.append(done)
        self.done_latencies.append(latency)
        self.done_apps.append(app_id)
        self.busy -= 1

    def complete_columns(self, cols: List[np.ndarray]) -> None:
        """Record a retired run slice."""
        done, arrival, app = cols[0], cols[2], cols[3]
        latency = done - arrival
        if self.windows:
            for app_id, value in zip(app.tolist(), latency.tolist()):
                self.state.record_completion(app_id, value)
        self._spill_done()
        self.done_parts.append((done, latency, app))
        self.busy -= len(done)

    def retire(self, now: float) -> None:
        """Fire every completion strictly before ``now``.

        While requests wait, each completion frees a server for the
        current min-key request and they fire one by one; once the
        queue is empty the rest retire in bulk.
        """
        queued = self.queued
        flight = self.flight
        while queued and flight.next_time() < now:
            row = flight.pop()
            self.complete(row)
            if self.busy < self.cap:
                self.dispatch(row[0], False)
        self.retire_bulk(now)

    def retire_bulk(self, now: float) -> None:
        """Retire every completion strictly before ``now``, dispatching
        nothing."""
        rows, cols = self.flight.retire_before(now)
        for row in rows:
            self.complete(row)
        if cols is not None:
            self.complete_columns(cols)

    # ---- ranked events -------------------------------------------------

    def on_fault(self, k: int) -> None:
        """Surviving-capacity step ``k``; crashes kill."""
        t = self.fault_times[k]
        self.surviving = int(self.fault_caps[k])
        if self.surviving < self.busy:
            # The in-flight requests that would finish last die, down
            # to the surviving machine count.
            for row in self.flight.kill(self.busy - self.surviving):
                self.busy -= 1
                self.crash_kills += 1
                self.kills.append(t)
                self.fail(row[3], row[4], row[5], row[2], REASON_CRASHED, t)
        self.cap = min(self.state.live, self.surviving)
        self.drain(t)

    def earliest_enqueue(self) -> float:
        """The earliest enqueue time among waiting requests.

        On a FIFO rack trace requests wait in arrival order, so only the
        first live one and the re-injected ones can hold it.
        """
        queued = self.queued
        if not self.fifo_rack:
            return min(e for e, _ in queued.values())
        fifo = self.fifo_queue
        head = self.fifo_head
        while head < len(fifo) and fifo[head][0] not in queued:
            head += 1
        self.fifo_head = head
        earliest = fifo[head][4] if head < len(fifo) else _INF
        if self.reinjected:
            earliest = min(
                earliest,
                min(queued[entry[-5]][0] for entry in self.live_qheap()),
            )
        return earliest

    def live_qheap(self) -> List[tuple]:
        """The key heap without its stale entries.

        A FIFO rack pops this heap only once no trace request waits, so
        the entries of re-injected requests that timed out or were shed
        would otherwise pile up.
        """
        queued = self.queued
        self.qheap = [entry for entry in self.qheap if entry[-5] in queued]
        heapify(self.qheap)
        return self.qheap

    def on_decision(self, t: float) -> None:
        state = self.state
        queued = self.queued
        head_wait = None
        if queued:
            head_wait = t - self.earliest_enqueue()
        shed_count, activation = state.on_tick(
            t, self.busy, len(queued), head_wait
        )
        if shed_count:
            victims = state.shed_victims(
                [(qseq, key) for qseq, (_, key) in queued.items()],
                shed_count,
            )
            for qseq in victims:
                self.unqueue(qseq)
                self.dequeued_pre.append(t)
                self.shed_drop(t)
        if activation is not None:
            heappush(
                self.activations,
                (activation[0], next(self.activation_counter), activation[1]),
            )
        self.cap = min(state.live, self.surviving)
        self.drain(t)

    def on_activation(self) -> None:
        t, _, target = heappop(self.activations)
        self.state.activate(t, target)
        self.cap = min(self.state.live, self.surviving)
        self.drain(t)

    def on_timer(self) -> None:
        t, _, request = heappop(self.timers)
        if request[0] in self.queued:  # may have been served by a drain
            self.unqueue(request[0])
            self.dequeued_pre.append(t)
            self.timeouts += 1
            self.fail(
                request[1], request[2], request[3], request[4],
                REASON_TIMEOUT, t,
            )

    # ---- batched passes ------------------------------------------------

    def resize_window(self, whole: bool) -> None:
        """Grow the next window after a whole one, shrink it after a
        cut, so drop bursts do not waste vector work."""
        self.window_size = (
            min(self.window_size * 2, _WINDOW_MAX) if whole else _WINDOW_MIN
        )

    def pass_a(
        self, i: int, t_fault: float, t_control: float, t_injected: float
    ) -> int:
        """Serve a contention-free window from chunk index ``i``; returns
        the index of the first arrival it left.

        The window is cut at the chunk end, the next fault and control
        event (both ranked before arrivals: equal-time arrivals
        excluded), the next injected re-arrival (ranked after:
        equal-time included) and the first admitted arrival that would
        queue.
        """
        arrivals = self.arrivals
        n_chunk = len(self.arrivals_list)
        hi = min(n_chunk, i + self.window_size)
        if t_fault < _INF:
            hi = i + int(np.searchsorted(arrivals[i:hi], t_fault, side="left"))
        if t_control < _INF:
            hi = i + int(
                np.searchsorted(arrivals[i:hi], t_control, side="left")
            )
        if t_injected < _INF:
            hi = i + int(
                np.searchsorted(arrivals[i:hi], t_injected, side="right")
            )
        m = hi - i
        arr = arrivals[i:hi]
        ids = self.app_ids[i:hi]
        state = self.state
        # Arrival gate over the window.  No refill interleaves (windows
        # are cut at control events), so the mask equals the oracle's
        # arrival-by-arrival decisions.
        if self.gating:
            mask = state.gate_mask(ids)
            all_admitted = bool(mask.all())
        else:
            mask = None
            all_admitted = True
        if all_admitted:
            positions = None
            arr_adm = arr
            ids_adm = ids
            n_adm = m
        else:
            positions = np.nonzero(mask)[0]
            n_adm = int(positions.size)
            arr_adm = arr[positions]
            ids_adm = ids[positions]
        if n_adm == 0:
            # Every arrival in the window is shed: no capacity
            # interaction, the whole window commits as drops.
            self.drop_times.extend(arr.tolist())
            self.drop_reasons.extend([REASON_SHED] * m)
            self.resize_window(True)
            return hi
        hedge = self.hedge
        if hedge is not None:
            values = self.pools.peek(np.repeat(ids_adm, 2), self.app_names)
            first = values[0::2]
            backup = values[1::2]
        else:
            values = self.pools.peek(ids_adm, self.app_names)
            first = values
        if self.has_slowdowns:
            mults = self.timeline.multipliers(arr_adm)
            effective_first = mults * first
        else:
            mults = 1.0
            effective_first = first
        if hedge is not None:
            alternative = hedge + mults * backup
            effective = np.minimum(effective_first, alternative)
        else:
            effective = effective_first
        comp_opt = arr_adm + effective
        cut = occupancy_cut(
            self.busy,
            self.flight.completions(),
            arr_adm,
            np.sort(comp_opt),
            self.cap,
        )
        # cut >= 1: with busy < cap the first *admitted* arrival always
        # fits, so progress is guaranteed.
        if cut == n_adm:
            committed = m
        elif positions is None:
            committed = cut
        else:
            committed = int(positions[cut])
        self.pools.commit(2 * cut if hedge is not None else cut)
        state.consume(cut)
        if positions is not None:
            # Sheds below the committed boundary are final now; later
            # ones re-run through the serial gate (which sees the
            # post-spend token balance, as the oracle does).
            shed_at = np.nonzero(~mask[:committed])[0]
            self.drop_times.extend(arr[shed_at].tolist())
            self.drop_reasons.extend([REASON_SHED] * int(shed_at.size))
        if hedge is not None:
            self.hedges_launched += int(
                np.count_nonzero(effective_first[:cut] > hedge)
            )
            self.hedge_wins += int(
                np.count_nonzero(alternative[:cut] < effective_first[:cut])
            )
        self.starts_pre.extend(arr_adm[:cut])
        origs = (
            np.arange(cut) if positions is None else positions[:cut]
        ) + (self.base + i)
        self.begin(
            comp_opt[:cut], arr_adm[:cut], ids_adm[:cut], origs,
            np.zeros(cut, dtype=np.int64),
        )
        self.resize_window(committed == m)
        return i + committed

    def fifo_pass(self, i: int, cut: float, cut_rank: int) -> int:
        """Serve arrivals from chunk index ``i`` on a congested FIFO rack;
        returns the index of the first trace arrival it left.

        Entered at a trace arrival with every server busy or requests
        waiting, and runs to ``cut`` — the next fault (``cut_rank`` 0)
        or control event (2) — or, at the chunk end, to just after the
        last trace arrival (an equal-time injected one waits for the
        next chunk, whose arrivals rank first).  It walks the fault-free
        kernel's virtual-server recurrence over the ``cap`` server-free
        times (the latest completions in service) in the oracle's event
        order: before each arrival, the earliest timer fires if it ranks
        before the next server-free time, else that server starts the
        head trace request or, with none waiting, the re-injected one
        with the smallest key; each trace or injected arrival then
        passes the gate, starts at once when a server was free before
        it, waits when the queue has room, or fails queue-full, a retry
        re-arriving inside the pass when it lands before the cut.
        Services are drawn at each start, in the oracle's order, so
        nothing is tentative.  Requests still waiting at the end stay
        queued with their enqueue times, keys and timers.

        Ranks are doubled to stay integral: fault 0, control 2, timer 4,
        trace arrival 6, chunk end 7, injected arrival 8.
        """
        arrivals = self.arrivals_list
        ids = self.ids_list
        n_chunk = len(arrivals)
        base = self.base
        state = self.state
        fifo = self.fifo_queue
        queued = self.queued
        injected = self.injected
        fail = self.fail
        drop_times = self.drop_times
        drop_reasons = self.drop_reasons
        timeout = self.timeout
        timed = timeout is not None
        key = self.prefixes[0]  # the one key prefix of a FIFO rack
        qmax = self.qmax
        gating = self.gating
        blocked = state.app_blocked.tolist()
        tokens = (
            int(state.tokens) if gating and state.tokens is not None else _INF
        )
        spent = 0
        reader = self.reader
        runs = reader.runs
        read = reader.read
        refill = reader.refill
        adjust = (
            self._adjuster(arrivals[i])
            if self.has_slowdowns or self.hedge is not None
            else None
        )
        avail = self.flight.latest(self.cap)  # server-free times, a heap
        # Waiting trace requests sit in ``fifo`` from ``h`` on (stale
        # entries only before ``old_end``); re-injected ones in the key
        # heap, with their timers in ``rtimers`` as (deadline, enqueue
        # time, qseq, request).
        old_end = len(fifo)
        h = self.fifo_head
        r_waiting = self.reinjected
        t_waiting = len(queued) - r_waiting
        qheap = self.live_qheap() if r_waiting else self.qheap
        rtimers: List[tuple] = []
        if r_waiting:
            if timed:
                for entry in qheap:
                    entered = queued[entry[-5]][0]
                    rtimers.append(
                        (entered + timeout, entered, entry[-5], entry[-5:])
                    )
                heapify(rtimers)
        r_fresh: List[tuple] = []  # (enqueue time, request) queued here
        # Starts in start order: requests and completions, with the
        # queue-pop start times and the immediate ones apart (they rank
        # after and before an equal-time sample tick).
        begun: List[tuple] = []
        dones: List[float] = []
        popped: List[float] = []
        immediate: List[float] = []
        enqueued: List[float] = []
        timed_out: List[float] = []
        last = arrivals[n_chunk - 1]
        if last < cut:
            end, end_rank = last, 7
        else:
            end, end_rank = cut, cut_rank

        j = i
        while True:
            # The next arrival: a trace one ranks before an injected one.
            if j < n_chunk and (not injected or arrivals[j] <= injected[0][0]):
                t, rank = arrivals[j], 6
            elif injected:
                t, rank = injected[0][0], 8
            else:
                t, rank = _INF, 8
            take = t < end or (t == end and rank < end_rank)
            if take:
                bound, timers_in = t, True
            else:
                bound, timers_in = end, end_rank > 4
            # Queue events ranked before the bound.
            while t_waiting or r_waiting:
                free = avail[0]
                if t_waiting:
                    entry = fifo[h]
                    if h < old_end and entry[0] not in queued:
                        h += 1  # timed out or shed before this pass
                        continue
                if timed:
                    deadline = entry[4] + timeout if t_waiting else _INF
                    r_deadline = _INF
                    while rtimers:
                        if rtimers[0][2] in queued:
                            r_deadline = rtimers[0][0]
                            break
                        heappop(rtimers)  # started already
                    # Equal deadlines fire in enqueue order: time, then
                    # a trace arrival before an injected one.
                    r_first = r_deadline < deadline or (
                        r_deadline == deadline < _INF
                        and rtimers[0][1] < entry[4]
                    )
                    fire = r_deadline if r_first else deadline
                    if fire <= free:
                        # A timer ranks before an equal-time completion.
                        if fire > bound or (fire == bound and not timers_in):
                            break
                        if r_first:
                            _, _, qseq, request = heappop(rtimers)
                            del queued[qseq]
                            r_waiting -= 1
                        else:
                            request = entry
                            if h < old_end:
                                del queued[entry[0]]
                            h += 1
                            t_waiting -= 1
                        timed_out.append(fire)
                        fail(
                            request[1], request[2], request[3], request[4],
                            REASON_TIMEOUT, fire,
                        )
                        if injected and injected[0][0] < t:
                            break  # its retry re-arrives first
                        continue
                if free >= bound:
                    break
                if t_waiting:
                    request = entry
                    if h < old_end:
                        del queued[entry[0]]
                    h += 1
                    t_waiting -= 1
                else:
                    while qheap[0][-5] not in queued:
                        heappop(qheap)
                    request = heappop(qheap)[-5:]
                    del queued[request[0]]
                    r_waiting -= 1
                app_id = request[1]
                r = read[app_id]
                try:
                    service = runs[app_id][r]
                except IndexError:
                    service = refill(app_id)
                else:
                    read[app_id] = r + 1
                if adjust is not None:
                    service = adjust(app_id, free, service)
                done = free + service
                heapreplace(avail, done)
                popped.append(free)
                begun.append(request)
                dones.append(done)
            if injected and injected[0][0] < t:
                continue  # a timeout's retry re-arrives before arrival t
            if not take:
                break
            if rank == 6:
                app_id = ids[j]
                qseq = base + j
                request = (qseq, app_id, qseq, 0, t)
                j += 1
            else:
                request = heappop(injected)[2]
                qseq, app_id = request[0], request[1]
            if gating:
                if blocked[app_id] or tokens <= spent:
                    drop_times.append(t)
                    drop_reasons.append(REASON_SHED)
                    continue
                spent += 1
            if avail[0] < t:
                # A server was free before the arrival: nobody waits,
                # and the arrival starts at once.
                r = read[app_id]
                try:
                    service = runs[app_id][r]
                except IndexError:
                    service = refill(app_id)
                else:
                    read[app_id] = r + 1
                if adjust is not None:
                    service = adjust(app_id, t, service)
                done = t + service
                heapreplace(avail, done)
                immediate.append(t)
                begun.append(request)
                dones.append(done)
            elif t_waiting + r_waiting < qmax:
                enqueued.append(t)
                if rank == 6:
                    fifo.append(request)
                    t_waiting += 1
                else:
                    heappush(qheap, key + request)
                    queued[qseq] = (t, key + (qseq,))
                    r_waiting += 1
                    r_fresh.append((t, request))
                    if timed:
                        heappush(rtimers, (t + timeout, t, qseq, request))
            else:
                fail(
                    app_id, request[2], request[3], request[4],
                    REASON_QUEUE_FULL, t,
                )

        reader.close()
        self.fifo_head = h
        self.reinjected = r_waiting
        # The trace requests this pass queued and left waiting get their
        # keys; every request it queued and left waiting gets its timer,
        # pushed in enqueue order (equal deadlines fire in push order).
        fresh = fifo[max(h, old_end) :]
        for entry in fresh:
            queued[entry[0]] = (entry[4], key + (entry[0],))
        if timed:
            waiting = [(entry[4], 0, entry[0], entry) for entry in fresh]
            if r_fresh:
                waiting += [
                    (entered, 1, request[0], request)
                    for entered, request in r_fresh
                    if request[0] in queued
                ]
                waiting.sort()
            for entered, _, _, request in waiting:
                heappush(
                    self.timers,
                    (entered + timeout, next(self.timer_counter), request),
                )
        if h > 4096 and 2 * h > len(fifo):
            del fifo[:h]
            self.fifo_head = 0
        state.consume(spent)
        self.timeouts += len(timed_out)
        for log, times in (
            (self.starts_pre, immediate),
            (self.enqueued, enqueued),
            (self.dequeued_pre, timed_out),
            (self.popped, popped),
        ):
            if times:
                log.extend(np.array(times))
        if begun:
            _, app, orig, attempt, arrival = zip(*begun)
            self.begin(dones, arrival, app, orig, attempt)
        # The completions the recurrence passed through: every one
        # ranked before the end.
        self.retire_bulk(end)
        return j

    def _adjuster(self, now: float):
        """``adjust(app_id, start, sample)`` -> effective service time:
        the slowdown multiplier at the start (start times must not
        decrease from ``now`` on) and the hedged backup, as
        :meth:`start` applies them."""
        slow_starts = self.slow_starts
        slow_ends = self.slow_ends
        n_slow = len(slow_starts)
        slow_mult = self.timeline.slowdown_multiplier
        hedge = self.hedge
        reader = self.reader
        runs = reader.runs
        read = reader.read
        position = bisect_right(slow_starts, now)

        def adjust(app_id: int, start: float, sample: float) -> float:
            nonlocal position
            while position < n_slow and slow_starts[position] <= start:
                position += 1
            mult = 1.0
            if position and start < slow_ends[position - 1]:
                mult = slow_mult
            effective = mult * sample
            if hedge is not None:
                r = read[app_id]
                try:
                    backup = runs[app_id][r]
                except IndexError:
                    backup = reader.refill(app_id)
                else:
                    read[app_id] = r + 1
                alternative = hedge + mult * backup
                if effective > hedge:
                    self.hedges_launched += 1
                if alternative < effective:
                    self.hedge_wins += 1
                    effective = alternative
            return effective

        return adjust

    # ---- quiet congested stretches -------------------------------------

    def fifo_stretch(self, i: int) -> int:
        """Serve trace arrivals from chunk index ``i`` while a quiet FIFO
        rack's servers are all busy; returns the index of the first
        arrival to find one free, or the chunk end.

        Start order is admission order, so an admitted request starts at
        ``max(arrival, min(avail))``, ``avail`` the ``cap`` server-free
        times — the multi-server recurrence — and draws its service on
        arrival.  A waiting request therefore enters ``flight`` at
        admission, its queue pop and start logged ahead, and ``busy``
        counts everyone in the system — the started requests wherever
        nobody waits, and mid-chunk the stretch hands back to
        :meth:`run` only at an arrival that finds a server free.  Pass B
        runs the recurrence over windows, queue-full drops and all.
        """
        arrivals_list = self.arrivals_list
        n = len(arrivals_list)
        c = self.cap
        avail = None
        while i < n:
            self.retire_bulk(arrivals_list[i])
            occupied = self.busy
            if occupied < c:
                break
            if avail is None:
                # Pop-min/push-completion keeps the c server-free times
                # the c latest completions admitted so far, all still in
                # the system; ascending order is already a heap.
                avail = self.flight.latest(c)
            i, avail = self.pass_b(i, occupied, avail)
        return i

    def pass_b(
        self, i: int, occupied: int, avail: List[float]
    ) -> Tuple[int, Optional[List[float]]]:
        """Run the FIFO recurrence over a window from chunk index ``i``
        with ``occupied`` requests in the system; returns the index
        after what it committed, and ``avail`` — or ``None`` after a
        cut, whose later starts it assumed.

        Counting only the in-system completions strictly before each
        arrival, the window's admissions are closed-form
        (:func:`~repro.cluster.fast_engine.admitted_counts`); only the
        admitted requests draw and step the recurrence, and the others
        are queue-full drops.  A window completion strictly before a
        predicted drop frees a slot for it, so the window commits up to
        the first such drop.
        """
        capacity = self.cap + self.qmax
        arr = self.arrivals[i : i + self.window_size]
        ids = self.app_ids[i : i + self.window_size]
        m = len(arr)
        departed = np.searchsorted(
            self.flight.completions(), arr, side="left"
        )
        counts = admitted_counts(capacity - occupied + departed)
        steps = counts.copy()  # 1 at an admission, 0 at a drop
        steps[1:] -= counts[:-1]
        kept = steps.nonzero()[0]
        dropped = (steps == 0).nonzero()[0]
        ids_kept = ids[kept]
        arr_kept = arr[kept]
        values = self.pools.peek(ids_kept, self.app_names)
        frees_l: List[float] = []
        comps_l: List[float] = []
        append_free = frees_l.append
        append_comp = comps_l.append
        for arrival, service in zip(arr_kept.tolist(), values.tolist()):
            free = avail[0]
            append_free(free)
            completion = (arrival if arrival > free else free) + service
            append_comp(completion)
            heapreplace(avail, completion)
        comps = np.asarray(comps_l)
        cut = m
        admitted = len(kept)
        if admitted:
            # The first predicted drop after the window's first
            # completion finds a free slot after all: commit up to it.
            late = int(np.searchsorted(arr[dropped], comps.min(), "right"))
            if late < dropped.size:
                cut = int(dropped[late])
                admitted = int(counts[cut - 1])
                dropped = dropped[:late]
        self.pools.commit(admitted)
        if cut < m:
            # The closed form held for ``cut`` arrivals and will hold
            # about as far in the next window (a deep queue cuts every
            # long window at ``cap + qmax`` admissions); restarting at
            # the minimum would re-sort ``flight`` for each small window.
            self.window_size = min(max(2 * cut, _WINDOW_MIN), _WINDOW_MAX)
        else:
            self.resize_window(True)
        self.drop_times.extend(arr[dropped].tolist())
        self.drop_reasons.extend([REASON_QUEUE_FULL] * len(dropped))
        arr = arr_kept[:admitted]
        frees = np.asarray(frees_l[:admitted])
        # A server freed before the arrival starts it at once; one freed
        # at or after it pops it from the queue.
        waits = frees >= arr
        starts = frees[waits]
        self.starts_pre.extend(arr[~waits])
        self.enqueued.extend(arr[waits])
        self.popped.extend(starts)
        self.begin(
            comps[:admitted], arr, ids_kept[:admitted],
            kept[:admitted] + (self.base + i),
            np.zeros(admitted, dtype=np.int64),
        )
        return i + cut, avail if cut == m else None

    def keyed_stretch(self, i: int) -> int:
        """Serve trace arrivals from chunk index ``i`` while a quiet keyed
        rack is congested; returns the index of the first arrival to
        find the queue empty and a server free, or the chunk end.

        Each completion before an arrival hands its server to the queued
        request minimizing ``(*key, sequence)``, drawing its service at
        that start — the oracle's order.  Every server stays busy while
        a request waits, so an arrival here queues or, the queue full,
        is dropped.  The stretch walks the server-free times as a heap
        of floats and the key heap alone as the queue (nothing waits
        there that is not queued); the requests it starts join
        ``flight`` in batches, and ``queued`` is brought in line at the
        end.
        """
        arrivals_list = self.arrivals_list
        ids_list = self.ids_list
        n = len(arrivals_list)
        qheap = self.qheap
        prefixes = self.prefixes
        app_names = self.app_names
        service_time = self.service_time
        log_enqueue = self.enqueued.append
        cap = self.cap
        qmax = self.qmax
        base = self.base
        servers = self.flight.completions().tolist()  # ascending: a heap
        # The starts, by column: queue pop, completion, original
        # arrival, app id, trace index.
        started: Tuple[List, ...] = ([], [], [], [], [])
        pops, dones, arrivals, apps, origs = started
        while i < n:
            now = arrivals_list[i]
            # Completions strictly before this arrival fire first (equal
            # timestamps fire after: arrival < tick < completion); once
            # the queue is empty the rest just depart.
            while qheap and servers[0] < now:
                freed = servers[0]
                entry = heappop(qheap)
                app_id = entry[-4]
                completion = freed + service_time(app_names[app_id])
                heapreplace(servers, completion)
                pops.append(freed)
                dones.append(completion)
                arrivals.append(entry[-1])
                apps.append(app_id)
                origs.append(entry[-3])
            if len(pops) >= _WINDOW_MAX:
                # Hand a long stretch's starts over in bounded batches.
                self.start_queued(*started)
                self.retire_bulk(now)
                for column in started:
                    column.clear()
            if not qheap:
                while servers and servers[0] < now:
                    heappop(servers)
                if len(servers) < cap:
                    break
            if len(qheap) < qmax:
                app_id = ids_list[i]
                qseq = base + i
                entry = prefixes[app_id] + (qseq, app_id, qseq, 0, now)
                heappush(qheap, entry)
                log_enqueue(now)
            else:
                self.drop_times.append(now)
                self.drop_reasons.append(REASON_QUEUE_FULL)
            i += 1
        self.start_queued(*started)
        # What completed before the last arrival seen has departed, so
        # ``flight`` holds the requests in service (its servers).
        self.retire_bulk(now)
        queued = self.queued
        queued.clear()
        for entry in qheap:  # (enqueue time, sort key) of each waiting one
            queued[entry[-5]] = (entry[-1], entry[:-4])
        return i

    def start_queued(self, pops, dones, arrivals, apps, origs) -> None:
        """Start trace requests popped from the queue at ``pops`` (after
        an equal-time sample tick), in start order: columns of
        completion, original arrival, app id and trace index."""
        if len(pops):
            self.popped.extend(np.array(pops))
            self.begin(
                dones, arrivals, apps, origs,
                np.zeros(len(pops), dtype=np.int64),
            )

    def begin(self, done, arrival, app, orig, attempt) -> None:
        """Add requests started in start order — columns of completion,
        original arrival, app id, trace index and attempt — to
        ``flight``, as the next start sequences."""
        count = len(done)
        if count:
            self.flight.add(
                np.asarray(done, dtype=np.float64),
                np.asarray(arrival, dtype=np.float64),
                np.asarray(app, dtype=np.intp),
                np.asarray(orig, dtype=np.int64),
                np.asarray(attempt, dtype=np.int64),
                self.start_counter,
            )
            self.start_counter += count
            self.busy += count

    # ---- the next-event loop -------------------------------------------

    def run(self, chunks) -> None:
        fault_times = self.fault_times
        n_faults = len(fault_times)
        ctrl_times = self.ctrl_times
        n_ctrl = len(ctrl_times)
        activations = self.activations
        timers = self.timers
        injected = self.injected
        queued = self.queued
        fifo_rack = self.fifo_rack
        flight = self.flight
        n_chunk = 0
        i = 0  # chunk-local index of the next trace arrival
        k = 0  # next fault event
        jc = 0  # next decision tick
        while True:
            if i == n_chunk and chunks is not None:
                # The next trace arrival opens the next chunk: fetch it
                # before ranking events, folding the finished chunk's.
                fetched = next(chunks, None)
                if fetched is None:
                    chunks = None
                else:
                    if n_chunk:
                        self.fold()
                        self.pools.compact()
                    self.base += n_chunk
                    self.arrivals, self.app_ids = fetched
                    self.arrivals_list = self.arrivals.tolist()
                    self.ids_list = self.app_ids.tolist()
                    n_chunk = len(self.arrivals_list)
                    i = 0
            if not queued:
                if timers:
                    timers.clear()
            else:
                while timers and timers[0][2][0] not in queued:
                    heappop(timers)

            t_fault = fault_times[k] if k < n_faults else _INF
            t_decision = ctrl_times[jc] if jc < n_ctrl else _INF
            t_activation = activations[0][0] if activations else _INF
            t_control = min(t_decision, t_activation)
            t_timer = timers[0][0] if timers else _INF
            t_trace = self.arrivals_list[i] if i < n_chunk else _INF
            t_injected = injected[0][0] if injected else _INF
            t_next = min(t_fault, t_control, t_timer, t_trace, t_injected)

            # Completions strictly before the next ranked event fire
            # first (completion has the last rank), in the canonical
            # (completion, start order), feeding the telemetry window
            # the controller reads at its next tick.
            if flight.next_time() < t_next:
                self.retire(t_next)
            if t_next == _INF:
                break

            if t_fault == t_next:
                self.on_fault(k)
                k += 1
            elif t_control == t_next:
                # A decision tick ranks before a warmup activation.
                if t_decision <= t_activation:
                    jc += 1
                    self.on_decision(t_decision)
                else:
                    self.on_activation()
            elif t_timer == t_next:
                self.on_timer()
            elif t_trace == t_next and t_trace <= t_injected:
                # A trace arrival ranks before an injected one.
                if not (queued or self.busy >= self.cap):
                    i = self.pass_a(i, t_fault, t_control, t_injected)
                elif self.quiet and fifo_rack:
                    i = self.fifo_stretch(i)
                elif self.quiet:
                    i = self.keyed_stretch(i)
                elif fifo_rack:
                    if t_fault <= t_control:
                        i = self.fifo_pass(i, t_fault, 0)
                    else:
                        i = self.fifo_pass(i, t_control, 2)
                else:
                    self.admit(
                        (self.base + i, self.ids_list[i], self.base + i, 0,
                         t_trace),
                        t_trace,
                    )
                    i += 1
            else:
                _, _, request = heappop(injected)
                self.admit(request, t_injected)


def quiet_dynamics(
    sim: "RackSimulation",
) -> Tuple[FaultTimeline, RetryPolicy, ControlPlane]:
    """The fault timeline, retry policy and plane of a run with nothing
    active: an empty timeline at ``sim``'s full capacity,
    ``RetryPolicy()`` and ``ControlPlane()``."""
    return (
        FaultTimeline.empty(sim._max_instances), RetryPolicy(), ControlPlane()
    )


def control_kernel(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sink,
    chunk_requests: int,
    timeline: FaultTimeline,
    retry: RetryPolicy,
    plane: ControlPlane,
):
    """Serve ``source`` with faults, retries and ``plane``, chunk by
    chunk; returns ``sink.finalize()``.

    A next-event loop over faults, control events (decision ticks,
    warmup activations), timeout timers, trace arrivals, injected
    re-arrivals and completions, ordered by the module's rank rule.
    Trace arrivals are served in batches wherever they can be:

    - with an empty queue and capacity to spare, a contention-free
      window goes through pass A (:meth:`_ControlRun.pass_a`), cut at
      the first admitted arrival that would queue, the next fault and
      control event, the next injected re-arrival and the chunk end,
      with the arrival gate as a vectorized mask (token spend committed
      only for the admitted prefix that starts) and tentative service
      draws rolled back past the cut;
    - on a congested quiet run (an empty ``timeline``, an inert
      ``plane`` and an inactive ``retry``), a FIFO rack runs the
      virtual-server recurrence over windows with closed-form
      queue-full drops (:meth:`_ControlRun.fifo_stretch`) and a keyed
      rack the key-heap dispatch (:meth:`_ControlRun.keyed_stretch`);
    - on any other congested rack whose catalog shares one key prefix
      (FCFS), the FIFO pass (:meth:`_ControlRun.fifo_pass`) serves
      trace and injected arrivals up to the next fault, control event
      or chunk end through the virtual-server recurrence, with the
      gate, queue-full failures, timeouts and retries inline;
    - otherwise (a keyed queue) an arrival steps serially through the
      keyed dispatch.

    In-flight requests live in one columnar :class:`_InFlight`, so
    completions come out in canonical (completion, start order) — one
    bisect and array slices while the queue is empty, one by one while
    they dispatch waiting requests.  Folds into ``sink`` at every chunk
    boundary after the first and once at the end; pools compact at the
    same boundaries.  An inert plane fires no decision ticks and
    records no control telemetry.
    """
    run = _ControlRun(sim, policy, source, sink, timeline, retry, plane)
    run.run(checked_chunks(source, chunk_requests))
    return run.finalize()


def run_control_vectorized(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
    plane: ControlPlane,
) -> "SimulationSeries":
    """Simulate ``trace`` under ``plane``: :func:`control_kernel` over one
    whole-trace chunk into a retaining sink.  Bit-identical to
    :func:`run_control_event`."""
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return control_kernel(
        sim, policy, trace, sink, max(len(trace), 1), timeline, retry, plane
    )

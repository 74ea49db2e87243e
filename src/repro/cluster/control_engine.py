"""The fault-aware rack engines: the control oracle and the control kernel.

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
terminal ``shed`` drop).

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
  epochs; within one, contention-free stretches run through the windowed
  pass A of the fault-free kernels (``completion = arrival + service``,
  ``searchsorted`` occupancy checks, tentative-draw RNG rollback), the
  arrival gate applied as a vectorized mask (token spend committed only
  for the admitted prefix that actually starts; shed arrivals never
  touch the RNG), and congested stretches step serially through the
  keyed dispatch.  Like every rack kernel it walks the trace in chunks
  and folds its events into a telemetry sink (see
  :mod:`repro.cluster.fast_engine`): :func:`run_control_vectorized`
  (active plane) and
  :func:`~repro.cluster.chaos_engine.run_chaos_vectorized` (inert
  plane) are one whole-trace chunk into a retaining sink,
  ``engine="streaming"`` bounded chunks into a
  :class:`~repro.cluster.streaming.StreamedSeries`.

Control subsumes chaos: a fault/retry run is a control run whose plane
does nothing.  An inert ``ControlPlane()`` schedules no decision ticks
and records no control telemetry, so :func:`run_control_event` with an
inert plane is the oracle of every fault/retry run, and
:class:`~repro.cluster.simulation.RackSimulation` sends every such run
on ``engine="event"`` or an unsorted trace there.

Failure handling is crash-only and loss-free in accounting terms: every
trace request ends as exactly one completion or one reasoned drop
(``queue_full`` / ``timeout`` / ``crashed`` / ``shed``), which
``tests/test_fault_property.py`` asserts for every engine and seed.  The
decision logic itself lives in one place —
:class:`~repro.cluster.control.ControllerState` — and is *shared*, not
re-implemented: both engines feed it the identical observations in the
identical order, which is what makes the control loop bit-identical by
construction (``tests/test_control_equivalence.py``,
``tests/test_fault_equivalence.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from repro.cluster.control import ControllerState, ControlPlane
from repro.cluster.fast_engine import (
    _WINDOW_MAX,
    _WINDOW_MIN,
    TickLog,
    _ServicePools,
    admission_ranks,
    checked_chunks,
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
    observe_app = policy.observe_app
    key_for = policy.key.key_for
    service_time = sim._service_time

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
            observe_app(app_name)
            start_service(request, now)
        elif len(queue) < qmax:
            observe_app(app_name)
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
    Whenever the next event is a trace arrival with an empty queue and
    capacity to spare, a whole contention-free window is served at once
    — cut at the first admitted arrival that would queue, at the next
    fault and control event, at the next injected re-arrival and at the
    chunk end — with the arrival gate applied as a vectorized mask
    (token spend committed only for the admitted prefix that actually
    starts) and tentative service draws rolled back exactly as in the
    fault-free kernels; shed arrivals never touch the RNG.  In-flight
    starts live in a ``flight`` dict, so completions fold at
    pending-heap pops, already in canonical (completion, start order).
    Folds into ``sink`` at every chunk boundary after the first and
    once at the end; pools compact at the same boundaries.  An inert
    plane fires no decision ticks and records no control telemetry.
    """
    n = source.total_requests
    qmax = sim._queue_depth
    timeout = retry.timeout_seconds
    hedge = retry.hedge_after_seconds
    max_retries = retry.max_retries
    multiplier_at = timeline.multiplier_at
    observe_app = policy.observe_app
    service_time = sim._service_time

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    pools = _ServicePools(sim, app_names)
    prefixes = [policy.key.key_for(name) for name in app_names]

    state = ControllerState(plane, sim._max_instances, app_names)
    controlled = plane.active
    windows = state.windows_active
    gating = state.gating_active
    surviving = timeline.initial_capacity
    cap = min(state.live, surviving)

    fault_times = timeline.times.tolist()
    fault_caps = timeline.capacities.tolist()
    n_faults = len(fault_times)
    has_slowdowns = len(timeline.slow_starts) > 0

    ctrl_times = _decision_ticks(source, plane)
    n_ctrl = len(ctrl_times)
    jc = 0
    activations: List[Tuple[float, int, int]] = []  # (time, order, target)
    activation_counter = count()

    # Tick-visible event logs.  ``pre`` events rank before an equal-time
    # sample tick (visible to it), ``post`` events after it.
    ticks = sink.sample_times
    starts_pre = TickLog(ticks, inclusive=True)
    starts_post = TickLog(ticks, inclusive=False)
    enqueued = TickLog(ticks, inclusive=True)
    dequeued_pre = TickLog(ticks, inclusive=True)
    dequeued_post = TickLog(ticks, inclusive=False)
    kills = TickLog(ticks, inclusive=True)
    completion_log = TickLog(ticks, inclusive=False)
    logs = (
        starts_pre, starts_post, enqueued, dequeued_pre, dequeued_post,
        kills, completion_log,
    )
    done_times: List[float] = []
    done_latencies: List[float] = []
    done_apps: List[int] = []
    drop_times: List[float] = []
    drop_reasons: List[int] = []

    def fold() -> None:
        if done_times:
            times = np.array(done_times)
            sink.fold_completions(
                times,
                np.array(done_latencies),
                np.array(done_apps, dtype=np.int64) if controlled else None,
            )
            completion_log.extend(times)
            done_times.clear()
            done_latencies.clear()
            done_apps.clear()
        if drop_times:
            sink.fold_drops(
                np.array(drop_times), np.array(drop_reasons, dtype=np.int8)
            )
            drop_times.clear()
            drop_reasons.clear()
        for log in logs:
            log.count()

    # Queue entries: ``prefix + request`` where a request is the tuple
    # ``(qseq, app_id, orig_seq, attempt, orig_arrival)``.
    qheap: List[tuple] = []
    # qseq -> (enqueue time, heap sort key); doubles as the queued set.
    queued: Dict[int, Tuple[float, tuple]] = {}
    timers: List[tuple] = []  # (deadline, push order, request)
    injected: List[tuple] = []  # (time, push order, request)
    pending: List[Tuple[float, int]] = []  # (completion, start_seq), live only
    # start_seq -> (completion, orig_arrival, orig_seq, attempt, app_id)
    flight: Dict[int, Tuple[float, float, int, int, int]] = {}
    timer_counter = count()
    injected_counter = count()
    busy = 0
    start_counter = 0
    retry_counter = 0
    retries = timeouts = crash_kills = 0
    hedges_launched = hedge_wins = 0

    def start(
        app_id: int,
        now: float,
        orig_arrival: float,
        orig_seq: int,
        attempt: int,
        pre_tick: bool,
    ) -> None:
        nonlocal busy, start_counter, hedges_launched, hedge_wins
        sample = service_time(app_names[app_id])
        mult = multiplier_at(now)
        effective = mult * sample
        if hedge is not None:
            backup = service_time(app_names[app_id])
            alternative = hedge + mult * backup
            if effective > hedge:
                hedges_launched += 1
            if alternative < effective:
                hedge_wins += 1
                effective = alternative
        done = now + effective
        seq = start_counter
        start_counter += 1
        flight[seq] = (done, orig_arrival, orig_seq, attempt, app_id)
        heappush(pending, (done, seq))
        busy += 1
        (starts_pre if pre_tick else starts_post).append(now)

    def fail(
        app_id: int, orig_seq: int, attempt: int, orig_arrival: float,
        reason: int, now: float,
    ) -> None:
        nonlocal retries, retry_counter
        if windows:
            state.record_failure(app_id)
        if attempt < max_retries:
            retries += 1
            delay = retry.backoff_seconds(orig_seq, attempt)
            reattempt = (
                n + retry_counter, app_id, orig_seq, attempt + 1, orig_arrival
            )
            retry_counter += 1
            heappush(
                injected, (now + delay, next(injected_counter), reattempt)
            )
        else:
            drop_times.append(now)
            drop_reasons.append(reason)

    def shed_drop(now: float) -> None:
        drop_times.append(now)
        drop_reasons.append(REASON_SHED)

    def dispatch(now: float, pre_tick: bool) -> None:
        while True:
            entry = heappop(qheap)
            request = entry[-5:]
            if request[0] in queued:
                break
        queued.pop(request[0])
        (dequeued_pre if pre_tick else dequeued_post).append(now)
        start(request[1], now, request[4], request[2], request[3], pre_tick)

    def admit(request: tuple, now: float) -> None:
        qseq, app_id, orig_seq, attempt, orig_arrival = request
        if not state.admit(app_id):
            shed_drop(now)
            return
        if busy < cap:
            observe_app(app_names[app_id])
            start(app_id, now, orig_arrival, orig_seq, attempt, True)
        elif len(queued) < qmax:
            observe_app(app_names[app_id])
            entry = prefixes[app_id] + request
            heappush(qheap, entry)
            queued[qseq] = (now, entry[:-4])
            enqueued.append(now)
            if timeout is not None:
                heappush(timers, (now + timeout, next(timer_counter), request))
        else:
            fail(app_id, orig_seq, attempt, orig_arrival, REASON_QUEUE_FULL, now)

    chunks = checked_chunks(source, chunk_requests)
    arrivals = np.empty(0)
    app_ids = np.empty(0, dtype=np.intp)
    arrivals_list: List[float] = []
    ids_list: List[int] = []
    n_chunk = 0
    base = 0  # global trace index of the chunk's first request
    i = 0  # chunk-local index of the next trace arrival
    k = 0  # next fault event
    window_size = _WINDOW_MIN
    while True:
        if i == n_chunk and chunks is not None:
            # The next trace arrival opens the next chunk: fetch it
            # before ranking events, folding the finished chunk's.
            fetched = next(chunks, None)
            if fetched is None:
                chunks = None
            else:
                if n_chunk:
                    fold()
                    pools.compact()
                base += n_chunk
                arrivals, app_ids = fetched
                arrivals_list = arrivals.tolist()
                ids_list = app_ids.tolist()
                n_chunk = len(arrivals_list)
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
        t_trace = arrivals_list[i] if i < n_chunk else _INF
        t_injected = injected[0][0] if injected else _INF
        t_next = min(t_fault, t_control, t_timer, t_trace, t_injected)

        # Completions strictly before the next ranked event fire first
        # (completion has the last rank), each freeing a server for the
        # current min-key queued request and feeding the telemetry
        # window the controller reads at its next tick.  Pops come in
        # the canonical (completion, start order).
        while pending and pending[0][0] < t_next:
            done, seq = heappop(pending)
            busy -= 1
            record = flight.pop(seq)
            latency = done - record[1]
            if windows:
                state.record_completion(record[4], latency)
            done_times.append(done)
            done_latencies.append(latency)
            done_apps.append(record[4])
            if queued and busy < cap:
                dispatch(done, False)
        if t_next == _INF:
            break

        # ---- Fault event: surviving-capacity step -------------------
        if t_fault == t_next:
            surviving = int(fault_caps[k])
            k += 1
            if surviving < busy:
                # Crashes kill: the in-flight requests that would finish
                # last die, down to the surviving machine count.
                shortfall = busy - surviving
                victims = sorted(
                    (record[0], seq) for seq, record in flight.items()
                )[-shortfall:]
                doomed = {seq for _, seq in victims}
                for _, seq in reversed(victims):
                    record = flight.pop(seq)
                    busy -= 1
                    crash_kills += 1
                    kills.append(t_fault)
                    fail(
                        record[4], record[2], record[3], record[1],
                        REASON_CRASHED, t_fault,
                    )
                pending = [e for e in pending if e[1] not in doomed]
                heapify(pending)
            cap = min(state.live, surviving)
            while queued and busy < cap:
                dispatch(t_fault, True)
            continue

        # ---- Control event (decision tick before warmup activation) -
        if t_control == t_next:
            if t_decision <= t_activation:
                t = t_decision
                jc += 1
                head_wait = None
                if queued:
                    head_wait = t - min(e for e, _ in queued.values())
                shed_count, activation = state.on_tick(
                    t, busy, len(queued), head_wait
                )
                if shed_count:
                    victims = state.shed_victims(
                        [(qseq, key) for qseq, (_, key) in queued.items()],
                        shed_count,
                    )
                    for qseq in victims:
                        queued.pop(qseq)
                        dequeued_pre.append(t)
                        shed_drop(t)
                if activation is not None:
                    heappush(
                        activations,
                        (activation[0], next(activation_counter),
                         activation[1]),
                    )
            else:
                t, _, target = heappop(activations)
                state.activate(t, target)
            cap = min(state.live, surviving)
            while queued and busy < cap:
                dispatch(t, True)
            continue

        # ---- Timeout timer ------------------------------------------
        if t_timer == t_next:
            _, _, request = heappop(timers)
            if request[0] in queued:  # may have been served by a drain
                queued.pop(request[0])
                dequeued_pre.append(t_timer)
                timeouts += 1
                fail(
                    request[1], request[2], request[3], request[4],
                    REASON_TIMEOUT, t_timer,
                )
            continue

        # ---- Trace arrival (before an injected one at the same time) -
        if t_trace == t_next and t_trace <= t_injected:
            if queued or busy >= cap:
                admit((base + i, ids_list[i], base + i, 0, t_trace), t_trace)
                i += 1
                continue
            # Pass A: contention-free window, cut at the chunk end, the
            # next fault and control event (both ranked before
            # arrivals: equal-time arrivals excluded) and the next
            # injected re-arrival (ranked after: equal-time included).
            hi = min(n_chunk, i + window_size)
            if k < n_faults:
                hi = i + int(
                    np.searchsorted(arrivals[i:hi], t_fault, side="left")
                )
            if t_control < _INF:
                hi = i + int(
                    np.searchsorted(arrivals[i:hi], t_control, side="left")
                )
            if injected:
                hi = i + int(
                    np.searchsorted(arrivals[i:hi], t_injected, side="right")
                )
            m = hi - i
            arr = arrivals[i:hi]
            ids = app_ids[i:hi]
            # Arrival gate over the window.  No refill interleaves
            # (windows are cut at control events), so the mask equals
            # the oracle's arrival-by-arrival decisions.
            if gating:
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
                drop_times.extend(arr.tolist())
                drop_reasons.extend([REASON_SHED] * m)
                i = hi
                window_size = min(window_size * 2, _WINDOW_MAX)
                continue
            if hedge is not None:
                draw_ids = np.repeat(ids_adm, 2)
                values, events, snapshot = pools.peek(draw_ids)
                first = values[0::2]
                backup = values[1::2]
            else:
                draw_ids = ids_adm
                values, events, snapshot = pools.peek(ids_adm)
                first = values
            mults = (
                timeline.multipliers(arr_adm)
                if has_slowdowns
                else np.ones(n_adm)
            )
            effective_first = mults * first
            if hedge is not None:
                alternative = hedge + mults * backup
                effective = np.minimum(effective_first, alternative)
            else:
                effective = effective_first
            comp_opt = arr_adm + effective
            pend_times = np.sort(
                np.fromiter(
                    (e[0] for e in pending),
                    dtype=np.float64,
                    count=len(pending),
                )
            )
            dep_pend = np.searchsorted(pend_times, arr_adm, side="left")
            dep_window = np.searchsorted(
                np.sort(comp_opt), arr_adm, side="left"
            )
            n_before = busy + np.arange(n_adm) - dep_pend - dep_window
            crossing = np.nonzero(n_before >= cap)[0]
            cut = int(crossing[0]) if crossing.size else n_adm
            # cut >= 1: with busy < cap the first *admitted* arrival
            # always fits, so progress is guaranteed.
            if cut == n_adm:
                committed = m
            elif positions is None:
                committed = cut
            else:
                committed = int(positions[cut])
            pools.commit(
                draw_ids,
                2 * cut if hedge is not None else cut,
                events,
                snapshot,
                n_apps,
            )
            state.consume(cut)
            if positions is not None:
                # Sheds below the committed boundary are final now;
                # later ones re-run through the serial gate (which sees
                # the post-spend token balance, as the oracle does).
                shed_at = np.nonzero(~mask[:committed])[0]
                drop_times.extend(arr[shed_at].tolist())
                drop_reasons.extend([REASON_SHED] * int(shed_at.size))
            for committed_id in np.unique(ids_adm[:cut]):
                observe_app(app_names[committed_id])
            if hedge is not None:
                hedges_launched += int(
                    np.count_nonzero(effective_first[:cut] > hedge)
                )
                hedge_wins += int(
                    np.count_nonzero(alternative[:cut] < effective_first[:cut])
                )
            starts_pre.extend(arr_adm[:cut])
            started = arr_adm[:cut].tolist()
            comps = comp_opt[:cut].tolist()
            ids_cut = ids_adm[:cut].tolist()
            origs = (
                range(base + i, base + i + cut)
                if positions is None
                else (positions[:cut] + (base + i)).tolist()
            )
            for offset, orig_seq in enumerate(origs):
                seq = start_counter + offset
                flight[seq] = (
                    comps[offset], started[offset], orig_seq, 0,
                    ids_cut[offset],
                )
                pending.append((comps[offset], seq))
            start_counter += cut
            heapify(pending)
            busy += cut
            i += committed
            window_size = (
                min(window_size * 2, _WINDOW_MAX)
                if committed == m
                else _WINDOW_MIN
            )
            continue

        # ---- Injected re-arrival ------------------------------------
        _, _, request = heappop(injected)
        admit(request, t_injected)

    fold()
    sink.busy_instances = (
        starts_pre.series()
        + starts_post.series()
        - completion_log.series()
        - kills.series()
    )
    sink.queue_depth = (
        enqueued.series() - dequeued_pre.series() - dequeued_post.series()
    )
    if controlled:
        sink.live_instances = _live_series(state, ticks)
        sink.app_catalog = tuple(app_names)
        sink.scale_ups = state.scale_ups
        sink.scale_downs = state.scale_downs
    sink.retries = retries
    sink.timeouts = timeouts
    sink.crash_kills = crash_kills
    sink.hedges_launched = hedges_launched
    sink.hedge_wins = hedge_wins
    return sink.finalize()


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

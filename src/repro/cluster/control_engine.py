"""Closed-loop control engines for the rack simulator (oracle + fast).

Both engines run the fault/retry dynamics of
:mod:`repro.cluster.chaos_engine` *plus* a
:class:`~repro.cluster.control.ControlPlane` evaluated at a fixed
control interval: reactive autoscaling (live capacity becomes
``min(autoscaled, surviving)``, where ``surviving`` is the fault
timeline's step function) and overload protection (token-bucket
admission, CoDel-style queue shedding, brownout by criticality,
per-app circuit breaking — every shed a terminal ``shed`` drop).

Same-timestamp events extend the chaos rank rule with control events
ranked between faults and timers (a capacity crash is ground truth the
controller reacts to; control decisions precede the traffic they
govern):

    fault < control (decision before warmup activation)
          < timeout < arrival (trace before injected) < tick < completion

Shared semantics, implemented twice:

- :func:`run_control_event` — the reference oracle: one ranked event
  heap with one handler per event kind (faults, control ticks, warmup
  activations, timeouts, arrivals, sample ticks, completions).
- :func:`run_control_vectorized` — the chaos kernel's next-event loop
  with two more event sources (decision ticks, warmup activations).
  Control ticks are natural chunk boundaries: pass-A chunks are
  additionally cut at the next control event, the arrival gate is
  applied as a vectorized mask (token spend committed only for the
  admitted prefix that actually starts), and the tentative-draw RNG
  rollback covers admitted arrivals only — shed arrivals never touch
  the RNG, in either engine.

Control subsumes chaos: a fault/retry run is a control run whose plane
does nothing.  An inert ``ControlPlane()`` schedules no decision ticks
and records no control telemetry, so :func:`run_control_event` with an
inert plane is also the oracle of the materialized chaos kernel, and
:class:`~repro.cluster.simulation.RackSimulation` sends every
fault/retry run on ``engine="event"`` or an unsorted trace there.

The decision logic itself lives in one place —
:class:`~repro.cluster.control.ControllerState` — and is *shared*, not
re-implemented: both engines feed it the identical observations in the
identical order, which is what makes the control loop bit-identical by
construction (``tests/test_control_equivalence.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from repro.cluster.control import ControllerState, ControlPlane
from repro.cluster.fast_engine import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    _ServicePools,
    admission_ranks,
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
    chunks; skipping them keeps a fault/retry run on the control
    engines exactly the run the chaos kernel makes.
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
    exactly the result the chaos kernel must reproduce.
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


def run_control_vectorized(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
    plane: ControlPlane,
) -> "SimulationSeries":
    """Control engine: chaos pass-A chunking + control-epoch boundaries.

    The chaos engine's next-event loop with two added sources (decision
    ticks, warmup activations).  Contention-free chunks are additionally
    cut at the next control event; within a chunk the arrival gate runs
    as a vectorized mask over the current blocked set and token balance,
    with token spend committed only for the prefix that actually starts.
    Bit-identical to :func:`run_control_event`.
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
    service_time = sim._service_time

    app_names = list(trace.app_catalog)
    n_apps = len(app_names)
    app_ids = trace.app_ids.astype(np.intp)
    pools = _ServicePools(sim, app_names)
    prefixes = [policy.key.key_for(name) for name in app_names]

    state = ControllerState(plane, sim._max_instances, app_names)
    windows = state.windows_active
    gating = state.gating_active
    surviving = timeline.initial_capacity
    cap = min(state.live, surviving)

    fault_times = timeline.times.tolist()
    fault_caps = timeline.capacities.tolist()
    n_faults = len(fault_times)
    has_slowdowns = len(timeline.slow_starts) > 0

    ctrl_times = _decision_ticks(trace, plane)
    n_ctrl = len(ctrl_times)
    jc = 0
    activations: List[Tuple[float, int, int]] = []  # (time, order, target)
    activation_counter = count()

    # Queue entries: ``prefix + request`` where a request is the tuple
    # ``(qseq, app_id, orig_seq, attempt, orig_arrival)``.
    qheap: List[tuple] = []
    # qseq -> (enqueue time, heap sort key); doubles as the queued set.
    queued: Dict[int, Tuple[float, tuple]] = {}
    timers: List[tuple] = []
    injected: List[tuple] = []
    pending: List[Tuple[float, int]] = []  # (completion, start_seq), live only
    timer_counter = count()
    injected_counter = count()
    busy = 0
    retry_counter = 0

    start_origs: List[float] = []
    start_comps: List[float] = []
    start_meta: List[Tuple[int, int, int]] = []  # (orig_seq, attempt, app_id)
    killed_flags: List[bool] = []
    alive: Set[int] = set()

    starts_pre: List[float] = []
    starts_post: List[float] = []
    enq_times: List[float] = []
    deq_pre: List[float] = []
    deq_post: List[float] = []
    kill_times: List[float] = []

    dropped = 0
    drop_times: List[float] = []
    drop_reasons: List[int] = []
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
        nonlocal busy, hedges_launched, hedge_wins
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
        seq = len(start_comps)
        start_origs.append(orig_arrival)
        start_comps.append(done)
        start_meta.append((orig_seq, attempt, app_id))
        killed_flags.append(False)
        alive.add(seq)
        heappush(pending, (done, seq))
        busy += 1
        (starts_pre if pre_tick else starts_post).append(now)

    def fail(
        app_id: int, orig_seq: int, attempt: int, orig_arrival: float,
        reason: int, now: float,
    ) -> None:
        nonlocal dropped, retries, retry_counter
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
            dropped += 1
            drop_times.append(now)
            drop_reasons.append(reason)

    def shed_drop(now: float) -> None:
        nonlocal dropped
        dropped += 1
        drop_times.append(now)
        drop_reasons.append(REASON_SHED)

    def dispatch(now: float, pre_tick: bool) -> None:
        while True:
            entry = heappop(qheap)
            request = entry[-5:]
            if request[0] in queued:
                break
        queued.pop(request[0])
        (deq_pre if pre_tick else deq_post).append(now)
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
            queued[qseq] = (now, entry[: -4])
            enq_times.append(now)
            if timeout is not None:
                heappush(timers, (now + timeout, next(timer_counter), request))
        else:
            fail(app_id, orig_seq, attempt, orig_arrival, REASON_QUEUE_FULL, now)

    i = 0
    k = 0
    chunk_size = _CHUNK_MIN
    arrivals_list = arrivals.tolist()
    app_ids_list = app_ids.tolist()
    while True:
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
        t_trace = arrivals_list[i] if i < n else _INF
        t_injected = injected[0][0] if injected else _INF
        t_next = min(t_fault, t_control, t_timer, t_trace, t_injected)

        # Completions strictly before the next ranked event fire first
        # (completion has the last rank), each freeing a server for the
        # current min-key queued request and feeding the telemetry
        # window the controller reads at its next tick.
        while pending and pending[0][0] < t_next:
            done, seq = heappop(pending)
            busy -= 1
            alive.discard(seq)
            if windows:
                state.record_completion(
                    start_meta[seq][2], done - start_origs[seq]
                )
            if queued and busy < cap:
                dispatch(done, False)
        if t_next == _INF:
            break

        # ---- Fault event: surviving-capacity step -------------------
        if t_fault == t_next:
            surviving = int(fault_caps[k])
            k += 1
            if surviving < busy:
                shortfall = busy - surviving
                victims = sorted((start_comps[s], s) for s in alive)[
                    -shortfall:
                ]
                doomed = {seq for _, seq in victims}
                for _, seq in reversed(victims):
                    alive.discard(seq)
                    killed_flags[seq] = True
                    busy -= 1
                    crash_kills += 1
                    kill_times.append(t_fault)
                    orig_seq, attempt, app_id = start_meta[seq]
                    fail(
                        app_id, orig_seq, attempt, start_origs[seq],
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
                        deq_pre.append(t)
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
            if request[0] in queued:
                queued.pop(request[0])
                deq_pre.append(t_timer)
                timeouts += 1
                fail(
                    request[1], request[2], request[3], request[4],
                    REASON_TIMEOUT, t_timer,
                )
            continue

        # ---- Trace arrival (before an injected one at the same time) -
        if t_trace == t_next and t_trace <= t_injected:
            if not queued and busy < cap:
                # Pass A: contention-free chunk, cut at the next fault
                # and control event (both ranked before arrivals:
                # equal-time arrivals excluded) and the next injected
                # re-arrival (ranked after: equal-time included).
                hi = min(n, i + chunk_size)
                if k < n_faults:
                    hi = i + int(
                        np.searchsorted(arrivals[i:hi], t_fault, side="left")
                    )
                if t_control < _INF:
                    hi = i + int(
                        np.searchsorted(
                            arrivals[i:hi], t_control, side="left"
                        )
                    )
                if injected:
                    hi = i + int(
                        np.searchsorted(arrivals[i:hi], t_injected, side="right")
                    )
                chunk = slice(i, hi)
                m = hi - i
                arr = arrivals[chunk]
                ids = app_ids[chunk]
                # Arrival gate over the chunk.  No refill interleaves
                # (chunks are cut at control events), so the mask equals
                # the oracle's arrival-by-arrival decisions; sheds never
                # draw service samples.
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
                    # Every arrival in the chunk is shed: no capacity
                    # interaction, the whole chunk commits as drops.
                    dropped += m
                    drop_times.extend(arr.tolist())
                    drop_reasons.extend([REASON_SHED] * m)
                    i = hi
                    chunk_size = min(chunk_size * 2, _CHUNK_MAX)
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
                dep_chunk = np.searchsorted(
                    np.sort(comp_opt), arr_adm, side="left"
                )
                n_before = busy + np.arange(n_adm) - dep_pend - dep_chunk
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
                    # later ones re-run through the serial gate (which
                    # sees the post-spend token balance, as the oracle
                    # does).
                    shed_at = np.nonzero(~mask[:committed])[0]
                    if shed_at.size:
                        dropped += int(shed_at.size)
                        drop_times.extend(arr[shed_at].tolist())
                        drop_reasons.extend([REASON_SHED] * int(shed_at.size))
                for committed_id in np.unique(ids_adm[:cut]):
                    observe_app(app_names[committed_id])
                if hedge is not None:
                    hedges_launched += int(
                        np.count_nonzero(effective_first[:cut] > hedge)
                    )
                    hedge_wins += int(
                        np.count_nonzero(
                            alternative[:cut] < effective_first[:cut]
                        )
                    )
                started = arr_adm[:cut].tolist()
                comps = comp_opt[:cut].tolist()
                base = len(start_comps)
                starts_pre.extend(started)
                start_origs.extend(started)
                start_comps.extend(comps)
                ids_cut = ids_adm[:cut].tolist()
                for offset in range(cut):
                    orig_seq = (
                        i + offset
                        if positions is None
                        else i + int(positions[offset])
                    )
                    start_meta.append((orig_seq, 0, ids_cut[offset]))
                    killed_flags.append(False)
                    seq = base + offset
                    alive.add(seq)
                    pending.append((comps[offset], seq))
                heapify(pending)
                busy += cut
                i += committed
                chunk_size = (
                    min(chunk_size * 2, _CHUNK_MAX)
                    if committed == m
                    else _CHUNK_MIN
                )
            else:
                admit((i, app_ids_list[i], i, 0, t_trace), t_trace)
                i += 1
            continue

        # ---- Injected re-arrival ------------------------------------
        _, _, request = heappop(injected)
        admit(request, t_injected)

    # ---- Series reconstruction --------------------------------------
    comp_all = np.asarray(start_comps)
    orig_all = np.asarray(start_origs)
    meta_ids = np.fromiter(
        (meta[2] for meta in start_meta),
        dtype=np.int64,
        count=len(start_meta),
    )
    keep = ~np.asarray(killed_flags, dtype=bool)
    comp_kept = comp_all[keep] if len(comp_all) else comp_all
    orig_kept = orig_all[keep] if len(orig_all) else orig_all
    ids_kept = meta_ids[keep] if len(meta_ids) else meta_ids
    order = np.lexsort((np.arange(len(comp_kept)), comp_kept))
    completed_times = comp_kept[order]
    latencies = (comp_kept - orig_kept)[order]
    completed_ids = ids_kept[order]

    ticks = sample_tick_times(trace.duration_seconds, sample_interval_seconds)
    starts_pre_arr = np.asarray(starts_pre)
    starts_post_arr = np.asarray(starts_post)
    kills_arr = np.asarray(kill_times)
    busy_series = (
        np.searchsorted(starts_pre_arr, ticks, side="right")
        + np.searchsorted(starts_post_arr, ticks, side="left")
        - np.searchsorted(completed_times, ticks, side="left")
        - np.searchsorted(kills_arr, ticks, side="right")
    )
    queue_depth = (
        np.searchsorted(np.asarray(enq_times), ticks, side="right")
        - np.searchsorted(np.asarray(deq_pre), ticks, side="right")
        - np.searchsorted(np.asarray(deq_post), ticks, side="left")
    )

    return SimulationSeries(
        sample_times=ticks,
        queue_depth=queue_depth,
        busy_instances=busy_series,
        completed_latency_seconds=latencies,
        completed_times=completed_times,
        dropped_requests=dropped,
        total_requests=n,
        dropped_times=np.asarray(drop_times),
        dropped_reasons=np.asarray(drop_reasons, dtype=np.int8),
        retries=retries,
        timeouts=timeouts,
        crash_kills=crash_kills,
        hedges_launched=hedges_launched,
        hedge_wins=hedge_wins,
        **_control_telemetry(state, ticks, completed_ids),
    )

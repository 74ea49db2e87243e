"""Fault-injection engines for the rack simulator (oracle + vectorized).

Both engines simulate the same perturbed dynamics: a
:class:`~repro.cluster.faults.FaultTimeline` steps fleet capacity up and
down (crashes kill the in-flight requests with the latest completions
and shrink capacity; recoveries dispatch the backlog), slowdown windows
scale service times, and a :class:`~repro.cluster.faults.RetryPolicy`
times out queued requests, re-injects failed attempts with backoff, and
hedges started requests with a backup copy.

Same-timestamp events follow a strict rank order, extending the base
simulator's ``arrival < tick < completion`` rule:

    fault < timeout < arrival (trace before injected) < tick < completion

with completions tie-broken by start order, exactly as the event queue's
insertion order resolves them in the fault-free oracle.  Shared
semantics, implemented twice:

- :func:`run_chaos_event` — the reference oracle: one explicit
  ``(time, rank, counter)`` heap, a
  :class:`~repro.cluster.policy_keys.KeyedQueue` with cancellation for
  timed-out entries, one handler per event kind.
- :func:`run_chaos_vectorized` — a next-event loop over five primitive
  event sources (trace arrivals, injected re-arrivals, timeout timers,
  fault events, completions).  Fault events partition the timeline into
  capacity epochs; within an epoch, contention-free stretches run
  through the same adaptively chunked pass A as the fault-free engines
  (``completion = arrival + service``, ``searchsorted`` occupancy
  checks, tentative-draw RNG rollback via
  :class:`~repro.cluster.fast_engine._ServicePools`), and congested
  stretches step serially through the keyed-dispatch kernel.

Failure handling is crash-only and loss-free in accounting terms: every
trace request ends as exactly one completion or one reasoned drop
(``queue_full`` / ``timeout`` / ``crashed``), which
``tests/test_fault_property.py`` asserts for every engine and seed.
``tests/test_fault_equivalence.py`` proves the two implementations
bit-identical — series, per-reason drops, chaos counters, RNG end
state — and that a zero-fault timeline reproduces the fault-free
engines exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

from repro.cluster.fast_engine import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    _ServicePools,
    sample_tick_times,
)
from repro.cluster.faults import (
    REASON_CRASHED,
    REASON_QUEUE_FULL,
    REASON_TIMEOUT,
    FaultTimeline,
    RetryPolicy,
)
from repro.cluster.policy_keys import KeyedQueue
from repro.errors import SchedulingError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace

_INF = float("inf")

# Same-timestamp event ranks (see module docstring).
_RANK_FAULT = 0
_RANK_TIMER = 1
_RANK_ARRIVAL = 2
_RANK_TICK = 3
_RANK_COMPLETION = 4


def run_chaos_event(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
) -> "SimulationSeries":
    """The fault-injection reference oracle (explicit ranked event heap).

    Requests are ``(qseq, orig_seq, attempt, app_name, orig_arrival)``
    tuples: ``qseq`` is the admission sequence the policy key tie-breaks
    on (trace index for first attempts, ``n + retry#`` for re-arrivals,
    so retries never jump ahead of equal-key originals), ``orig_seq``
    indexes the trace request (and the jitter hash), and latency is
    always measured from ``orig_arrival``.
    """
    from repro.cluster.simulation import SimulationSeries

    n = len(trace)
    if n and float(trace.arrival_seconds[0]) < 0:
        raise SimulationError(
            f"event scheduled at negative time {float(trace.arrival_seconds[0])}"
        )
    cap = timeline.initial_capacity
    qmax = sim._queue_depth
    timeout = retry.timeout_seconds
    hedge = retry.hedge_after_seconds
    max_retries = retry.max_retries
    multiplier_at = timeline.multiplier_at
    observe_app = policy.observe_app
    key_for = policy.key.key_for
    service_time = sim._service_time

    # (time, rank, counter, kind, payload); counter is global push order,
    # so equal-(time, rank) events fire in push order — trace arrivals
    # before injected re-arrivals, completions in start order.
    events: List[tuple] = []
    counter = count()

    queue = KeyedQueue()
    queued: Set[int] = set()  # qseqs live in the queue
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
    sample_times: List[float] = []
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

    def dispatch(now: float) -> None:
        request = queue.pop()
        queued.discard(request[0])
        start_service(request, now)

    def _on_arrival(request: tuple, now: float) -> None:
        if busy < cap:
            observe_app(request[3])
            start_service(request, now)
        elif len(queue) < qmax:
            observe_app(request[3])
            qseq = request[0]
            handles[qseq] = queue.push((*key_for(request[3]), qseq), request)
            queued.add(qseq)
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
            return  # already served (or failed); stale timer is a no-op
        queue.cancel(handles.pop(qseq))
        queued.discard(qseq)
        timeouts += 1
        fail(request, REASON_TIMEOUT, now)

    def _on_fault(new_cap: int, now: float) -> None:
        nonlocal cap, busy, crash_kills
        if new_cap < busy:
            # Kill the in-flight requests that would finish last,
            # largest (completion, start order) first — a deterministic
            # choice both engines make identically.
            victims = sorted(
                (done, seq) for seq, (done, _) in in_flight.items()
            )[new_cap - busy:]
            for _, seq in reversed(victims):
                _, request = in_flight.pop(seq)
                killed.add(seq)
                busy -= 1
                crash_kills += 1
                fail(request, REASON_CRASHED, now)
        cap = new_cap
        while busy < cap and len(queue):
            dispatch(now)

    def _on_completion(seq: int, now: float) -> None:
        nonlocal busy
        if seq in killed:
            killed.discard(seq)
            return
        _, request = in_flight.pop(seq)
        busy -= 1
        latencies.append(now - request[4])
        completion_times.append(now)
        if len(queue) and busy < cap:
            dispatch(now)

    def _on_sample(_: object, now: float) -> None:
        sample_times.append(now)
        queue_series.append(len(queue))
        busy_series.append(busy)

    for sequence, (arrival, app_name) in enumerate(
        zip(trace.arrival_seconds, trace.app_names)
    ):
        arrival = float(arrival)
        request = (sequence, sequence, 0, app_name, arrival)
        heappush(
            events, (arrival, _RANK_ARRIVAL, next(counter), _on_arrival, request)
        )
    for t, capacity in zip(
        timeline.times.tolist(), timeline.capacities.tolist()
    ):
        heappush(events, (t, _RANK_FAULT, next(counter), _on_fault, int(capacity)))
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
    )


def run_chaos_vectorized(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
) -> "SimulationSeries":
    """Chaos engine with pass-A chunking inside capacity epochs.

    A next-event loop over five sources (faults, timers, trace arrivals,
    injected re-arrivals, completions), ordered by the module's rank
    rule.  Whenever the next event is a trace arrival with an empty
    queue and fleet headroom, a whole contention-free chunk is processed
    at once — cut at the first arrival that would queue, at the next
    fault event, and at the next injected re-arrival — with tentative
    service draws rolled back exactly as in the fault-free engines.
    Bit-identical to :func:`run_chaos_event`.
    """
    from repro.cluster.simulation import SimulationSeries

    arrivals = np.asarray(trace.arrival_seconds, dtype=np.float64)
    n = len(arrivals)
    if n and float(arrivals[0]) < 0:
        raise SimulationError(
            f"event scheduled at negative time {float(arrivals[0])}"
        )
    cap = timeline.initial_capacity
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
    known = np.array(
        [name in sim._applications for name in app_names], dtype=bool
    )
    pools = _ServicePools(sim, app_names)
    prefixes = [policy.key.key_for(name) for name in app_names]

    fault_times = timeline.times.tolist()
    fault_caps = timeline.capacities.tolist()
    n_faults = len(fault_times)
    has_slowdowns = len(timeline.slow_starts) > 0

    # Queue entries: ``prefix + request`` where a request is the tuple
    # ``(qseq, app_id, orig_seq, attempt, orig_arrival)``.  ``qseq`` is
    # unique, so heap sifts never compare past it.
    qheap: List[tuple] = []
    queued: Set[int] = set()
    timers: List[tuple] = []  # (deadline, push order, request)
    injected: List[tuple] = []  # (time, push order, request)
    pending: List[Tuple[float, int]] = []  # (completion, start_seq), live only
    timer_counter = count()
    injected_counter = count()
    busy = 0
    retry_counter = 0

    # Per-start logs, indexed by start sequence.
    start_origs: List[float] = []
    start_comps: List[float] = []
    start_meta: List[Tuple[int, int, int]] = []  # (orig_seq, attempt, app_id)
    killed_flags: List[bool] = []
    alive: Set[int] = set()

    # Series-reconstruction event logs, each appended in event order and
    # therefore time-sorted.  ``pre`` logs hold events ranked before the
    # sample tick (visible at an equal-time tick), ``post`` logs events
    # ranked after it.
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

    def dispatch(now: float, pre_tick: bool) -> None:
        while True:
            entry = heappop(qheap)
            request = entry[-5:]
            if request[0] in queued:
                break
        queued.discard(request[0])
        (deq_pre if pre_tick else deq_post).append(now)
        start(request[1], now, request[4], request[2], request[3], pre_tick)

    def admit(request: tuple, now: float) -> None:
        qseq, app_id, orig_seq, attempt, orig_arrival = request
        if busy < cap:
            observe_app(app_names[app_id])
            start(app_id, now, orig_arrival, orig_seq, attempt, True)
        elif len(queued) < qmax:
            observe_app(app_names[app_id])
            heappush(qheap, prefixes[app_id] + request)
            queued.add(qseq)
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
        # Timers whose entries were served (or already failed) are dead;
        # with an empty queue every timer is.
        if not queued:
            if timers:
                timers.clear()
        else:
            while timers and timers[0][2][0] not in queued:
                heappop(timers)

        t_fault = fault_times[k] if k < n_faults else _INF
        t_timer = timers[0][0] if timers else _INF
        t_trace = arrivals_list[i] if i < n else _INF
        t_injected = injected[0][0] if injected else _INF
        t_next = min(t_fault, t_timer, t_trace, t_injected)

        # Completions strictly before the next ranked event fire first
        # (equal timestamps fire after: completion has the last rank),
        # each freeing a server for the current min-key queued request.
        while pending and pending[0][0] < t_next:
            done, seq = heappop(pending)
            busy -= 1
            alive.discard(seq)
            if queued and busy < cap:
                dispatch(done, False)
        if t_next == _INF:
            break

        # ---- Fault event: capacity step -----------------------------
        if t_fault == t_next:
            new_cap = int(fault_caps[k])
            k += 1
            if new_cap < busy:
                shortfall = busy - new_cap
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
            cap = new_cap
            while queued and busy < cap:
                dispatch(t_fault, True)
            continue

        # ---- Timeout timer ------------------------------------------
        if t_timer == t_next:
            _, _, request = heappop(timers)
            if request[0] in queued:  # may have been served by the drain
                queued.discard(request[0])
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
                # (rank before arrivals: equal-time arrivals excluded)
                # and the next injected re-arrival (rank after trace
                # arrivals: equal-time trace arrivals included).
                hi = min(n, i + chunk_size)
                if k < n_faults:
                    hi = i + int(
                        np.searchsorted(arrivals[i:hi], t_fault, side="left")
                    )
                if injected:
                    hi = i + int(
                        np.searchsorted(arrivals[i:hi], t_injected, side="right")
                    )
                unknown = np.nonzero(~known[app_ids[i:hi]])[0]
                if unknown.size:
                    if unknown[0] == 0:
                        raise SchedulingError(
                            f"unknown application {app_names[app_ids[i]]!r}"
                        )
                    hi = i + int(unknown[0])
                chunk = slice(i, hi)
                m = hi - i
                arr = arrivals[chunk]
                ids = app_ids[chunk]
                if hedge is not None:
                    draw_ids = np.repeat(ids, 2)
                    values, events, snapshot = pools.peek(draw_ids)
                    first = values[0::2]
                    backup = values[1::2]
                else:
                    draw_ids = ids
                    values, events, snapshot = pools.peek(ids)
                    first = values
                mults = (
                    timeline.multipliers(arr)
                    if has_slowdowns
                    else np.ones(m)
                )
                effective_first = mults * first
                if hedge is not None:
                    alternative = hedge + mults * backup
                    effective = np.minimum(effective_first, alternative)
                else:
                    effective = effective_first
                comp_opt = arr + effective
                pend_times = np.sort(
                    np.fromiter(
                        (e[0] for e in pending),
                        dtype=np.float64,
                        count=len(pending),
                    )
                )
                dep_pend = np.searchsorted(pend_times, arr, side="left")
                dep_chunk = np.searchsorted(
                    np.sort(comp_opt), arr, side="left"
                )
                n_before = busy + np.arange(m) - dep_pend - dep_chunk
                crossing = np.nonzero(n_before >= cap)[0]
                cut = int(crossing[0]) if crossing.size else m
                pools.commit(
                    draw_ids,
                    2 * cut if hedge is not None else cut,
                    events,
                    snapshot,
                    n_apps,
                )
                # cut >= 1: with busy < cap the first arrival always
                # fits.  Observation is coalesced per app per chunk
                # (the documented set-like contract).
                for committed_id in np.unique(ids[:cut]):
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
                started = arr[:cut].tolist()
                comps = comp_opt[:cut].tolist()
                base = len(start_comps)
                starts_pre.extend(started)
                start_origs.extend(started)
                start_comps.extend(comps)
                ids_cut = ids[:cut].tolist()
                for offset in range(cut):
                    start_meta.append((i + offset, 0, ids_cut[offset]))
                    killed_flags.append(False)
                    seq = base + offset
                    alive.add(seq)
                    pending.append((comps[offset], seq))
                heapify(pending)
                busy += cut
                i += cut
                chunk_size = (
                    min(chunk_size * 2, _CHUNK_MAX)
                    if cut == m
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
    keep = ~np.asarray(killed_flags, dtype=bool)
    comp_kept = comp_all[keep] if len(comp_all) else comp_all
    orig_kept = orig_all[keep] if len(orig_all) else orig_all
    # Completion events fire in (time, start order); the kept arrays are
    # already in start order, so a stable lexsort reproduces it.
    order = np.lexsort((np.arange(len(comp_kept)), comp_kept))
    completed_times = comp_kept[order]
    latencies = (comp_kept - orig_kept)[order]

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
    )

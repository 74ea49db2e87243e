"""Vectorized engine for index-priority (keyed) scheduling policies.

:mod:`repro.cluster.fast_engine` vectorizes FCFS by exploiting that
service order equals arrival order.  Under a keyed policy (SJF,
criticality, DAG-aware — any :class:`~repro.cluster.schedulers.KeyedPolicy`)
that only breaks *inside congestion*: while the system is below capacity
every request starts the moment it arrives, so the policy never gets to
reorder anything.  This engine exploits exactly that split:

- **Pass A (contention-free chunks).**  While the queue is empty and the
  fleet has headroom, arrivals are processed in adaptively sized numpy
  chunks exactly like the FCFS engine's pass A: ``completion = arrival +
  service`` plus ``searchsorted`` occupancy checks, with tentative
  service draws rolled back when a chunk is cut at the first arrival
  that would have to queue.
- **Keyed dispatch kernel (congested stretches).**  Once the fleet
  saturates, each completion dispatches the queued request minimizing
  ``(*key, sequence)``.  The kernel keeps float completion times in a
  :class:`~repro.cluster.fast_engine.Departures` tracker and raw key
  tuples in a heap — no event objects, no callbacks, and no per-event
  queue scans, which is what makes policy sweeps at paper scale
  feasible.  Service times are drawn through
  ``RackSimulation._service_time`` at each dispatch, i.e. in exactly the
  oracle's order.
- **Series reconstruction.**  Queue-depth / busy-instance series are
  rebuilt per sample tick with ``np.searchsorted`` (honouring the event
  queue's arrival < tick < completion tie-break); completed-latency
  series are ordered by ``(completion time, start order)``, the order
  the oracle's completion events fire in.

The event-driven path in :mod:`repro.cluster.simulation` remains the
reference oracle: for every keyed policy this engine is bit-identical to
it — same drops, same latencies, same series, same RNG end state, same
service-pool state (enforced by ``tests/test_policy_equivalence.py``,
the keyed twin of ``tests/test_rack_equivalence.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING, List

import numpy as np

from repro.cluster.fast_engine import (
    _CHUNK_MAX,
    _CHUNK_MIN,
    Departures,
    _ServicePools,
    sample_tick_times,
)
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace


def run_keyed(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under ``policy``'s priority key, vectorized."""
    from repro.cluster.simulation import SimulationSeries

    arrivals = np.asarray(trace.arrival_seconds, dtype=np.float64)
    n = len(arrivals)
    if n and float(arrivals[0]) < 0:
        raise SimulationError(
            f"event scheduled at negative time {float(arrivals[0])}"
        )
    c = sim._max_instances
    qmax = sim._queue_depth

    app_names = list(trace.app_catalog)
    n_apps = len(app_names)
    app_ids = trace.app_ids.astype(np.intp)
    pools = _ServicePools(sim, app_names)
    # Static per-app key prefixes; a queued request's full sort key is
    # ``prefix + (sequence, arrival, app_id)`` — the trailing payload
    # never influences ordering because sequences are unique.  Plain
    # python-float tuples (not a numpy round-trip): heap sifts compare
    # these on every congested dispatch.
    prefixes = [policy.key.key_for(name) for name in app_names]

    # Primitive state: ``pending`` holds in-service completion times
    # (len == busy instances), ``queue`` is a heap of keyed entries.
    pending = Departures()
    queue: List[tuple] = []
    dropped = 0
    drop_times: List[float] = []

    # Start log, appended in start (chronological event) order — the
    # order the oracle pushes completion events, draws service samples,
    # and therefore the order its latency list resolves ties in.
    start_arrivals: List[float] = []
    start_completions: List[float] = []
    immediate_arrivals: List[float] = []  # starts at the arrival itself
    queued_arrivals: List[float] = []  # arrivals that entered the queue
    queued_starts: List[float] = []  # dispatch times, in dispatch order

    arrivals_list = arrivals.tolist()
    app_ids_list = app_ids.tolist()
    service_time = sim._service_time
    observe_app = policy.observe_app

    def dispatch(now: float) -> None:
        """Serve the min-key queued request on the server freed at now."""
        entry = heappop(queue)
        arrival_t = entry[-2]
        service = service_time(app_names[entry[-1]])
        completion = now + service
        pending.push(completion)
        queued_starts.append(now)
        start_arrivals.append(arrival_t)
        start_completions.append(completion)

    i = 0
    chunk_size = _CHUNK_MIN
    while i < n:
        now = arrivals_list[i]
        # Completions strictly before this arrival fire first (equal
        # timestamps fire after: arrival < tick < completion), each one
        # handing its server to the current min-key queued request;
        # once the queue is empty the rest just retire.
        while queue and pending.next_time() < now:
            dispatch(pending.pop())
        pending.depart_before(now)
        busy = len(pending)

        # ---- Pass A: contention-free chunk (all starts immediate) ---
        if not queue and busy < c:
            hi = min(n, i + chunk_size)
            chunk = slice(i, hi)
            m = hi - i
            arr = arrivals[chunk]
            values, events, snapshot = pools.peek(app_ids[chunk])
            dep_pend = np.searchsorted(pending.sorted(), arr, side="left")
            comp_opt = arr + values
            comp_sorted = np.sort(comp_opt)
            dep_chunk = np.searchsorted(comp_sorted, arr, side="left")
            n_before = busy + np.arange(m) - dep_pend - dep_chunk
            crossing = np.nonzero(n_before >= c)[0]
            cut = int(crossing[0]) if crossing.size else m
            pools.commit(app_ids[chunk], cut, events, snapshot, n_apps)
            # cut >= 1 here: with busy < c the first arrival always
            # fits, so the chunk never commits empty.  Observation is
            # coalesced to one call per app per chunk (the documented
            # set-like contract) — a per-request Python call would
            # forfeit the batched pass's throughput.
            for committed_id in np.unique(app_ids[i : i + cut]):
                observe_app(app_names[committed_id])
            started = arr[:cut].tolist()
            immediate_arrivals.extend(started)
            start_arrivals.extend(started)
            start_completions.extend(comp_opt[:cut].tolist())
            pending.add_sorted(
                comp_sorted if cut == m else np.sort(comp_opt[:cut])
            )
            i += cut
            chunk_size = (
                min(chunk_size * 2, _CHUNK_MAX) if cut == m else _CHUNK_MIN
            )
            continue

        # ---- Keyed dispatch kernel: one arrival, serially -----------
        app_id = app_ids_list[i]
        if busy < c:
            observe_app(app_names[app_id])
            service = service_time(app_names[app_id])
            completion = now + service
            pending.push(completion)
            immediate_arrivals.append(now)
            start_arrivals.append(now)
            start_completions.append(completion)
        elif len(queue) < qmax:
            observe_app(app_names[app_id])
            heappush(queue, prefixes[app_id] + (i, now, app_id))
            queued_arrivals.append(now)
        else:
            dropped += 1
            drop_times.append(now)
        i += 1

    # ---- Drain: serve the backlog in pure key order -----------------
    if queue:
        # Once arrivals stop the dispatch order is fully determined:
        # every completion hands its server to the min-(key, sequence)
        # entry and nothing new enqueues, so the backlog is served in
        # exactly sorted-queue order.  That lets one batched service
        # draw (pools replay the oracle's per-dispatch draw order) feed
        # the float-heap kernel instead of one Python draw per dispatch.
        backlog = sorted(queue)
        drain_ids = np.fromiter(
            (entry[-1] for entry in backlog),
            dtype=np.intp,
            count=len(backlog),
        )
        values, events, snapshot = pools.peek(drain_ids)
        pools.commit(drain_ids, len(backlog), events, snapshot, n_apps)
        servers = pending.drain()
        for entry, service in zip(backlog, values.tolist()):
            freed_at = servers[0]
            completion = freed_at + service
            heapreplace(servers, completion)
            queued_starts.append(freed_at)
            start_arrivals.append(entry[-2])
            start_completions.append(completion)
        queue.clear()

    # ---- Series reconstruction --------------------------------------
    start_arr = np.asarray(start_arrivals)
    start_comp = np.asarray(start_completions)
    # Completion events fire in (time, push order) order; pushes happen
    # in start order, so ties resolve by start index.
    order = np.lexsort((np.arange(len(start_comp)), start_comp))
    completed_times = start_comp[order]
    latencies = (start_comp - start_arr)[order]

    ticks = sample_tick_times(trace.duration_seconds, sample_interval_seconds)
    imm = np.asarray(immediate_arrivals)
    q_arrivals = np.asarray(queued_arrivals)
    q_starts = np.asarray(queued_starts)
    # Same-timestamp event order is arrival < sample tick < completion:
    # arrivals (and with them immediate starts) at exactly a tick are
    # visible to it, queue pops and completions at exactly a tick are not.
    busy_series = (
        np.searchsorted(imm, ticks, side="right")
        + np.searchsorted(q_starts, ticks, side="left")
        - np.searchsorted(completed_times, ticks, side="left")
    )
    queue_depth = np.searchsorted(
        q_arrivals, ticks, side="right"
    ) - np.searchsorted(q_starts, ticks, side="left")

    return SimulationSeries(
        sample_times=ticks,
        queue_depth=queue_depth,
        busy_instances=busy_series,
        completed_latency_seconds=latencies,
        completed_times=completed_times,
        dropped_requests=dropped,
        total_requests=n,
        dropped_times=np.asarray(drop_times),
        dropped_reasons=np.zeros(len(drop_times), dtype=np.int8),
    )

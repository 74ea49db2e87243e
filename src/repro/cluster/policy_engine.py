"""The keyed rack kernel: index-priority scheduling policies.

:mod:`repro.cluster.fast_engine` vectorizes FCFS by exploiting that
service order equals arrival order.  Under a keyed policy (SJF,
criticality, DAG-aware — any :class:`~repro.cluster.schedulers.KeyedPolicy`)
that only breaks *inside congestion*: while the system is below capacity
every request starts the moment it arrives, so the policy never gets to
reorder anything.  :func:`keyed_kernel` exploits exactly that split:

- **Pass A (contention-free windows).**  While the queue is empty and
  the fleet has headroom, arrivals are processed in adaptively sized
  numpy windows exactly like the FCFS kernel's pass A: ``completion =
  arrival + service`` plus ``searchsorted`` occupancy checks, with
  tentative service draws rolled back when a window is cut at the first
  arrival that would have to queue.
- **Keyed dispatch (congested stretches).**  Once the fleet saturates,
  each completion dispatches the queued request minimizing
  ``(*key, sequence)``.  The kernel keeps float completion times in a
  :class:`~repro.cluster.fast_engine.Departures` tracker and raw key
  tuples in a heap — no event objects, no callbacks, and no per-event
  queue scans, which is what makes policy sweeps at paper scale
  feasible.  Service times are drawn through
  ``RackSimulation._service_time`` at each dispatch, i.e. in exactly the
  oracle's order.  Once arrivals stop, the backlog drains in pure key
  order with one batched draw.

Like every rack kernel it walks the trace in chunks and folds its events
into a telemetry sink at each chunk boundary (see
:mod:`repro.cluster.fast_engine`): :func:`run_keyed` is one whole-trace
chunk into a retaining sink, ``engine="streaming"`` bounded chunks into
a :class:`~repro.cluster.streaming.StreamedSeries`.  The event-driven
path in :mod:`repro.cluster.simulation` remains the reference oracle:
for every keyed policy this kernel is bit-identical to it — same drops,
same latencies, same series, same RNG end state, same service-pool
state (enforced by ``tests/test_policy_equivalence.py``, the keyed twin
of ``tests/test_rack_equivalence.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING, List

import numpy as np

from repro.cluster.fast_engine import (
    _WINDOW_MAX,
    _WINDOW_MIN,
    Departures,
    StartOrderTelemetry,
    _ServicePools,
    checked_chunks,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace


def keyed_kernel(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sink,
    chunk_requests: int,
):
    """Serve ``source`` under ``policy``'s priority key, chunk by chunk;
    returns ``sink.finalize()``.

    Folds into ``sink`` at every chunk boundary after the first, with
    the watermark ``min(next arrival, earliest in-service completion)``
    (a queued request starts only when a server frees), and once more
    after the drain; pools compact at the same boundaries.
    """
    c = sim._max_instances
    qmax = sim._queue_depth

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    pools = _ServicePools(sim, app_names)
    # Static per-app key prefixes; a queued request's full sort key is
    # ``prefix + (sequence, arrival, app_id)`` — the trailing payload
    # never influences ordering because sequences are unique.  Plain
    # python-float tuples (not a numpy round-trip): heap sifts compare
    # these on every congested dispatch.
    prefixes = [policy.key.key_for(name) for name in app_names]

    # Completions are logged at start, in start order — the order the
    # oracle pushes completion events and draws service samples.  The
    # logs are cleared in place, never replaced, so their appends bind
    # once for the per-dispatch path.
    telemetry = StartOrderTelemetry(sink)
    log_start = telemetry.starts.append
    log_completion = telemetry.times.append
    log_latency = telemetry.latencies.append

    # Primitive state: ``pending`` holds in-service completion times
    # (len == busy instances), ``queue`` is a heap of keyed entries.
    pending = Departures()
    queue: List[tuple] = []
    service_time = sim._service_time
    observe_app = policy.observe_app

    def dispatch(now: float) -> None:
        """Serve the min-key queued request on the server freed at now."""
        entry = heappop(queue)
        completion = now + service_time(app_names[entry[-1]])
        pending.push(completion)
        log_start(now)
        log_completion(completion)
        log_latency(completion - entry[-2])

    base = 0  # global trace index of the chunk's first request
    window_size = _WINDOW_MIN
    for k, (arrivals, app_ids) in enumerate(
        checked_chunks(source, chunk_requests)
    ):
        if k:
            telemetry.fold(min(arrivals[0], pending.next_time()))
            pools.compact()
        n = len(arrivals)
        arrivals_list = arrivals.tolist()
        ids_list = app_ids.tolist()
        i = 0
        while i < n:
            now = arrivals_list[i]
            # Completions strictly before this arrival fire first (equal
            # timestamps fire after: arrival < tick < completion), each
            # one handing its server to the current min-key queued
            # request; once the queue is empty the rest just retire.
            while queue and pending.next_time() < now:
                dispatch(pending.pop())
            pending.depart_before(now)
            busy = len(pending)

            # ---- Pass A: contention-free window (immediate starts) --
            if not queue and busy < c:
                hi = min(n, i + window_size)
                m = hi - i
                arr = arrivals[i:hi]
                ids = app_ids[i:hi]
                values, events, snapshot = pools.peek(ids)
                dep_pend = np.searchsorted(pending.sorted(), arr, side="left")
                comp_opt = arr + values
                comp_sorted = np.sort(comp_opt)
                dep_window = np.searchsorted(comp_sorted, arr, side="left")
                n_before = busy + np.arange(m) - dep_pend - dep_window
                crossing = np.nonzero(n_before >= c)[0]
                cut = int(crossing[0]) if crossing.size else m
                pools.commit(ids, cut, events, snapshot, n_apps)
                # cut >= 1 here: with busy < c the first arrival always
                # fits, so the window never commits empty.  Observation
                # is coalesced to one call per app per window (the
                # documented set-like contract) — a per-request Python
                # call would forfeit the batched pass's throughput.
                for committed_id in np.unique(ids[:cut]):
                    observe_app(app_names[committed_id])
                arr_c = arr[:cut]
                comps = comp_opt[:cut]
                telemetry.immediate.extend(arr_c)
                telemetry.extend(comps, comps - arr_c)
                pending.add_sorted(comp_sorted if cut == m else np.sort(comps))
                i += cut
                window_size = (
                    min(window_size * 2, _WINDOW_MAX)
                    if cut == m
                    else _WINDOW_MIN
                )
                continue

            # ---- Keyed dispatch: one arrival, serially --------------
            app_id = ids_list[i]
            if busy < c:
                observe_app(app_names[app_id])
                completion = now + service_time(app_names[app_id])
                pending.push(completion)
                telemetry.immediate.append(now)
                log_completion(completion)
                log_latency(completion - now)
            elif len(queue) < qmax:
                observe_app(app_names[app_id])
                heappush(queue, prefixes[app_id] + (base + i, now, app_id))
                telemetry.queued.append(now)
            else:
                telemetry.drops.append(now)
            i += 1
        base += n

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
            log_start(freed_at)
            log_completion(completion)
            log_latency(completion - entry[-2])

    return telemetry.finalize()


def run_keyed(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under ``policy``: :func:`keyed_kernel` over one
    whole-trace chunk into a retaining sink."""
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return keyed_kernel(sim, policy, trace, sink, max(len(trace), 1))

"""The fault-free rack kernel, and the chunk-and-fold machinery of both.

The event-driven simulator in :mod:`repro.cluster.simulation` fires one
Python closure per arrival, completion, and sample tick.  A fault-free
run under FCFS (the paper's deployed policy) or any other
:class:`~repro.cluster.schedulers.KeyedPolicy` admits an array
formulation instead, :func:`fault_free_kernel`:

- **Pass A (contention-free windows).**  While nobody waits and a server
  is free every request starts at its own arrival, so a whole window
  reduces to ``completion = arrival + service`` plus a ``searchsorted``
  occupancy check (:func:`occupancy_cut`).  No policy reorders anything
  there.
- **Congested FIFO racks.**  When the trace's apps all share one key
  prefix (:func:`key_prefixes`) — FCFS's empty key, or keys that tie —
  start order is admission order, so the request admitted ``k``-th
  starts at ``max(arrival_k, min(avail))``, ``avail`` the ``c``
  server-free times: the O(n log c) multi-server recurrence, run over
  windows with vectorized drop detection (pass B) and stepped serially
  near the admission limit (pass C).
- **Congested keyed racks.**  Otherwise each completion dispatches the
  queued request minimizing ``(*key, sequence)`` from a heap of raw key
  tuples, and once arrivals stop the backlog drains in key order with
  one batched draw.

Service times come from the simulation's
:class:`~repro.cluster.service_pools.ServicePools`, under its one rule:
serial, windowed, read-ahead and bounded draws all consume the RNG in
one order, the oracle's.  Pass A and pass B read a window through
``peek`` assuming every request starts and ``commit`` the prefix that
did (growth draws past it are rolled back); pass C, the keyed dispatch
and the drain draw serially or commit whole.  The policy's
``observe_app`` coverage hook sees every admitted application, once per
application per committed window.

**One kernel, two runs.**  Both rack kernels (this one and
:func:`~repro.cluster.control_engine.control_kernel`) walk
``source.chunks(chunk_requests)`` (:func:`checked_chunks`) with a
chunk-local index, log events to Python lists and array parts, and at
each chunk boundary fold them into a telemetry *sink*: tick-visible
events become per-tick counts (:class:`TickLog`) and completions go out
in canonical (completion time, start order) — here below a watermark no
future completion can undercut (:class:`StartOrderTelemetry`).  Servers,
departures, queues, timers and service pools carry across chunks, and
pass-A windows stop at the chunk end, so the chunking never shows in a
result.  A materialized run (:func:`run_vectorized` for FCFS,
:func:`~repro.cluster.policy_engine.run_keyed` for every other keyed
policy) is one whole-trace chunk folded into a retaining
:class:`~repro.cluster.simulation.SeriesSink`; a streamed run
(:func:`~repro.cluster.streaming.run_streaming`) folds bounded chunks
into a :class:`~repro.cluster.streaming.StreamedSeries`.  The
event-driven path remains the reference oracle, and this kernel is
bit-identical to it: same drops, same latencies, same series, same RNG
end state, same service pools.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.faults import REASON_QUEUE_FULL
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace

# Adaptive window sizing for the batched passes: grow while windows commit
# whole, shrink back after a cut so drop bursts do not waste vector work.
_WINDOW_MIN = 512
_WINDOW_MAX = 32_768
# Within this many requests of the admission limit (instances + queue
# depth) a FIFO rack steps serially (pass C): drops arrive one by one there
# and windowed passes would be cut to confetti.
_CAPACITY_MARGIN = 64

_INF = float("inf")


def sample_tick_times(
    horizon_seconds: float, interval_seconds: float
) -> np.ndarray:
    """Sample-tick times ``interval, 2*interval, ... <= horizon``.

    Computed by scaling an integer range — drift-free, unlike repeatedly
    adding ``interval`` — and shared by both engines so their
    ``sample_times`` series are identical.
    """
    if interval_seconds <= 0:
        raise ConfigurationError(
            f"non-positive sample interval: {interval_seconds}"
        )
    if horizon_seconds < interval_seconds:
        return np.empty(0)
    count = int(np.floor(horizon_seconds / interval_seconds))
    # Guard the boundary against float rounding in the division.
    while count * interval_seconds > horizon_seconds:
        count -= 1
    while (count + 1) * interval_seconds <= horizon_seconds:
        count += 1
    return np.arange(1, count + 1, dtype=np.float64) * interval_seconds


def admission_ranks(arrivals: np.ndarray) -> List[int]:
    """Each request's rank in (arrival time, trace index) order.

    The event oracles admit requests in that order, so the rank is the
    admission sequence on which keyed policies break ties; on a
    time-ordered trace it is the trace index itself.
    """
    order = np.argsort(np.asarray(arrivals, dtype=np.float64), kind="stable")
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    return ranks.tolist()


class Departures:
    """In-service completion times, retired in bulk.

    Batched commits merge their completions into one sorted run, so
    moving the clock to an arrival at ``now`` retires every completion
    ``< now`` with one bisect instead of one heap pop each.  Completions
    started one at a time (serial steps, keyed dispatch) go to a small
    heap.  Ties follow the event queue: an arrival ranks before an
    equal-time completion, so a completion at exactly ``now`` stays in
    service.
    """

    __slots__ = ("_arr", "_list", "_head", "_next", "_heap")

    def __init__(self) -> None:
        self._arr = np.empty(0)  # sorted run; _list mirrors it
        self._list: List[float] = []
        self._head = 0  # completions before _head have departed
        self._next = _INF  # _list[_head], or +inf past the end
        self._heap: List[float] = []

    def __len__(self) -> int:
        return len(self._list) - self._head + len(self._heap)

    def _reset(self, merged: np.ndarray) -> None:
        self._arr = merged
        self._list = merged.tolist()
        self._head = 0
        self._next = self._list[0] if self._list else _INF

    def next_time(self) -> float:
        """The earliest in-service completion (+inf when idle)."""
        heap = self._heap
        if heap and heap[0] < self._next:
            return heap[0]
        return self._next

    def depart_before(self, now: float) -> None:
        """Retire every completion strictly before ``now``."""
        if self._next < now:
            head = bisect_left(self._list, now, self._head)
            self._head = head
            self._next = self._list[head] if head < len(self._list) else _INF
        heap = self._heap
        while heap and heap[0] < now:
            heappop(heap)

    def pop(self) -> float:
        """Retire and return the earliest in-service completion."""
        heap = self._heap
        if heap and heap[0] < self._next:
            return heappop(heap)
        done = self._next
        head = self._head + 1
        self._head = head
        self._next = self._list[head] if head < len(self._list) else _INF
        return done

    def push(self, completion: float) -> None:
        """Add one serially started completion."""
        heappush(self._heap, completion)

    def sorted(self) -> np.ndarray:
        """Every in-service completion, ascending."""
        if self._heap:
            merged = np.concatenate([self._arr[self._head :], self._heap])
            merged.sort()
            self._heap = []
            self._reset(merged)
        return self._arr[self._head :]

    def add_sorted(self, completions: np.ndarray) -> None:
        """Merge a batch of completions, given in ascending order."""
        live = self.sorted()
        self._reset(
            np.insert(
                completions, np.searchsorted(completions, live), live
            )
        )

    def drain(self) -> List[float]:
        """Every in-service completion as a heap list; empties self."""
        items = self._list[self._head :] + self._heap
        heapify(items)
        self._heap = []
        self._reset(np.empty(0))
        return items


def checked_chunks(
    source, chunk_requests: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(arrivals, app ids)`` of each non-empty chunk of ``source``.

    Checks the chunk protocol as it goes: the two columns have equal
    length, arrivals are sorted within each chunk and across chunk
    boundaries, and the first arrival is not negative.
    """
    last = None
    for chunk in source.chunks(chunk_requests):
        arrivals = np.asarray(chunk.arrival_seconds, dtype=np.float64)
        app_ids = np.asarray(chunk.app_ids, dtype=np.intp)
        if len(arrivals) != len(app_ids):
            raise ConfigurationError(
                "trace chunk arrivals and app ids differ in length"
            )
        if len(arrivals) == 0:
            continue
        if np.any(np.diff(arrivals) < 0) or (
            last is not None and arrivals[0] < last
        ):
            raise ConfigurationError(
                "the rack kernels require a time-ordered trace; chunk "
                "arrivals regress"
            )
        if last is None and arrivals[0] < 0:
            raise SimulationError(
                f"event scheduled at negative time {float(arrivals[0])}"
            )
        last = float(arrivals[-1])
        yield arrivals, app_ids


class TickLog:
    """Times of one kind of tick-visible event, counted per sample tick.

    A kernel logs the events as they happen — scalars through
    :attr:`append`, array parts through :meth:`extend` — in ascending
    time order, and :meth:`count` folds everything logged since the
    last call into per-tick counts: one search per tick the batch
    spans, never one per event.  ``inclusive`` events (arrivals, and
    starts and queue changes ranked before the tick) are visible to a
    tick at their own timestamp; the others (queue pops and completions
    ranked after it) are not.  :meth:`series` is what each tick
    observed — ``np.searchsorted(events, ticks, side)`` over every
    event logged, without retaining one.
    """

    __slots__ = ("append", "_tail", "_parts", "_ticks", "_sides", "_hist")

    def __init__(self, ticks: np.ndarray, inclusive: bool) -> None:
        self._tail: List[float] = []
        self.append = self._tail.append
        self._parts: List[np.ndarray] = []
        self._ticks = ticks
        # (side to search events into ticks, side to search ticks into
        # events): an inclusive event is first seen by the first tick at
        # or after it, an exclusive one by the first tick after it.
        self._sides = ("left", "right") if inclusive else ("right", "left")
        # One overflow cell for events past the last tick.
        self._hist = np.zeros(len(ticks) + 1, dtype=np.int64)

    def extend(self, times: np.ndarray) -> None:
        """Log an ascending array part (no earlier than what is logged)."""
        self._spill()
        self._parts.append(times)

    def _spill(self) -> None:
        if self._tail:
            self._parts.append(np.array(self._tail))
            self._tail.clear()

    def count(self) -> None:
        """Fold the events logged since the last call into the counts."""
        self._spill()
        parts = self._parts
        if not parts:
            return
        times = parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.clear()
        if len(times) == 0:
            return
        event_side, tick_side = self._sides
        # Ticks before ``lo`` see none of these events, ticks from ``hi``
        # on see all of them; each tick between sees a searched prefix.
        lo, hi = self._ticks.searchsorted((times[0], times[-1]), event_side)
        seen = times.searchsorted(self._ticks[lo:hi], tick_side)
        hist = self._hist
        hist[lo:hi] += seen
        hist[lo + 1 : hi + 1] -= seen
        hist[hi] += len(times)

    def series(self) -> np.ndarray:
        """Events observed at each tick (call after the last count)."""
        return np.cumsum(self._hist[:-1])


class StartOrderTelemetry:
    """The event logs of a kernel that knows a completion at its start.

    The fault-free kernel logs each request's ``(completion,
    latency)`` when it starts, in start order — scalars through
    :attr:`times` / :attr:`latencies`, array parts through
    :meth:`extend` — beside the tick-visible events as they happen:
    arrivals that start at once (:attr:`immediate`) or queue
    (:attr:`queued`), queued starts (:attr:`starts`), and queue-full
    drops (:attr:`drops`).  :meth:`fold` moves them into the sink,
    emitting through one stable sort every completion below
    ``watermark`` — a time no future completion can undercut — in
    canonical (completion time, start order), the order the oracle's
    completion events fire in; the rest carry to the next fold.  Every
    log is cleared in place, never replaced, so a kernel may bind its
    ``append`` once.
    """

    __slots__ = (
        "times", "latencies", "drops", "immediate", "queued", "starts",
        "_completed", "_parts", "_sink",
    )

    def __init__(self, sink) -> None:
        ticks = sink.sample_times
        self._sink = sink
        self.times: List[float] = []
        self.latencies: List[float] = []
        self._parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self.drops: List[float] = []
        self.immediate = TickLog(ticks, inclusive=True)
        self.queued = TickLog(ticks, inclusive=True)
        self.starts = TickLog(ticks, inclusive=False)
        self._completed = TickLog(ticks, inclusive=False)

    def extend(self, times: np.ndarray, latencies: np.ndarray) -> None:
        """Log a part of completions and latencies, in start order."""
        self._spill()
        self._parts.append((times, latencies))

    def _spill(self) -> None:
        if self.times:
            self._parts.append(
                (np.array(self.times), np.array(self.latencies))
            )
            self.times.clear()
            self.latencies.clear()

    def fold(self, watermark: float) -> None:
        """Fold the drops, the tick counts and the completions below
        ``watermark`` into the sink."""
        sink = self._sink
        self._spill()
        parts = self._parts
        if parts:
            if len(parts) == 1:
                times, latencies = parts[0]
            else:
                times = np.concatenate([part[0] for part in parts])
                latencies = np.concatenate([part[1] for part in parts])
            # A stable sort keeps start order among equal completions.
            order = np.argsort(times, kind="stable")
            ordered = times[order]
            cut = int(ordered.searchsorted(watermark, "left"))
            sink.fold_completions(ordered[:cut], latencies[order[:cut]])
            self._completed.extend(ordered[:cut])
            keep = np.sort(order[cut:])
            parts[:] = [(times[keep], latencies[keep])] if len(keep) else []
        if self.drops:
            sink.fold_drops(np.array(self.drops), REASON_QUEUE_FULL)
            self.drops.clear()
        for log in (self.immediate, self.queued, self.starts, self._completed):
            log.count()

    def finalize(self):
        """Fold what is left, set the sink's tick series, and return
        ``sink.finalize()``."""
        self.fold(_INF)
        # Same-timestamp event order is arrival < sample tick <
        # completion: arrivals (and with them immediate starts) at
        # exactly a tick are visible to it, queue pops and completions
        # at exactly a tick are not.
        sink = self._sink
        starts = self.starts.series()
        sink.busy_instances = (
            self.immediate.series() + starts - self._completed.series()
        )
        sink.queue_depth = self.queued.series() - starts
        return sink.finalize()


def key_prefixes(
    policy: "KeyedPolicy", app_names: List[str]
) -> Tuple[List[tuple], bool]:
    """Each app's key prefix under ``policy``, and whether they all tie.

    A queued request sorts by its app's prefix, then by admission
    sequence, so on a *FIFO rack* — every prefix tied, as under FCFS's
    empty key — the queue serves in admission order whatever the policy.
    """
    prefixes = [policy.key.key_for(name) for name in app_names]
    return prefixes, len(set(prefixes)) <= 1


def occupancy_cut(
    occupied: int,
    departures: np.ndarray,
    arrivals: np.ndarray,
    completions: np.ndarray,
    limit: int,
) -> int:
    """Index of the first window arrival to find ``limit`` or more
    requests in the system (``len(arrivals)`` if none does).

    Arrival ``k`` finds the ``occupied`` requests present at the window
    start plus the ``k`` before it, less those that completed strictly
    before it: ``departures`` (in-system) and ``completions`` (the
    window's), both ascending.
    """
    in_system = (
        occupied
        + np.arange(len(arrivals))
        - np.searchsorted(departures, arrivals, side="left")
        - np.searchsorted(completions, arrivals, side="left")
    )
    crossing = np.flatnonzero(in_system >= limit)
    return int(crossing[0]) if crossing.size else len(arrivals)


class _FaultFreeRun:
    """The state one :func:`fault_free_kernel` run walks, and its passes.

    ``pending`` holds the completion of every request in the system: on
    a FIFO rack queued ones too (the recurrence fixes their starts at
    admission), with ``avail`` the heap of the ``c`` server-free times
    when known; on a keyed rack only started ones, queued requests
    waiting in the heap ``queue`` as ``prefix + (sequence, arrival, app
    id)``.
    """

    def __init__(
        self, sim: "RackSimulation", policy: "KeyedPolicy", source, sink
    ) -> None:
        self.c = sim._max_instances
        self.qmax = sim._queue_depth
        self.app_names = list(source.app_catalog)
        self.pools = sim.pools
        self.prefixes, self.fifo = key_prefixes(policy, self.app_names)
        self.observe_app = policy.observe_app
        self.service_time = sim.pools.draw
        self.telemetry = StartOrderTelemetry(sink)
        self.pending = Departures()
        self.queue: List[tuple] = []
        self.avail: Optional[List[float]] = None
        self.window_size = _WINDOW_MIN
        # The current chunk, its list mirrors, and the global trace
        # index of its first request.
        self.arrivals = np.empty(0)
        self.app_ids = np.empty(0, dtype=np.intp)
        self.arrivals_list: List[float] = []
        self.ids_list: List[int] = []
        self.base = 0

    def commit(self, ids, committed: int) -> None:
        """Commit a window's first ``committed`` requests: commit the
        pools' window prefix, observe each admitted app once — the
        policy's set-like coverage contract — and grow the next window
        after a whole one, shrink it after a cut."""
        self.pools.commit(committed)
        for app_id in np.flatnonzero(np.bincount(ids[:committed])).tolist():
            self.observe_app(self.app_names[app_id])
        self.window_size = (
            min(self.window_size * 2, _WINDOW_MAX)
            if committed == len(ids)
            else _WINDOW_MIN
        )

    def pass_a(self, i: int) -> int:
        """Pass A from chunk index ``i``, where nobody waits and a server
        is free: every request starts at its arrival, up to the first
        that would find all ``c`` busy; returns that arrival's index."""
        pending = self.pending
        arr = self.arrivals[i : i + self.window_size]
        ids = self.app_ids[i : i + self.window_size]
        values = self.pools.peek(ids, self.app_names)
        comps = arr + values
        comp_sorted = np.sort(comps)
        # cut >= 1: the first arrival finds a server free.
        cut = occupancy_cut(
            len(pending), pending.sorted(), arr, comp_sorted, self.c
        )
        self.commit(ids, cut)
        if cut < len(arr):
            arr, comps = arr[:cut], comps[:cut]
            comp_sorted = np.sort(comps)
        self.telemetry.immediate.extend(arr)
        self.telemetry.extend(comps, comps - arr)
        pending.add_sorted(comp_sorted)
        self.avail = None  # a new completion may be a server-free time
        return i + cut

    def fifo_stretch(self, i: int) -> int:
        """Serve arrivals from chunk index ``i`` while a FIFO rack's
        servers are all busy; returns the index of the first arrival to
        find one free, or the chunk end.

        Start order is admission order, so an admitted request starts at
        ``max(arrival, min(avail))`` — the multi-server recurrence — and
        draws its service on arrival.  Pass B runs the recurrence over a
        window, cut at its first queue-full drop; within
        ``_CAPACITY_MARGIN`` of the admission limit pass C steps
        serially.
        """
        arrivals_list = self.arrivals_list
        n = len(arrivals_list)
        pending = self.pending
        telemetry = self.telemetry
        c = self.c
        capacity = c + self.qmax
        serial_threshold = max(c, capacity - _CAPACITY_MARGIN)
        avail = self.avail
        while i < n:
            now = arrivals_list[i]
            pending.depart_before(now)
            occupied = len(pending)
            if occupied < c:
                break
            if avail is None:
                # Pop-min/push-completion keeps the c server-free times
                # the c latest completions admitted so far, all still in
                # the system; ascending order is already a heap.
                avail = pending.sorted()[-c:].tolist()

            if occupied < serial_threshold:
                # ---- Pass B: the recurrence over a window -----------
                arr = self.arrivals[i : i + self.window_size]
                ids = self.app_ids[i : i + self.window_size]
                values = self.pools.peek(ids, self.app_names)
                starts_l: List[float] = []
                comps_l: List[float] = []
                append_start = starts_l.append
                append_comp = comps_l.append
                for arrival, service in zip(
                    arrivals_list[i : i + len(arr)], values.tolist()
                ):
                    free = avail[0]
                    start = arrival if arrival > free else free
                    append_start(start)
                    completion = start + service
                    append_comp(completion)
                    heapreplace(avail, completion)
                comps = np.asarray(comps_l)
                comp_sorted = np.sort(comps)
                # The first arrival to find the queue full is dropped;
                # the later starts assumed it admitted, so cut there.
                cut = occupancy_cut(
                    occupied, pending.sorted(), arr, comp_sorted, capacity
                )
                self.commit(ids, cut)
                starts = np.asarray(starts_l[:cut])
                if cut < len(arr):
                    avail = None  # rebuilt from pending when next needed
                    arr, comps = arr[:cut], comps[:cut]
                    comp_sorted = np.sort(comps)
                    telemetry.drops.append(arrivals_list[i + cut])
                    i += 1
                pending.add_sorted(comp_sorted)
                queued = starts > arr
                telemetry.immediate.extend(arr[~queued])
                telemetry.queued.extend(arr[queued])
                telemetry.starts.extend(starts[queued])
                telemetry.extend(comps, comps - arr)
                i += cut
                continue

            # ---- Pass C: one serial step near the admission limit ---
            i += 1
            if occupied >= capacity:
                telemetry.drops.append(now)  # servers busy, queue full
                continue
            name = self.app_names[self.ids_list[i - 1]]
            self.observe_app(name)
            free = avail[0]
            start = now if now > free else free
            completion = start + self.service_time(name)
            heapreplace(avail, completion)
            pending.push(completion)
            if start <= now:
                telemetry.immediate.append(now)
            else:
                telemetry.queued.append(now)
                telemetry.starts.append(start)
            telemetry.times.append(completion)
            telemetry.latencies.append(completion - now)
        self.avail = avail
        return i

    def keyed_stretch(self, i: int) -> int:
        """Serve arrivals from chunk index ``i`` while a keyed rack is
        congested; returns the index of the first arrival to find the
        queue empty and a server free, or the chunk end.

        Each completion before an arrival hands its server to the queued
        request minimizing ``(*key, sequence)``, drawing its service at
        that start — the oracle's order.  Every server stays busy while
        a request waits, so an arrival here queues or, the queue full,
        is dropped.
        """
        arrivals_list = self.arrivals_list
        n = len(arrivals_list)
        pending = self.pending
        queue = self.queue
        app_names = self.app_names
        service_time = self.service_time
        telemetry = self.telemetry
        log_start = telemetry.starts.append
        log_completion = telemetry.times.append
        log_latency = telemetry.latencies.append
        while i < n:
            now = arrivals_list[i]
            # Completions strictly before this arrival fire first (equal
            # timestamps fire after: arrival < tick < completion); once
            # the queue is empty the rest just retire.
            while queue and pending.next_time() < now:
                freed = pending.pop()
                entry = heappop(queue)
                completion = freed + service_time(app_names[entry[-1]])
                pending.push(completion)
                log_start(freed)
                log_completion(completion)
                log_latency(completion - entry[-2])
            pending.depart_before(now)
            if not queue and len(pending) < self.c:
                break
            if len(queue) < self.qmax:
                app_id = self.ids_list[i]
                self.observe_app(app_names[app_id])
                heappush(
                    queue,
                    self.prefixes[app_id] + (self.base + i, now, app_id),
                )
                telemetry.queued.append(now)
            else:
                telemetry.drops.append(now)
            i += 1
        return i

    def drain(self) -> None:
        """Serve a keyed rack's backlog once arrivals stop.

        Every completion then hands its server to the min-(key,
        sequence) entry and nothing new enqueues, so the backlog is
        served in sorted-queue order: one batched draw (pools replay the
        oracle's per-dispatch order) feeds the float-heap recurrence.
        """
        if not self.queue:
            return
        backlog = sorted(self.queue)
        ids = np.fromiter(
            (entry[-1] for entry in backlog), dtype=np.intp, count=len(backlog)
        )
        values = self.pools.peek(ids, self.app_names)
        self.pools.commit(len(backlog))
        servers = self.pending.drain()
        telemetry = self.telemetry
        for entry, service in zip(backlog, values.tolist()):
            freed = servers[0]
            completion = freed + service
            heapreplace(servers, completion)
            telemetry.starts.append(freed)
            telemetry.times.append(completion)
            telemetry.latencies.append(completion - entry[-2])


def fault_free_kernel(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sink,
    chunk_requests: int,
):
    """Serve ``source`` under ``policy`` chunk by chunk; returns
    ``sink.finalize()``.

    Pass-A windows alternate with congested stretches: the FIFO
    recurrence on a FIFO rack (:func:`key_prefixes`), the key-heap
    dispatch and a final drain otherwise.  Folds into ``sink`` at every
    chunk boundary after the first, with the watermark ``min(next
    arrival, earliest in-system completion)``, and once more at the
    end; pools compact at the same boundaries.
    """
    run = _FaultFreeRun(sim, policy, source, sink)
    congested = run.fifo_stretch if run.fifo else run.keyed_stretch
    for k, (arrivals, app_ids) in enumerate(
        checked_chunks(source, chunk_requests)
    ):
        if k:
            run.telemetry.fold(min(arrivals[0], run.pending.next_time()))
            run.pools.compact()
            run.base += len(run.arrivals)
        run.arrivals, run.app_ids = arrivals, app_ids
        run.arrivals_list, run.ids_list = arrivals.tolist(), app_ids.tolist()
        i = congested(0)
        while i < len(arrivals):
            i = congested(run.pass_a(i))
    run.drain()
    return run.telemetry.finalize()


def run_vectorized(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under FCFS: :func:`fault_free_kernel` over one
    whole-trace chunk into a retaining sink."""
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return fault_free_kernel(sim, policy, trace, sink, max(len(trace), 1))

"""The FCFS rack kernel, and the chunk-and-fold machinery of every kernel.

The event-driven simulator in :mod:`repro.cluster.simulation` fires one
Python closure per arrival, completion, and sample tick.  For FCFS — the
paper's deployed policy — the same dynamics admit an array formulation,
:func:`fcfs_kernel`:

- **Virtual server assignment.**  With ``c`` interchangeable instances and
  FCFS admission, the request that is admitted ``k``-th starts at
  ``max(arrival_k, min(avail))`` where ``avail`` is the multiset of the
  ``c`` earliest server-free times — the classic O(n log c) multi-server
  recurrence.  Queued requests can be assigned to servers the moment they
  are admitted; physical start order equals admission order, so the
  resulting starts, completions, and per-app service-sample indices are
  exactly the oracle's.
- **Busy-period batching.**  Arrivals are processed in adaptively sized
  windows.  While the system stays below capacity every request starts at
  its own arrival, so a whole window reduces to ``completion = arrival +
  service`` plus a ``searchsorted`` occupancy check (pass A).  Congested
  windows fall back to a tight float-heap kernel (pass B), and near the
  admission limit a serial step (pass C) replays the oracle's
  drop-by-drop bookkeeping cheaply.

Service times consume the simulation RNG in precisely the oracle's order:
pools are drawn lazily per application (initial block at first admission,
doubling on exhaustion), and tentative draws made while sizing a window
are rolled back — RNG state and pool contents restored, the committed
prefix replayed — whenever the window is cut short by a drop.

**One kernel, two runs.**  Every rack kernel (this one,
:func:`~repro.cluster.policy_engine.keyed_kernel` and
:func:`~repro.cluster.control_engine.control_kernel`) walks
``source.chunks(chunk_requests)`` (:func:`checked_chunks`) with a
chunk-local index, logs events to Python lists and array parts, and at
each chunk boundary folds them into a telemetry *sink*: tick-visible
events become per-tick counts (:class:`TickLog`) and completions go out
in canonical (completion time, start order) — for FCFS and keyed runs
below a watermark no future completion can undercut
(:class:`StartOrderTelemetry`).  Servers, departures, queues, timers and
service pools carry across chunks, and pass-A windows stop at the chunk
end, so the chunking never shows in a result.  A materialized run
(:func:`run_vectorized`) is one whole-trace chunk folded into a
retaining :class:`~repro.cluster.simulation.SeriesSink`; a streamed run
(:func:`~repro.cluster.streaming.run_streaming`) folds bounded chunks
into a :class:`~repro.cluster.streaming.StreamedSeries`.  The event-driven
path remains the reference oracle, and for FCFS this kernel is
bit-identical to it: same drops, same latencies, same series, same RNG
end state.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

from repro.cluster.faults import REASON_QUEUE_FULL
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace

# Adaptive window sizing for the batched passes: grow while windows commit
# whole, shrink back after a cut so drop bursts do not waste vector work.
_WINDOW_MIN = 512
_WINDOW_MAX = 32_768
# Within this many requests of the admission limit (instances + queue
# depth) the engine steps serially (pass C): drops arrive one by one there
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


class _ServicePools:
    """Chunk-granular view of the oracle's per-app service-sample pools.

    Operates directly on the owning :class:`RackSimulation`'s pool dicts
    (``_service_samples`` / ``_service_cursor``) so that single draws via
    ``RackSimulation._service_time`` and batched draws interleave exactly
    like the oracle's, and the post-run pool state matches bit for bit.
    """

    def __init__(self, sim: "RackSimulation", app_names: List[str]) -> None:
        self._sim = sim
        self._app_names = app_names

    def _pool_len(self, name: str) -> int:
        """Logical pool length: trimmed + physical + pending samples."""
        pool = self._sim._service_samples.get(name)
        if pool is None:
            return 0
        return (
            self._sim._service_trim.get(name, 0)
            + len(pool)
            + self._sim._pool_pending(name)
        )

    def _grow(self, name: str, size: int) -> None:
        """One oracle-order draw: initial block or doubling block."""
        sim = self._sim
        fresh = sim._pool_grow_block(name, size)
        pool = sim._service_samples.get(name)
        if pool is None:
            sim._service_samples[name] = fresh
            sim._service_cursor.setdefault(name, 0)
        else:
            sim._service_samples[name] = np.concatenate([pool, fresh])

    def peek(
        self, app_ids: np.ndarray
    ) -> Tuple[np.ndarray, List[Tuple[int, int, int]], object]:
        """Service times for a window, assuming every request is admitted.

        Returns ``(values, grow_events, snapshot)``.  ``grow_events`` are
        ``(window_position, app_id, draw_size)`` in the order the oracle
        would perform the draws; ``snapshot`` restores RNG and pool state
        if the caller commits only a prefix of the window.
        """
        from repro.cluster.simulation import (
            _POOL_BLOCK_MAX,
            _PRESAMPLE_COUNT,
        )

        sim = self._sim
        values = np.empty(len(app_ids))
        events: List[Tuple[int, int, int]] = []
        positions: Dict[int, np.ndarray] = {}
        for app_id in np.flatnonzero(np.bincount(app_ids)).tolist():
            name = self._app_names[app_id]
            pos = np.nonzero(app_ids == app_id)[0]
            positions[app_id] = pos
            cursor = sim._service_cursor.get(name, 0)
            length = self._pool_len(name)
            while length < cursor + len(pos):
                if length > 0:
                    size = min(length, _POOL_BLOCK_MAX)
                else:
                    size = _PRESAMPLE_COUNT
                events.append((int(pos[length - cursor]), app_id, size))
                length += size
        snapshot = None
        if events:
            events.sort()
            snapshot = (
                sim._rng.bit_generator.state,
                {
                    self._app_names[app_id]: self._pool_state(
                        self._app_names[app_id]
                    )
                    for _, app_id, _ in events
                },
            )
            for _, app_id, size in events:
                self._grow(self._app_names[app_id], size)
        for app_id, pos in positions.items():
            name = self._app_names[app_id]
            offset = sim._service_cursor.get(name, 0) - sim._service_trim.get(
                name, 0
            )
            need = offset + len(pos)
            pool = sim._service_samples[name]
            while len(pool) < need:
                # Bounded-pool mode: part of the range is still pending;
                # re-materialize it window by window.
                pool = np.concatenate([pool, sim._pool_refill(name)])
                sim._service_samples[name] = pool
            values[pos] = pool[offset:need]
        return values, events, snapshot

    def _pool_state(self, name: str):
        """Restorable (physical pool, pending blocks) pair for ``name``."""
        sim = self._sim
        pending = sim._service_pending.get(name)
        return (
            sim._service_samples.get(name),
            None if pending is None else [list(block) for block in pending],
        )

    def commit(
        self,
        app_ids: np.ndarray,
        committed: int,
        events: List[Tuple[int, int, int]],
        snapshot: object,
        n_apps: int,
    ) -> None:
        """Advance cursors for the committed prefix; roll back the rest.

        If any tentative growth draw belonged to a request beyond the
        committed prefix, RNG and pool state are restored from
        ``snapshot`` and only the in-prefix draws are replayed — in the
        same order, from the same RNG states, hence with the same values.
        """
        sim = self._sim
        if snapshot is not None and any(
            pos >= committed for pos, _, _ in events
        ):
            rng_state, pools = snapshot
            sim._rng.bit_generator.state = rng_state
            for name, (pool, pending) in pools.items():
                if pool is None:
                    sim._service_samples.pop(name, None)
                else:
                    sim._service_samples[name] = pool
                if pending is None:
                    sim._service_pending.pop(name, None)
                else:
                    sim._service_pending[name] = [
                        list(block) for block in pending
                    ]
            for pos, app_id, size in events:
                if pos < committed:
                    self._grow(self._app_names[app_id], size)
        if committed:
            counts = np.bincount(app_ids[:committed], minlength=n_apps)
            for app_id in np.nonzero(counts)[0]:
                name = self._app_names[int(app_id)]
                sim._service_cursor[name] = sim._service_cursor.get(
                    name, 0
                ) + int(counts[app_id])

    def compact(self) -> None:
        """Physically drop consumed pool prefixes (streaming engines).

        Cursors stay logical and ``_service_trim`` records the discarded
        count, so the doubling growth schedule — and hence every future
        RNG draw — is unchanged; only peak memory shrinks.  Must not be
        called between :meth:`peek` and :meth:`commit` (the snapshot
        holds physical arrays at the current trim).
        """
        sim = self._sim
        for name, pool in sim._service_samples.items():
            trim = sim._service_trim.get(name, 0)
            consumed = sim._service_cursor.get(name, 0) - trim
            # Compact only when the copy (surviving tail) is no larger
            # than what it frees, keeping total copy work amortized
            # linear in the number of draws.
            if consumed >= 1024 and consumed >= len(pool) - consumed:
                sim._service_samples[name] = pool[consumed:].copy()
                sim._service_trim[name] = trim + consumed


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

    The FCFS and keyed kernels log each request's ``(completion,
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


def fcfs_kernel(
    sim: "RackSimulation", source, sink, chunk_requests: int
):
    """Serve ``source`` FCFS chunk by chunk; returns ``sink.finalize()``.

    Folds into ``sink`` at every chunk boundary after the first, with
    the watermark ``min(next arrival, earliest in-service completion)``,
    and once more at the end; pools compact at the same boundaries.
    """
    c = sim._max_instances
    capacity = c + sim._queue_depth
    serial_threshold = max(c, capacity - _CAPACITY_MARGIN)

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    pools = _ServicePools(sim, app_names)

    telemetry = StartOrderTelemetry(sink)
    avail: List[float] = [0.0] * c  # heap of server-free times
    pending = Departures()  # in-system completion times
    window_size = _WINDOW_MIN
    for k, (arrivals, app_ids) in enumerate(
        checked_chunks(source, chunk_requests)
    ):
        if k:
            telemetry.fold(min(arrivals[0], pending.next_time()))
            pools.compact()
        n = len(arrivals)
        arrivals_list = arrivals.tolist()
        i = 0
        while i < n:
            now = arrivals_list[i]
            pending.depart_before(now)
            in_system = len(pending)

            # ---- Pass C: serial steps near the admission limit ------
            if in_system >= serial_threshold:
                if in_system >= capacity:
                    telemetry.drops.append(now)  # busy == c, queue full
                    i += 1
                    continue
                service = sim._service_time(app_names[app_ids[i]])
                free = avail[0]
                start = now if now > free else free
                completion = start + service
                heapreplace(avail, completion)
                pending.push(completion)
                if start <= now:
                    telemetry.immediate.append(now)
                else:
                    telemetry.queued.append(now)
                    telemetry.starts.append(start)
                telemetry.times.append(completion)
                telemetry.latencies.append(completion - now)
                i += 1
                continue

            # ---- Windowed passes, stopping at the chunk end ---------
            hi = min(n, i + window_size)
            m = hi - i
            arr = arrivals[i:hi]
            ids = app_ids[i:hi]
            values, events, snapshot = pools.peek(ids)
            dep_pend = np.searchsorted(pending.sorted(), arr, side="left")
            offsets = np.arange(m)

            committed = -1  # sentinel: window not resolved yet
            drop_after = False
            avail_is_final = False

            # ---- Pass A: contention-free window (immediate starts) --
            if in_system < c:
                comp_opt = arr + values
                comp_sorted = np.sort(comp_opt)
                dep_window = np.searchsorted(comp_sorted, arr, side="left")
                n_before = in_system + offsets - dep_pend - dep_window
                crossing = np.nonzero(n_before >= c)[0]
                cut = int(crossing[0]) if crossing.size else m
                if cut > 0:
                    committed = cut
                    starts_arr = None  # every start is its arrival
                    comps_arr = comp_opt[:cut]

            # ---- Pass B: heap kernel with drop detection ------------
            if committed < 0:
                heap = avail[:]
                starts_l: List[float] = []
                comps_l: List[float] = []
                append_start = starts_l.append
                append_comp = comps_l.append
                for arrival_t, service_t in zip(
                    arrivals_list[i:hi], values.tolist()
                ):
                    free = heap[0]
                    start = arrival_t if arrival_t > free else free
                    append_start(start)
                    completion = start + service_t
                    append_comp(completion)
                    heapreplace(heap, completion)
                comps_b = np.asarray(comps_l)
                comp_sorted = np.sort(comps_b)
                dep_window = np.searchsorted(comp_sorted, arr, side="left")
                n_before = in_system + offsets - dep_pend - dep_window
                over = np.nonzero(n_before >= capacity)[0]
                if over.size:
                    committed = int(over[0])  # first over-capacity arrival
                    drop_after = True
                else:
                    committed = m
                    avail = heap  # final server state, already a heap
                    avail_is_final = True
                starts_arr = np.asarray(starts_l[:committed])
                comps_arr = comps_b[:committed]

            # ---- Commit the resolved prefix -------------------------
            pools.commit(ids, committed, events, snapshot, n_apps)
            if committed:
                arr_c = arr[:committed]
                pending.add_sorted(
                    comp_sorted if committed == m else np.sort(comps_arr)
                )
                if not avail_is_final:
                    # The c server free-times are always the c largest
                    # completions seen so far (pop-min/push-completion
                    # keeps exactly that invariant), so the heap can be
                    # rebuilt from the committed prefix without replay.
                    merged = np.concatenate([np.asarray(avail), comps_arr])
                    avail = np.partition(merged, -c)[-c:].tolist()
                    heapify(avail)
                if starts_arr is None:
                    telemetry.immediate.extend(arr_c)
                else:
                    immediate = starts_arr <= arr_c
                    telemetry.immediate.extend(arr_c[immediate])
                    telemetry.queued.extend(arr_c[~immediate])
                    telemetry.starts.extend(starts_arr[~immediate])
                telemetry.extend(comps_arr, comps_arr - arr_c)
            i += committed
            if drop_after:
                telemetry.drops.append(arrivals_list[i])
                i += 1
            if committed == m:
                window_size = min(window_size * 2, _WINDOW_MAX)
            else:
                window_size = _WINDOW_MIN

    return telemetry.finalize()


def run_vectorized(
    sim: "RackSimulation",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under FCFS: :func:`fcfs_kernel` over one
    whole-trace chunk into a retaining sink."""
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return fcfs_kernel(sim, trace, sink, max(len(trace), 1))

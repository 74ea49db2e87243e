"""Vectorized FCFS rack engine: the fast path behind ``RackSimulation.run``.

The event-driven simulator in :mod:`repro.cluster.simulation` fires one
Python closure per arrival, completion, and sample tick.  For FCFS — the
paper's deployed policy — the same dynamics admit an array formulation:

- **Virtual server assignment.**  With ``c`` interchangeable instances and
  FCFS admission, the request that is admitted ``k``-th starts at
  ``max(arrival_k, min(avail))`` where ``avail`` is the multiset of the
  ``c`` earliest server-free times — the classic O(n log c) multi-server
  recurrence.  Queued requests can be assigned to servers the moment they
  are admitted; physical start order equals admission order, so the
  resulting starts, completions, and per-app service-sample indices are
  exactly the oracle's.
- **Busy-period batching.**  Arrivals are processed in adaptively sized
  chunks.  While the system stays below capacity every request starts at
  its own arrival, so a whole chunk reduces to ``completion = arrival +
  service`` plus a ``searchsorted`` occupancy check (pass A).  Congested
  chunks fall back to a tight float-heap kernel (pass B), and near the
  admission limit a serial step (pass C) replays the oracle's
  drop-by-drop bookkeeping cheaply.
- **Series reconstruction.**  Queue-depth and busy-instance series are
  rebuilt per sample tick with ``np.searchsorted`` over the start /
  completion arrays (honouring the event queue's arrival < tick <
  completion tie-break), instead of firing one callback per tick.

Service times consume the simulation RNG in precisely the oracle's order:
pools are drawn lazily per application (initial block at first admission,
doubling on exhaustion), and tentative draws made while sizing a chunk are
rolled back — RNG state and pool contents restored, the committed prefix
replayed — whenever the chunk is cut short by a drop.  The event-driven
path therefore remains the reference oracle, and for FCFS this engine is
bit-identical to it: same drops, same latencies, same series, same RNG
end state.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError, SchedulingError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace

# Adaptive chunk sizing for the batched passes: grow while chunks commit
# whole, shrink back after a cut so drop bursts do not waste vector work.
_CHUNK_MIN = 512
_CHUNK_MAX = 32_768
# Within this many requests of the admission limit (instances + queue
# depth) the engine steps serially (pass C): drops arrive one by one there
# and chunked passes would be cut to confetti.
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
        """Service times for a chunk, assuming every request is admitted.

        Returns ``(values, grow_events, snapshot)``.  ``grow_events`` are
        ``(chunk_position, app_id, draw_size)`` in the order the oracle
        would perform the draws; ``snapshot`` restores RNG and pool state
        if the caller commits only a prefix of the chunk.
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


def run_vectorized(
    sim: "RackSimulation",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under FCFS with the vectorized engine."""
    from repro.cluster.simulation import SimulationSeries

    arrivals = np.asarray(trace.arrival_seconds, dtype=np.float64)
    n = len(arrivals)
    if n and float(arrivals[0]) < 0:
        raise SimulationError(
            f"event scheduled at negative time {float(arrivals[0])}"
        )
    c = sim._max_instances
    qmax = sim._queue_depth
    capacity = c + qmax
    serial_threshold = max(c, capacity - _CAPACITY_MARGIN)

    app_names = list(trace.app_catalog)
    n_apps = len(app_names)
    app_ids = trace.app_ids.astype(np.intp)
    known = np.array(
        [name in sim._applications for name in app_names], dtype=bool
    )
    pools = _ServicePools(sim, app_names)

    start_times = np.empty(n)
    completion_times = np.empty(n)
    admitted = np.zeros(n, dtype=bool)
    dropped = 0
    drop_times: List[float] = []

    avail: List[float] = [0.0] * c  # heap of server-free times
    pending = Departures()  # in-system completion times
    arrivals_list = arrivals.tolist()

    i = 0
    chunk_size = _CHUNK_MIN
    while i < n:
        now = arrivals_list[i]
        pending.depart_before(now)
        in_system = len(pending)

        # ---- Pass C: serial steps near the admission limit ----------
        if in_system >= serial_threshold:
            if in_system >= capacity:
                dropped += 1  # busy == c and the queue is full
                drop_times.append(now)
                i += 1
                continue
            service = sim._service_time(app_names[app_ids[i]])
            free = avail[0]
            start = now if now > free else free
            completion = start + service
            heapreplace(avail, completion)
            pending.push(completion)
            start_times[i] = start
            completion_times[i] = completion
            admitted[i] = True
            i += 1
            continue

        # ---- Chunked passes -----------------------------------------
        hi = min(n, i + chunk_size)
        unknown = np.nonzero(~known[app_ids[i:hi]])[0]
        if unknown.size:
            if unknown[0] == 0:
                # The queue has room, so the oracle would admit this
                # request, draw its service time, and fail.
                raise SchedulingError(
                    f"unknown application {app_names[app_ids[i]]!r}"
                )
            hi = i + int(unknown[0])
        chunk = slice(i, hi)
        m = hi - i
        arr = arrivals[chunk]
        values, events, snapshot = pools.peek(app_ids[chunk])
        dep_pend = np.searchsorted(pending.sorted(), arr, side="left")
        offsets = np.arange(m)

        committed = -1  # sentinel: chunk not resolved yet
        drop_after = False
        avail_is_final = False

        # ---- Pass A: contention-free chunk (all starts immediate) ---
        if in_system < c:
            comp_opt = arr + values
            comp_sorted = np.sort(comp_opt)
            dep_chunk = np.searchsorted(comp_sorted, arr, side="left")
            n_before = in_system + offsets - dep_pend - dep_chunk
            crossing = np.nonzero(n_before >= c)[0]
            cut = int(crossing[0]) if crossing.size else m
            if cut > 0:
                committed = cut
                starts_arr = arr[:cut]
                comps_arr = comp_opt[:cut]

        # ---- Pass B: heap kernel with drop detection ----------------
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
            dep_chunk = np.searchsorted(comp_sorted, arr, side="left")
            n_before = in_system + offsets - dep_pend - dep_chunk
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

        # ---- Commit the resolved prefix -----------------------------
        pools.commit(app_ids[chunk], committed, events, snapshot, n_apps)
        if committed:
            committed_slice = slice(i, i + committed)
            start_times[committed_slice] = starts_arr
            completion_times[committed_slice] = comps_arr
            admitted[committed_slice] = True
            pending.add_sorted(
                comp_sorted if committed == m else np.sort(comps_arr)
            )
            if not avail_is_final:
                # The c server free-times are always the c largest
                # completions seen so far (pop-min/push-completion keeps
                # exactly that invariant), so the heap can be rebuilt
                # from the committed prefix without replaying it.
                merged = np.concatenate([np.asarray(avail), comps_arr])
                avail = np.partition(merged, -c)[-c:].tolist()
                heapify(avail)
        i += committed
        if drop_after:
            dropped += 1
            drop_times.append(arrivals_list[i])
            i += 1
        if committed == m:
            chunk_size = min(chunk_size * 2, _CHUNK_MAX)
        else:
            chunk_size = _CHUNK_MIN

    # ---- Series reconstruction --------------------------------------
    adm = np.nonzero(admitted)[0]
    arr_adm = arrivals[adm]
    start_adm = start_times[adm]
    comp_adm = completion_times[adm]
    # Completion events fire in (time, push order) order; pushes happen
    # in admission order, so ties resolve by admission index.
    order = np.lexsort((np.arange(len(adm)), comp_adm))
    completed_times = comp_adm[order]
    latencies = (comp_adm - arr_adm)[order]

    ticks = sample_tick_times(trace.duration_seconds, sample_interval_seconds)
    immediate = start_adm <= arr_adm
    imm_arrivals = arr_adm[immediate]
    queued_arrivals = arr_adm[~immediate]
    queued_starts = start_adm[~immediate]
    # Same-timestamp event order is arrival < sample tick < completion:
    # arrivals (and with them immediate starts) at exactly a tick are
    # visible to it, queue pops and completions at exactly a tick are not.
    busy = (
        np.searchsorted(imm_arrivals, ticks, side="right")
        + np.searchsorted(queued_starts, ticks, side="left")
        - np.searchsorted(completed_times, ticks, side="left")
    )
    queue_depth = np.searchsorted(
        queued_arrivals, ticks, side="right"
    ) - np.searchsorted(queued_starts, ticks, side="left")

    return SimulationSeries(
        sample_times=ticks,
        queue_depth=queue_depth,
        busy_instances=busy,
        completed_latency_seconds=latencies,
        completed_times=completed_times,
        dropped_requests=dropped,
        total_requests=n,
        dropped_times=np.asarray(drop_times),
        dropped_reasons=np.zeros(len(drop_times), dtype=np.int8),
    )

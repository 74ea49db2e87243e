"""Streaming chunked execution: constant-memory traces, bit-identical.

The vectorized engines (:mod:`repro.cluster.fast_engine`,
:mod:`~repro.cluster.policy_engine`, :mod:`~repro.cluster.chaos_engine`,
:mod:`~repro.cluster.control_engine`) materialize the full trace as
per-request numpy arrays — O(trace) memory for arrivals, app ids,
starts, completions, and the per-event series logs.  At fleet scale
(fig13-fleet: ~10.2M requests across 100 racks) that footprint binds
before compute does.

``engine="streaming"`` removes it.  Traces are *generated*, *dispatched*
and *folded into telemetry* in bounded chunks of ``chunk_requests``:

- **Trace side** — any source with the chunk protocol
  (:meth:`~repro.cluster.trace.RequestTrace.chunks`, or the
  generator-backed :class:`~repro.cluster.trace.StreamedTrace`) feeds a
  :class:`_ChunkCursor`; only one chunk is buffered at a time.
- **Engine side** — three ports of materialized twins operate through
  the cursor: :func:`run_streaming_fcfs`, :func:`run_streaming_keyed`
  and :func:`run_streaming_control`.  The control port also serves
  every fault/retry run without a controller, with an inert
  ``ControlPlane()`` that fires no decision ticks and records no
  control telemetry — control subsumes chaos.  Each port keeps its
  twin's heaps, pass-A window cuts, serial fallbacks, and the same
  :class:`~repro.cluster.fast_engine._ServicePools` tentative-draw RNG
  rollback at every cut.  Chunk boundaries only partition the work;
  every per-request decision, every service draw, and the RNG end
  state are unchanged — the materialized engines are themselves
  invariant to their internal chunking, which is exactly the property
  the oracle-equivalence suites prove.
- **Telemetry side** — instead of whole-trace arrays, results fold
  incrementally into a :class:`StreamedSeries`: tick series via
  :class:`_TickHist` running histograms (one int64 cell per sample
  tick), latency percentiles via the PR 9 mergeable
  :class:`~repro.sim.stats.QuantileSketch`, per-bucket latency sums and
  per-reason drop counters.  Completions are folded in the *canonical*
  order (completion time, start order) — the order the materialized
  series arrays hold — so the float64 bucket sums are bit-identical
  regardless of how the fold was chunked (``np.add.at`` applies
  repeated-index updates sequentially in index order).

Bit-identity contract: for every engine family, a streamed run and
:meth:`StreamedSeries.from_series` over the corresponding materialized
(or event-oracle) run produce :meth:`StreamedSeries.identical_to`
telemetry and leave the simulation RNG and service pools in the same
end state, for any ``chunk_requests`` — enforced by
``tests/test_streaming_equivalence.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.fast_engine import (
    _CAPACITY_MARGIN,
    _CHUNK_MAX,
    _CHUNK_MIN,
    Departures,
    _ServicePools,
    sample_tick_times,
)
from repro.cluster.faults import (
    DROP_REASONS,
    REASON_CRASHED,
    REASON_QUEUE_FULL,
    REASON_SHED,
    REASON_TIMEOUT,
    RetryPolicy,
)
from repro.cluster.schedulers import FCFSPolicy, KeyedPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.sim.stats import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.simulation import RackSimulation, SimulationSeries

_INF = float("inf")

# Default chunk size: large enough that pass-A vector work dominates the
# per-chunk Python overhead, small enough that per-chunk buffers stay a
# rounding error next to the engines' own working state.
_DEFAULT_CHUNK_REQUESTS = 65_536

# Completion-fold flush floor: flushes cost a lexsort over the buffer,
# so tiny chunk sizes still amortise over at least this many entries —
# while keeping the working set proportional to ``chunk_requests``, not
# to a fixed 64k plateau (the constant-memory contract the streaming
# benchmark asserts).  Flush frequency never affects results: every
# flush emits a canonical-order prefix.
_FOLD_MIN = 4096


class _TickHist:
    """Running histogram over the sample-tick grid.

    The materialized engines rebuild each tick series at the end with
    ``np.searchsorted`` over full event-time arrays.  This is the
    constant-memory equivalent: each event adds ``delta`` at the index
    of the first tick that observes it, and :meth:`series` is the
    cumulative sum — identical values without retaining any event.

    ``inclusive`` events are visible at an equal-time tick (the
    engines' ``side="right"`` count); non-inclusive events are not
    (``side="left"``).
    """

    __slots__ = ("_ticks", "_ticks_list", "_hist")

    def __init__(self, ticks: np.ndarray) -> None:
        self._ticks = ticks
        self._ticks_list = ticks.tolist()
        # One overflow cell for events past the last tick.
        self._hist = np.zeros(len(ticks) + 1, dtype=np.int64)

    def add(self, t: float, inclusive: bool, delta: int = 1) -> None:
        if inclusive:
            idx = bisect_left(self._ticks_list, t)
        else:
            idx = bisect_right(self._ticks_list, t)
        self._hist[idx] += delta

    def add_batch(
        self, times: np.ndarray, inclusive: bool, delta: int = 1
    ) -> None:
        """:meth:`add` for a batch of *ascending* ``times``.

        One search per tick the batch spans instead of one per event:
        the events observed by tick ``j`` are those at or before it
        (strictly before, if not ``inclusive``), so each cell's count is
        a difference of two searches.
        """
        if len(times) == 0:
            return
        if inclusive:
            lo = bisect_left(self._ticks_list, float(times[0]))
            hi = bisect_left(self._ticks_list, float(times[-1]))
            side = "right"
        else:
            lo = bisect_right(self._ticks_list, float(times[0]))
            hi = bisect_right(self._ticks_list, float(times[-1]))
            side = "left"
        # Events seen by ticks lo..hi-1; cells lo..hi take the increments.
        seen = delta * np.searchsorted(times, self._ticks[lo:hi], side=side)
        hist = self._hist
        hist[lo:hi] += seen
        hist[lo + 1 : hi + 1] -= seen
        hist[hi] += delta * len(times)

    def series(self) -> np.ndarray:
        return np.cumsum(self._hist[:-1])


class StreamedSeries:
    """Constant-memory telemetry of one rack simulation.

    The streaming counterpart of
    :class:`~repro.cluster.simulation.SimulationSeries`: the same
    tick-grid series and counters, but per-request records collapse to
    bounded accumulators — per-bucket latency sums/counts, per-bucket
    drop counts, per-reason drop counters, per-app completion counts,
    and a mergeable :class:`~repro.sim.stats.QuantileSketch` (default
    config matches the fleet layer's, so per-rack streaming sketches
    merge straight into fleet percentiles).

    Built either by a streaming engine (fold as the run progresses) or
    from a finished materialized run via :meth:`from_series` — the
    "streaming constructor" — which replays the per-request arrays
    through the identical fold, making the two bit-comparable with
    :meth:`identical_to`.
    """

    def __init__(
        self,
        sample_times: np.ndarray,
        *,
        total_requests: int,
        bucket_seconds: float = 60.0,
        engine: str = "streaming",
        chunk_requests: Optional[int] = None,
        app_catalog: Tuple[str, ...] = (),
    ) -> None:
        if bucket_seconds <= 0:
            raise ConfigurationError(f"non-positive bucket: {bucket_seconds}")
        self.sample_times = np.asarray(sample_times, dtype=np.float64)
        self.total_requests = int(total_requests)
        self.bucket_seconds = float(bucket_seconds)
        self.engine = engine
        self.chunk_requests = chunk_requests
        self.app_catalog = tuple(app_catalog)
        self.sketch = QuantileSketch()

        self.queue_depth = np.zeros(0, dtype=np.int64)
        self.busy_instances = np.zeros(0, dtype=np.int64)
        self.live_instances = np.zeros(0, dtype=np.int64)

        self.completed_count = 0
        self.dropped_requests = 0
        self.drop_reason_counts = np.zeros(len(DROP_REASONS), dtype=np.int64)
        self.retries = 0
        self.timeouts = 0
        self.crash_kills = 0
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.scale_ups = 0
        self.scale_downs = 0

        # Growable per-bucket accumulators, unclamped while folding; the
        # tail past the final horizon bucket folds down in finalize().
        self._lat_sums = np.zeros(0, dtype=np.float64)
        self._lat_counts = np.zeros(0, dtype=np.int64)
        self._drop_counts = np.zeros(0, dtype=np.int64)
        self._app_counts = np.zeros(len(self.app_catalog), dtype=np.int64)
        self._last_completion = -_INF
        self._last_drop = -_INF
        self._finalized = False

    # ---------------------------------------------------------- folding
    def _grow(self, attr: str, need: int) -> np.ndarray:
        arr = getattr(self, attr)
        if need > len(arr):
            grown = np.zeros(need, dtype=arr.dtype)
            grown[: len(arr)] = arr
            setattr(self, attr, grown)
            return grown
        return arr

    def fold_completions(
        self,
        times,
        latencies,
        app_ids=None,
    ) -> None:
        """Fold a batch of completions, in canonical completion order.

        Canonical order is (completion time, start order) — the order
        the materialized series arrays hold.  Batching is free to vary
        (``np.add.at`` applies repeated-index updates sequentially), but
        the concatenated element order across calls must be canonical
        for the float64 bucket sums to be chunking-invariant.
        """
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        lats = np.asarray(latencies, dtype=np.float64)
        idx = (times / self.bucket_seconds).astype(int)
        need = int(idx.max()) + 1
        sums = self._grow("_lat_sums", need)
        counts = self._grow("_lat_counts", need)
        np.add.at(sums, idx, lats)
        np.add.at(counts, idx, 1)
        self.sketch.add(lats)
        self.completed_count += int(times.size)
        self._last_completion = max(
            self._last_completion, float(times.max())
        )
        if app_ids is not None and len(self._app_counts):
            self._app_counts += np.bincount(
                np.asarray(app_ids), minlength=len(self._app_counts)
            )

    def fold_drops(self, times, reasons) -> None:
        """Fold a batch of drops; ``reasons`` is an array or one code."""
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        reasons = np.broadcast_to(
            np.asarray(reasons, dtype=np.int64), times.shape
        )
        idx = (times / self.bucket_seconds).astype(int)
        drops = self._grow("_drop_counts", int(idx.max()) + 1)
        np.add.at(drops, idx, 1)
        self.drop_reason_counts += np.bincount(
            reasons, minlength=len(DROP_REASONS)
        )
        self.dropped_requests += int(times.size)
        self._last_drop = max(self._last_drop, float(times.max()))

    def fold_drop(self, t: float, reason: int) -> None:
        """Scalar drop fold (the serial engine paths drop one by one)."""
        idx = int(t / self.bucket_seconds)
        drops = self._grow("_drop_counts", idx + 1)
        drops[idx] += 1
        self.drop_reason_counts[reason] += 1
        self.dropped_requests += 1
        if t > self._last_drop:
            self._last_drop = t

    def finalize(self) -> "StreamedSeries":
        """Clamp the per-bucket accumulators to the run's horizon.

        The horizon covers the last completion, the last drop, and the
        last sample tick — the same rule the materialized per-bucket
        helpers use — and buckets past it fold into the final one, in
        ascending order so the float sums are deterministic.
        """
        if self._finalized:
            return self
        horizon = max(self._last_completion, self._last_drop)
        if len(self.sample_times):
            horizon = max(horizon, float(self.sample_times[-1]))
        if horizon == -_INF:
            buckets = 0
        else:
            buckets = max(
                1, int(np.ceil(horizon / self.bucket_seconds))
            )
        for attr in ("_lat_sums", "_lat_counts", "_drop_counts"):
            arr = self._grow(attr, buckets)
            for b in range(buckets, len(arr)):
                arr[buckets - 1] += arr[b]
            setattr(self, attr, arr[:buckets].copy())
        self._finalized = True
        return self

    @classmethod
    def from_series(
        cls,
        series: "SimulationSeries",
        *,
        bucket_seconds: float = 60.0,
        engine: str = "materialized",
        chunk_requests: Optional[int] = None,
    ) -> "StreamedSeries":
        """Streaming view of a finished materialized (or oracle) run.

        Copies the tick-grid series verbatim and replays the
        per-request completion/drop arrays — which the materialized
        engines already store in canonical order — through the same
        fold methods a streaming engine uses, so the result is
        bit-comparable via :meth:`identical_to`.
        """
        out = cls(
            series.sample_times,
            total_requests=series.total_requests,
            bucket_seconds=bucket_seconds,
            engine=engine,
            chunk_requests=chunk_requests,
            app_catalog=series.app_catalog,
        )
        out.queue_depth = np.asarray(series.queue_depth).copy()
        out.busy_instances = np.asarray(series.busy_instances).copy()
        out.live_instances = np.asarray(series.live_instances).copy()
        app_ids = (
            series.completed_app_ids
            if len(series.completed_app_ids)
            else None
        )
        out.fold_completions(
            series.completed_times,
            series.completed_latency_seconds,
            app_ids,
        )
        if len(series.dropped_times):
            reasons = (
                series.dropped_reasons
                if len(series.dropped_reasons)
                else np.zeros(len(series.dropped_times), dtype=np.int64)
            )
            out.fold_drops(series.dropped_times, reasons)
        out.retries = series.retries
        out.timeouts = series.timeouts
        out.crash_kills = series.crash_kills
        out.hedges_launched = series.hedges_launched
        out.hedge_wins = series.hedge_wins
        out.scale_ups = series.scale_ups
        out.scale_downs = series.scale_downs
        return out.finalize()

    # ---------------------------------------------------------- queries
    @property
    def latency_sum_per_bucket(self) -> np.ndarray:
        return self._lat_sums

    @property
    def completed_per_bucket(self) -> np.ndarray:
        return self._lat_counts

    @property
    def dropped_per_bucket(self) -> np.ndarray:
        return self._drop_counts

    @property
    def completed_per_app(self) -> Dict[str, int]:
        """Completion counts by app name, populated only when a control
        plane is active (empty for every other run) — keyed by name, so
        two runs compare equal regardless of catalog order."""
        return {
            name: int(n)
            for name, n in zip(self.app_catalog, self._app_counts)
            if n
        }

    def mean_latency_per_bucket(self) -> np.ndarray:
        """Average latency per bucket (NaN where nothing completed)."""
        if self.completed_count == 0:
            return np.array([])
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self._lat_counts > 0,
                self._lat_sums / np.maximum(self._lat_counts, 1),
                np.nan,
            )

    def availability_per_bucket(self) -> np.ndarray:
        """Per-bucket completed / (completed + dropped); NaN when no
        request ended in the bucket."""
        ended = self._lat_counts + self._drop_counts
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                ended > 0,
                self._lat_counts / np.maximum(ended, 1),
                np.nan,
            )

    def drop_breakdown(self) -> Dict[str, int]:
        """Drops by reason, summing to :attr:`dropped_requests`."""
        return {
            reason: int(n)
            for reason, n in zip(DROP_REASONS, self.drop_reason_counts)
        }

    def latency_percentile(self, q: float) -> float:
        """Sketch-estimated latency percentile (see the sketch's
        documented ``relative_error_bound``)."""
        return self.sketch.percentile(q)

    @property
    def availability(self) -> float:
        if self.total_requests == 0:
            return float("nan")
        return self.completed_count / self.total_requests

    @property
    def wall_clock_seconds(self) -> float:
        if self.completed_count == 0:
            return 0.0
        return float(self._last_completion)

    @property
    def goodput_rps(self) -> float:
        horizon = self.wall_clock_seconds
        if horizon <= 0:
            return 0.0
        return self.completed_count / horizon

    @property
    def mean_latency_seconds(self) -> float:
        if self.completed_count == 0:
            return 0.0
        return float(self._lat_sums.sum()) / self.completed_count

    def identical_to(self, other: "StreamedSeries") -> bool:
        """Exact equality of every accumulator that the bit-identity
        contract covers (engine/chunking metadata excluded; the sketch
        comparison ignores its batching-sensitive running sum)."""
        return (
            self.total_requests == other.total_requests
            and self.completed_count == other.completed_count
            and self.dropped_requests == other.dropped_requests
            and np.array_equal(
                self.drop_reason_counts, other.drop_reason_counts
            )
            and self.retries == other.retries
            and self.timeouts == other.timeouts
            and self.crash_kills == other.crash_kills
            and self.hedges_launched == other.hedges_launched
            and self.hedge_wins == other.hedge_wins
            and self.scale_ups == other.scale_ups
            and self.scale_downs == other.scale_downs
            and np.array_equal(self.sample_times, other.sample_times)
            and np.array_equal(self.queue_depth, other.queue_depth)
            and np.array_equal(self.busy_instances, other.busy_instances)
            and np.array_equal(self.live_instances, other.live_instances)
            and np.array_equal(self._lat_sums, other._lat_sums)
            and np.array_equal(self._lat_counts, other._lat_counts)
            and np.array_equal(self._drop_counts, other._drop_counts)
            and self.sketch.identical_to(other.sketch)
            and self.completed_per_app == other.completed_per_app
            and self._last_completion == other._last_completion
            and self._last_drop == other._last_drop
        )


class _CompletionFold:
    """Bounded buffer emitting completions to a series in canonical order.

    Two modes:

    - ``presorted=True`` (control, also for fault/retry runs): the
      engine emits at pending-heap pops, which are already in canonical
      (completion, start order); the buffer just batches them and
      auto-flushes.
    - ``presorted=False`` (FCFS/keyed): the engine emits at *admission/
      start* in start order, where completions are not sorted.  The
      engine flushes with a watermark no future completion can undercut
      (``min(next arrival, earliest in-service completion)``); a stable
      sort then emits exactly the canonical prefix below it and carries
      the rest.
    """

    __slots__ = ("_series", "_limit", "_presorted", "_parts", "_scalars",
                 "_scalar_lats", "_apps", "_count")

    def __init__(
        self,
        series: StreamedSeries,
        limit: int,
        presorted: bool,
        track_apps: bool = False,
    ) -> None:
        self._series = series
        self._limit = max(int(limit), 1)
        self._presorted = presorted
        # Batch emissions park their arrays as-is (zero per-element
        # cost); scalar emissions accumulate in lists and spill to an
        # array part when a batch follows, preserving append order.
        self._parts: List[Tuple[np.ndarray, np.ndarray]] = []
        self._scalars: List[float] = []
        self._scalar_lats: List[float] = []
        self._apps: Optional[List[int]] = [] if track_apps else None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def limit(self) -> int:
        return self._limit

    def emit(self, comp: float, lat: float, app: int = -1) -> None:
        self._scalars.append(comp)
        self._scalar_lats.append(lat)
        if self._apps is not None:
            self._apps.append(app)
        self._count += 1
        if self._presorted and self._count >= self._limit:
            self.flush(_INF)

    def emit_batch(self, comps: np.ndarray, lats: np.ndarray) -> None:
        if self._scalars:
            self._spill()
        self._parts.append((comps, lats))
        self._count += len(comps)

    def _spill(self) -> None:
        self._parts.append(
            (np.asarray(self._scalars), np.asarray(self._scalar_lats))
        )
        self._scalars = []
        self._scalar_lats = []

    def flush(self, watermark: float) -> None:
        if self._count == 0:
            return
        if self._presorted:
            # Only the scalar path feeds presorted folds (the control
            # port emits one completion per pending-heap pop).
            apps = (
                np.asarray(self._apps, dtype=np.int64)
                if self._apps is not None
                else None
            )
            self._series.fold_completions(
                np.asarray(self._scalars),
                np.asarray(self._scalar_lats),
                apps,
            )
            self._scalars = []
            self._scalar_lats = []
            if self._apps is not None:
                self._apps = []
            self._count = 0
            return
        if self._scalars:
            self._spill()
        if len(self._parts) == 1:
            comps, lats = self._parts[0]
        else:
            comps = np.concatenate([part[0] for part in self._parts])
            lats = np.concatenate([part[1] for part in self._parts])
        # Stable sort on (completion, append order); append order is
        # start order, the canonical tie-break.
        order = np.lexsort((np.arange(len(comps)), comps))
        if watermark == _INF:
            cutoff = len(comps)
        else:
            cutoff = int(
                np.searchsorted(comps[order], watermark, side="left")
            )
        if cutoff == 0:
            self._parts = [(comps, lats)]
            return
        take = order[:cutoff]
        self._series.fold_completions(comps[take], lats[take])
        keep = np.sort(order[cutoff:])
        self._parts = [(comps[keep], lats[keep])]
        self._count = len(keep)


class _ChunkCursor:
    """One-chunk-at-a-time view of a streamed trace source.

    Buffers exactly one :class:`~repro.cluster.trace.TraceChunk`,
    validating the streaming contract on refill (equal-length arrays,
    sorted within the chunk, non-decreasing across the boundary).
    ``index`` is the global trace index of the next request — the
    engines' admission sequence / ``qseq`` space.
    """

    def __init__(self, source, chunk_requests: int) -> None:
        self._chunks = source.chunks(chunk_requests)
        self._arr = np.zeros(0)
        self._ids = np.zeros(0, dtype=np.intp)
        self._arr_list: List[float] = []
        self._ids_list: List[int] = []
        self._pos = 0
        self._base = 0
        self._last = -_INF
        self._exhausted = False

    def _refill(self) -> None:
        while not self._exhausted and self._pos >= len(self._arr_list):
            self._base += len(self._arr_list)
            self._pos = 0
            self._arr_list = []
            self._ids_list = []
            try:
                chunk = next(self._chunks)
            except StopIteration:
                self._exhausted = True
                return
            arr = np.asarray(chunk.arrival_seconds, dtype=np.float64)
            ids = np.asarray(chunk.app_ids, dtype=np.intp)
            if len(arr) != len(ids):
                raise ConfigurationError(
                    "trace chunk arrivals and app ids differ in length"
                )
            if len(arr) == 0:
                continue
            if np.any(np.diff(arr) < 0) or float(arr[0]) < self._last:
                raise ConfigurationError(
                    "engine='streaming' requires a time-ordered trace; "
                    "chunk arrivals regress"
                )
            self._last = float(arr[-1])
            self._arr = arr
            self._ids = ids
            self._arr_list = arr.tolist()
            self._ids_list = ids.tolist()

    @property
    def index(self) -> int:
        """Global trace index of the next request."""
        return self._base + self._pos

    def peek_time(self) -> float:
        """Next arrival time, or +inf when the trace is exhausted."""
        self._refill()
        if self._exhausted:
            return _INF
        return self._arr_list[self._pos]

    def window(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """Up to ``limit`` upcoming (arrivals, app ids), capped at the
        buffered chunk's end.  Never empty unless exhausted."""
        self._refill()
        lo = self._pos
        hi = min(len(self._arr_list), lo + limit)
        return self._arr[lo:hi], self._ids[lo:hi]

    def advance(self, k: int) -> None:
        self._pos += k

    def pop(self) -> Tuple[float, int]:
        """Consume and return the next (arrival time, app id)."""
        self._refill()
        t = self._arr_list[self._pos]
        app_id = self._ids_list[self._pos]
        self._pos += 1
        return t, app_id


def _check_first_arrival(cursor: _ChunkCursor) -> None:
    t0 = cursor.peek_time()
    if t0 != _INF and t0 < 0:
        raise SimulationError(f"event scheduled at negative time {t0}")


def run_streaming_fcfs(
    sim: "RackSimulation",
    source,
    sample_interval_seconds: float,
    chunk_requests: int,
) -> StreamedSeries:
    """Streaming port of :func:`~repro.cluster.fast_engine.run_vectorized`.

    Identical departures, pass A/B/C structure, and RNG rollback;
    arrivals come through a :class:`_ChunkCursor` window and results
    fold into a :class:`StreamedSeries` instead of whole-trace arrays.
    """
    cursor = _ChunkCursor(source, chunk_requests)
    _check_first_arrival(cursor)
    n = source.total_requests
    c = sim._max_instances
    qmax = sim._queue_depth
    capacity = c + qmax
    serial_threshold = max(c, capacity - _CAPACITY_MARGIN)

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    pools = _ServicePools(sim, app_names)

    ticks = sample_tick_times(
        source.duration_seconds, sample_interval_seconds
    )
    series = StreamedSeries(
        ticks,
        total_requests=n,
        engine="streaming",
        chunk_requests=chunk_requests,
        app_catalog=tuple(app_names),
    )
    imm_hist = _TickHist(ticks)
    qarr_hist = _TickHist(ticks)
    qstart_hist = _TickHist(ticks)
    comp_hist = _TickHist(ticks)
    fold = _CompletionFold(
        series, max(chunk_requests, _FOLD_MIN), presorted=False
    )

    avail: List[float] = [0.0] * c  # heap of server-free times
    pending = Departures()  # in-system completion times

    chunk_size = _CHUNK_MIN
    next_compact = chunk_requests
    while True:
        now = cursor.peek_time()
        if now == _INF:
            break
        if cursor.index >= next_compact:
            # The serial kernel draws pool samples without a peek/
            # commit cycle; compacting once per chunk of arrivals keeps
            # consumed prefixes bounded even on serial-heavy runs.
            pools.compact()
            next_compact = cursor.index + chunk_requests
        if len(fold) >= fold.limit:
            fold.flush(min(now, pending.next_time()))
        pending.depart_before(now)
        in_system = len(pending)

        # ---- Pass C: serial steps near the admission limit ----------
        if in_system >= serial_threshold:
            if in_system >= capacity:
                cursor.advance(1)
                series.fold_drop(now, REASON_QUEUE_FULL)
                continue
            _, app_id = cursor.pop()
            service = sim._service_time(app_names[app_id])
            free = avail[0]
            start = now if now > free else free
            completion = start + service
            heapreplace(avail, completion)
            pending.push(completion)
            if start <= now:
                imm_hist.add(now, inclusive=True)
            else:
                qarr_hist.add(now, inclusive=True)
                qstart_hist.add(start, inclusive=False)
            comp_hist.add(completion, inclusive=False)
            fold.emit(completion, completion - now)
            continue

        # ---- Chunked passes -----------------------------------------
        arr, ids = cursor.window(chunk_size)
        m = len(arr)
        values, events, snapshot = pools.peek(ids)
        dep_pend = np.searchsorted(pending.sorted(), arr, side="left")
        offsets = np.arange(m)

        committed = -1  # sentinel: chunk not resolved yet
        drop_after = False
        avail_is_final = False
        all_immediate = False

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
                all_immediate = True

        # ---- Pass B: heap kernel with drop detection ----------------
        if committed < 0:
            heap = avail[:]
            starts_l: List[float] = []
            comps_l: List[float] = []
            append_start = starts_l.append
            append_comp = comps_l.append
            for arrival_t, service_t in zip(arr.tolist(), values.tolist()):
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
        pools.commit(ids, committed, events, snapshot, n_apps)
        pools.compact()
        if committed:
            arr_c = arr[:committed]
            if committed < m:
                comp_sorted = np.sort(comps_arr)
            pending.add_sorted(comp_sorted)
            if not avail_is_final:
                merged = np.concatenate([np.asarray(avail), comps_arr])
                avail = np.partition(merged, -c)[-c:].tolist()
                heapify(avail)
            if all_immediate:
                imm_hist.add_batch(arr_c, inclusive=True)
            else:
                immediate = starts_arr <= arr_c
                imm_hist.add_batch(arr_c[immediate], inclusive=True)
                qarr_hist.add_batch(arr_c[~immediate], inclusive=True)
                qstart_hist.add_batch(
                    starts_arr[~immediate], inclusive=False
                )
            comp_hist.add_batch(comp_sorted, inclusive=False)
            fold.emit_batch(comps_arr, comps_arr - arr_c)
        cursor.advance(committed)
        if drop_after:
            t_drop, _ = cursor.pop()
            series.fold_drop(t_drop, REASON_QUEUE_FULL)
        if committed == m:
            chunk_size = min(chunk_size * 2, _CHUNK_MAX)
        else:
            chunk_size = _CHUNK_MIN

    fold.flush(_INF)
    series.busy_instances = (
        imm_hist.series() + qstart_hist.series() - comp_hist.series()
    )
    series.queue_depth = qarr_hist.series() - qstart_hist.series()
    return series.finalize()


def run_streaming_keyed(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sample_interval_seconds: float,
    chunk_requests: int,
) -> StreamedSeries:
    """Streaming port of :func:`~repro.cluster.policy_engine.run_keyed`.

    Same departures and key heap, pass-A windows, keyed-dispatch
    kernel, and batched drain (serial fallback included); telemetry
    folds into a :class:`StreamedSeries` as the run progresses.
    """
    cursor = _ChunkCursor(source, chunk_requests)
    _check_first_arrival(cursor)
    n = source.total_requests
    c = sim._max_instances
    qmax = sim._queue_depth

    app_names = list(source.app_catalog)
    n_apps = len(app_names)
    pools = _ServicePools(sim, app_names)
    prefixes = [policy.key.key_for(name) for name in app_names]

    ticks = sample_tick_times(
        source.duration_seconds, sample_interval_seconds
    )
    series = StreamedSeries(
        ticks,
        total_requests=n,
        engine="streaming",
        chunk_requests=chunk_requests,
        app_catalog=tuple(app_names),
    )
    imm_hist = _TickHist(ticks)
    qarr_hist = _TickHist(ticks)
    qstart_hist = _TickHist(ticks)
    comp_hist = _TickHist(ticks)
    fold = _CompletionFold(
        series, max(chunk_requests, _FOLD_MIN), presorted=False
    )

    pending = Departures()
    queue: List[tuple] = []
    service_time = sim._service_time
    observe_app = policy.observe_app

    def dispatch(now: float) -> None:
        """Serve the min-key queued request on the server freed at now."""
        entry = heappop(queue)
        arrival_t = entry[-2]
        service = service_time(app_names[entry[-1]])
        completion = now + service
        pending.push(completion)
        qstart_hist.add(now, inclusive=False)
        comp_hist.add(completion, inclusive=False)
        fold.emit(completion, completion - arrival_t)

    chunk_size = _CHUNK_MIN
    next_compact = chunk_requests
    while True:
        now = cursor.peek_time()
        if now == _INF:
            break
        if cursor.index >= next_compact:
            # The keyed-dispatch kernel draws pool samples without a
            # peek/commit cycle; compact once per chunk of arrivals.
            pools.compact()
            next_compact = cursor.index + chunk_requests
        if len(fold) >= fold.limit:
            fold.flush(min(now, pending.next_time()))
        while queue and pending.next_time() < now:
            dispatch(pending.pop())
        pending.depart_before(now)
        busy = len(pending)

        # ---- Pass A: contention-free chunk (all starts immediate) ---
        if not queue and busy < c:
            arr, ids = cursor.window(chunk_size)
            m = len(arr)
            values, events, snapshot = pools.peek(ids)
            dep_pend = np.searchsorted(pending.sorted(), arr, side="left")
            comp_opt = arr + values
            comp_sorted = np.sort(comp_opt)
            dep_chunk = np.searchsorted(comp_sorted, arr, side="left")
            n_before = busy + np.arange(m) - dep_pend - dep_chunk
            crossing = np.nonzero(n_before >= c)[0]
            cut = int(crossing[0]) if crossing.size else m
            pools.commit(ids, cut, events, snapshot, n_apps)
            pools.compact()
            for committed_id in np.unique(ids[:cut]):
                observe_app(app_names[committed_id])
            comps_arr = comp_opt[:cut]
            arr_c = arr[:cut]
            if cut < m:
                comp_sorted = np.sort(comps_arr)
            imm_hist.add_batch(arr_c, inclusive=True)
            comp_hist.add_batch(comp_sorted, inclusive=False)
            fold.emit_batch(comps_arr, comps_arr - arr_c)
            pending.add_sorted(comp_sorted)
            cursor.advance(cut)
            chunk_size = (
                min(chunk_size * 2, _CHUNK_MAX) if cut == m else _CHUNK_MIN
            )
            continue

        # ---- Keyed dispatch kernel: one arrival, serially -----------
        idx = cursor.index
        _, app_id = cursor.pop()
        if busy < c:
            observe_app(app_names[app_id])
            service = service_time(app_names[app_id])
            completion = now + service
            pending.push(completion)
            imm_hist.add(now, inclusive=True)
            comp_hist.add(completion, inclusive=False)
            fold.emit(completion, completion - now)
        elif len(queue) < qmax:
            observe_app(app_names[app_id])
            heappush(queue, prefixes[app_id] + (idx, now, app_id))
            qarr_hist.add(now, inclusive=True)
        else:
            series.fold_drop(now, REASON_QUEUE_FULL)

    # ---- Drain: serve the backlog in pure key order -----------------
    if queue:
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
            qstart_hist.add(freed_at, inclusive=False)
            comp_hist.add(completion, inclusive=False)
            fold.emit(completion, completion - entry[-2])
        queue.clear()

    fold.flush(_INF)
    series.busy_instances = (
        imm_hist.series() + qstart_hist.series() - comp_hist.series()
    )
    series.queue_depth = qarr_hist.series() - qstart_hist.series()
    return series.finalize()


def run_streaming_control(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    source,
    sample_interval_seconds: float,
    timeline,
    retry: RetryPolicy,
    plane,
    chunk_requests: int,
) -> StreamedSeries:
    """Streaming port of
    :func:`~repro.cluster.control_engine.run_control_vectorized`, and of
    :func:`~repro.cluster.chaos_engine.run_chaos_vectorized` under an
    inert ``plane``.

    A next-event loop over faults, control events (decision ticks,
    warmup activations), timeout timers, trace arrivals, injected
    re-arrivals and completions, with the vectorized arrival gate and
    the shared :class:`~repro.cluster.control.ControllerState` fed the
    identical observations in the identical order.  Per-start logs
    collapse to a ``flight`` dict holding live starts only, and
    completions emit to the fold at pending-heap pops — already
    canonical (completion, start order), so no watermark sort is
    needed.  An inert plane fires no decision ticks and records no live
    series or per-app counts.
    """
    from repro.cluster.control import ControllerState
    from repro.cluster.control_engine import _decision_ticks, _live_series

    cursor = _ChunkCursor(source, chunk_requests)
    _check_first_arrival(cursor)
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

    ticks = sample_tick_times(
        source.duration_seconds, sample_interval_seconds
    )
    series = StreamedSeries(
        ticks,
        total_requests=n,
        engine="streaming",
        chunk_requests=chunk_requests,
        app_catalog=tuple(app_names),
    )
    spre_hist = _TickHist(ticks)
    spost_hist = _TickHist(ticks)
    enq_hist = _TickHist(ticks)
    deqpre_hist = _TickHist(ticks)
    deqpost_hist = _TickHist(ticks)
    kill_hist = _TickHist(ticks)
    comp_hist = _TickHist(ticks)
    fold = _CompletionFold(
        series, max(chunk_requests, _FOLD_MIN),
        presorted=True, track_apps=controlled,
    )

    qheap: List[tuple] = []
    # qseq -> (enqueue time, heap sort key); doubles as the queued set.
    queued: Dict[int, Tuple[float, tuple]] = {}
    timers: List[tuple] = []
    injected: List[tuple] = []
    pending: List[Tuple[float, int]] = []  # (completion, start_seq)
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
        if pre_tick:
            spre_hist.add(now, inclusive=True)
        else:
            spost_hist.add(now, inclusive=False)

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
                n + retry_counter, app_id, orig_seq, attempt + 1,
                orig_arrival,
            )
            retry_counter += 1
            heappush(
                injected, (now + delay, next(injected_counter), reattempt)
            )
        else:
            series.fold_drop(now, reason)

    def shed_drop(now: float) -> None:
        series.fold_drop(now, REASON_SHED)

    def dispatch(now: float, pre_tick: bool) -> None:
        while True:
            entry = heappop(qheap)
            request = entry[-5:]
            if request[0] in queued:
                break
        queued.pop(request[0])
        if pre_tick:
            deqpre_hist.add(now, inclusive=True)
        else:
            deqpost_hist.add(now, inclusive=False)
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
            enq_hist.add(now, inclusive=True)
            if timeout is not None:
                heappush(
                    timers, (now + timeout, next(timer_counter), request)
                )
        else:
            fail(
                app_id, orig_seq, attempt, orig_arrival,
                REASON_QUEUE_FULL, now,
            )

    k = 0
    chunk_size = _CHUNK_MIN
    next_compact = chunk_requests
    while True:
        if cursor.index >= next_compact:
            # The serial start/fail kernels draw pool samples without a
            # peek/commit cycle; compact once per chunk of arrivals.
            pools.compact()
            next_compact = cursor.index + chunk_requests
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
        t_trace = cursor.peek_time()
        t_injected = injected[0][0] if injected else _INF
        t_next = min(t_fault, t_control, t_timer, t_trace, t_injected)

        # Completions strictly before the next ranked event fire first,
        # each freeing a server and feeding the telemetry window the
        # controller reads at its next tick.  Pops arrive in the
        # canonical (completion, start order) fold order.
        while pending and pending[0][0] < t_next:
            done, seq = heappop(pending)
            busy -= 1
            rec = flight.pop(seq)
            if windows:
                state.record_completion(rec[4], done - rec[1])
            comp_hist.add(done, inclusive=False)
            fold.emit(done, done - rec[1], rec[4])
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
                victims = sorted(
                    (rec[0], s) for s, rec in flight.items()
                )[-shortfall:]
                doomed = {seq for _, seq in victims}
                for _, seq in reversed(victims):
                    rec = flight.pop(seq)
                    busy -= 1
                    crash_kills += 1
                    kill_hist.add(t_fault, inclusive=True)
                    fail(
                        rec[4], rec[2], rec[3], rec[1],
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
                        deqpre_hist.add(t, inclusive=True)
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
                deqpre_hist.add(t_timer, inclusive=True)
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
                window_arr, window_ids = cursor.window(chunk_size)
                hi = len(window_arr)
                if k < n_faults:
                    hi = int(
                        np.searchsorted(
                            window_arr[:hi], t_fault, side="left"
                        )
                    )
                if t_control < _INF:
                    hi = int(
                        np.searchsorted(
                            window_arr[:hi], t_control, side="left"
                        )
                    )
                if injected:
                    hi = int(
                        np.searchsorted(
                            window_arr[:hi], t_injected, side="right"
                        )
                    )
                arr = window_arr[:hi]
                ids = window_ids[:hi]
                m = hi
                idx0 = cursor.index
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
                    series.fold_drops(arr, REASON_SHED)
                    cursor.advance(m)
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
                pools.compact()
                state.consume(cut)
                if positions is not None:
                    # Sheds below the committed boundary are final now;
                    # later ones re-run through the serial gate (which
                    # sees the post-spend token balance, as the oracle
                    # does).
                    shed_at = np.nonzero(~mask[:committed])[0]
                    if shed_at.size:
                        series.fold_drops(arr[shed_at], REASON_SHED)
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
                ids_cut = ids_adm[:cut].tolist()
                base = start_counter
                spre_hist.add_batch(arr_adm[:cut], inclusive=True)
                for offset in range(cut):
                    orig_seq = (
                        idx0 + offset
                        if positions is None
                        else idx0 + int(positions[offset])
                    )
                    seq = base + offset
                    flight[seq] = (
                        comps[offset], started[offset], orig_seq,
                        0, ids_cut[offset],
                    )
                    pending.append((comps[offset], seq))
                start_counter += cut
                heapify(pending)
                busy += cut
                cursor.advance(committed)
                chunk_size = (
                    min(chunk_size * 2, _CHUNK_MAX)
                    if committed == m
                    else _CHUNK_MIN
                )
            else:
                idx = cursor.index
                _, app_id = cursor.pop()
                admit((idx, app_id, idx, 0, t_trace), t_trace)
            continue

        # ---- Injected re-arrival ------------------------------------
        _, _, request = heappop(injected)
        admit(request, t_injected)

    fold.flush(_INF)
    series.busy_instances = (
        spre_hist.series()
        + spost_hist.series()
        - comp_hist.series()
        - kill_hist.series()
    )
    series.queue_depth = (
        enq_hist.series() - deqpre_hist.series() - deqpost_hist.series()
    )
    if controlled:
        series.live_instances = _live_series(state, ticks)
        series.scale_ups = state.scale_ups
        series.scale_downs = state.scale_downs
    series.retries = retries
    series.timeouts = timeouts
    series.crash_kills = crash_kills
    series.hedges_launched = hedges_launched
    series.hedge_wins = hedge_wins
    return series.finalize()


def run_streaming(
    sim: "RackSimulation",
    queue,
    source,
    sample_interval_seconds: float,
    chunk_requests: Optional[int] = None,
) -> StreamedSeries:
    """Route a streaming run to the port matching the configuration.

    Mirrors :meth:`RackSimulation.run`'s routing, with the same
    configuration errors: any active fault, retry or control
    configuration goes to the control port (an inert plane when only
    faults or retries are active), then FCFS and keyed policies.

    Generator-backed sources additionally switch the simulation's
    service pools into bounded (windowed-replay) mode for the duration
    of the run: with no materialized trace anywhere, the pools are the
    last O(trace) term, and replaying recorded RNG states on clones
    bounds them too without touching the live RNG stream.  Materialized
    traces keep fully materialized pools — the trace already costs
    O(n), and skipping replay there keeps streaming throughput at the
    vectorized engines' level.
    """
    from repro.cluster.trace import RequestTrace

    if chunk_requests is None:
        chunk_requests = _DEFAULT_CHUNK_REQUESTS
    if not isinstance(source, RequestTrace):
        window = max(chunk_requests, 4096)
        saved = sim._service_window
        sim._service_window = window
        try:
            return _dispatch_streaming(
                sim, queue, source, sample_interval_seconds, chunk_requests
            )
        finally:
            sim._service_window = saved
    return _dispatch_streaming(
        sim, queue, source, sample_interval_seconds, chunk_requests
    )


def _dispatch_streaming(
    sim: "RackSimulation",
    queue,
    source,
    sample_interval_seconds: float,
    chunk_requests: int,
) -> StreamedSeries:
    dynamics = sim._fault_dynamics(queue, source)
    if dynamics is not None:
        timeline, retry, plane = dynamics
        return run_streaming_control(
            sim, queue, source, sample_interval_seconds,
            timeline, retry, plane, chunk_requests,
        )
    if type(queue) is FCFSPolicy:
        return run_streaming_fcfs(
            sim, source, sample_interval_seconds, chunk_requests
        )
    if isinstance(queue, KeyedPolicy):
        return run_streaming_keyed(
            sim, queue, source, sample_interval_seconds, chunk_requests
        )
    raise ConfigurationError(
        "engine='streaming' requires FCFS or a keyed policy; got "
        f"{type(queue).__name__}"
    )

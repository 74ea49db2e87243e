"""Streaming chunked execution: constant-memory traces, bit-identical.

A materialized run (``engine="vectorized"`` or ``"auto"``) returns a
:class:`~repro.cluster.simulation.SimulationSeries` holding per-request
arrays — O(trace) memory for the trace itself and for every completion
and drop.  At fleet scale (fig13-fleet: ~10.2M requests across 100
racks) that footprint binds before compute does.

``engine="streaming"`` removes it.  Traces are *generated*, *dispatched*
and *folded into telemetry* in bounded chunks of ``chunk_requests``:

- **Trace side** — any source with the chunk protocol
  (:meth:`~repro.cluster.trace.RequestTrace.chunks`, or the
  generator-backed :class:`~repro.cluster.trace.StreamedTrace`); only
  one chunk is buffered at a time.
- **Engine side** — the kernel a materialized run uses
  (:func:`~repro.cluster.control_engine.control_kernel`, for FCFS and
  every keyed policy, with or without faults, retries or a control
  plane), fed bounded chunks instead of one whole-trace chunk.  It
  carries its heaps, queues, timers and service pools across chunk
  boundaries and stops its pass-A windows at each chunk end, so the
  chunking only partitions the work: every per-request decision, every
  service draw, and the RNG end state are unchanged: the service pools
  (:mod:`repro.cluster.service_pools`) compact at each chunk boundary,
  and serial, windowed, read-ahead and bounded draws all consume the
  RNG in one order.
- **Telemetry side** — instead of a retaining sink, the kernel folds
  into a :class:`StreamedSeries` at each chunk boundary: tick series as
  per-tick counts, latency percentiles via the mergeable
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

A :class:`StreamedSeries` answers the queries a
:class:`~repro.cluster.simulation.SimulationSeries` answers
(``completed_count``, ``mean_latency_seconds``,
``latency_percentile``, ``drop_breakdown``, the counters), so callers
read either without branching on which one a run returned.  Its
per-bucket folds are one minute wide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.cluster.control_engine import control_kernel, quiet_dynamics
from repro.cluster.fast_engine import sample_tick_times
from repro.cluster.faults import DROP_REASONS
from repro.cluster.schedulers import KeyedPolicy
from repro.errors import ConfigurationError
from repro.sim.stats import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.simulation import RackSimulation, SimulationSeries

_INF = float("inf")

# Default chunk size: large enough that pass-A vector work dominates the
# per-chunk Python overhead, small enough that per-chunk buffers stay a
# rounding error next to the engines' own working state.
_DEFAULT_CHUNK_REQUESTS = 65_536

# Width of the per-bucket folds: the materialized series' per-bucket
# helpers default to the same minute.
_BUCKET_SECONDS = 60.0


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

    Built either as the sink of a streamed run (a rack kernel folds into
    it at every chunk boundary) or from a finished materialized run via
    :meth:`from_series` — the "streaming constructor" — which replays
    the per-request arrays through the identical fold, making the two
    bit-comparable with :meth:`identical_to`.
    """

    def __init__(
        self,
        sample_times: np.ndarray,
        *,
        total_requests: int,
        app_catalog: Tuple[str, ...] = (),
    ) -> None:
        self.sample_times = np.asarray(sample_times, dtype=np.float64)
        self.total_requests = int(total_requests)
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
        idx = (times / _BUCKET_SECONDS).astype(int)
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
        idx = (times / _BUCKET_SECONDS).astype(int)
        drops = self._grow("_drop_counts", int(idx.max()) + 1)
        np.add.at(drops, idx, 1)
        self.drop_reason_counts += np.bincount(
            reasons, minlength=len(DROP_REASONS)
        )
        self.dropped_requests += int(times.size)
        self._last_drop = max(self._last_drop, float(times.max()))

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
            buckets = max(1, int(np.ceil(horizon / _BUCKET_SECONDS)))
        for attr in ("_lat_sums", "_lat_counts", "_drop_counts"):
            arr = self._grow(attr, buckets)
            for b in range(buckets, len(arr)):
                arr[buckets - 1] += arr[b]
            setattr(self, attr, arr[:buckets].copy())
        self._finalized = True
        return self

    @classmethod
    def from_series(cls, series: "SimulationSeries") -> "StreamedSeries":
        """Streaming view of a finished materialized (or oracle) run.

        Copies the tick-grid series verbatim and replays the
        per-request completion/drop arrays — which the materialized
        engines already store in canonical order — through the same
        fold methods a streamed run uses, so the result is
        bit-comparable via :meth:`identical_to`.
        """
        out = cls(
            series.sample_times,
            total_requests=series.total_requests,
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
        documented ``relative_error_bound``); NaN when nothing
        completed, as for :meth:`SimulationSeries.latency_percentile
        <repro.cluster.simulation.SimulationSeries.latency_percentile>`."""
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
        """Mean completed latency; NaN when nothing completed, as for
        :attr:`SimulationSeries.mean_latency_seconds
        <repro.cluster.simulation.SimulationSeries.mean_latency_seconds>`."""
        if self.completed_count == 0:
            return float("nan")
        return float(self._lat_sums.sum()) / self.completed_count

    def identical_to(self, other: "StreamedSeries") -> bool:
        """Exact equality of every accumulator that the bit-identity
        contract covers (the sketch comparison ignores its
        batching-sensitive running sum)."""
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


def run_streaming(
    sim: "RackSimulation",
    queue,
    source,
    sample_interval_seconds: float,
    chunk_requests: Optional[int] = None,
) -> StreamedSeries:
    """Run ``source`` on the rack kernel, folding bounded chunks into a
    :class:`StreamedSeries`.

    Mirrors :meth:`RackSimulation.run`'s routing, with the same
    configuration errors: the kernel gets the active fault, retry and
    control configuration (an inert plane when only faults or retries
    are active), or with nothing active an empty timeline,
    ``RetryPolicy()`` and ``ControlPlane()`` for any keyed policy (FCFS
    included).

    Generator-backed sources additionally run the simulation's service
    pools bounded (``sim.pools.bounded``): with no materialized trace
    anywhere, the pools are the last O(trace) term, and replay from
    recorded RNG states bounds them too.  Materialized traces keep whole
    pools — the trace already costs O(n), and skipping replay keeps
    streaming throughput at the materialized runs' level.
    """
    from repro.cluster.trace import RequestTrace

    if chunk_requests is None:
        chunk_requests = _DEFAULT_CHUNK_REQUESTS
    sink = StreamedSeries(
        sample_tick_times(source.duration_seconds, sample_interval_seconds),
        total_requests=source.total_requests,
        app_catalog=tuple(source.app_catalog),
    )
    if isinstance(source, RequestTrace):
        return _dispatch_streaming(sim, queue, source, sink, chunk_requests)
    with sim.pools.bounded(chunk_requests):
        return _dispatch_streaming(sim, queue, source, sink, chunk_requests)


def _dispatch_streaming(
    sim: "RackSimulation",
    queue,
    source,
    sink: StreamedSeries,
    chunk_requests: int,
) -> StreamedSeries:
    dynamics = sim._fault_dynamics(queue, source)
    if dynamics is None:
        if not isinstance(queue, KeyedPolicy):
            raise ConfigurationError(
                "engine='streaming' requires FCFS or a keyed policy; got "
                f"{type(queue).__name__}"
            )
        dynamics = quiet_dynamics(sim)
    return control_kernel(sim, queue, source, sink, chunk_requests, *dynamics)

"""The chunk-and-fold machinery of the rack kernel, and its FCFS entry.

:func:`~repro.cluster.control_engine.control_kernel` is the one rack
kernel: every keyed-policy run on a time-ordered trace, with or without
faults, retries or a control plane, materialized or streamed, runs
through it.  This module holds the helpers it shares with the event
oracles and the streaming fold:

- :func:`sample_tick_times` and :func:`admission_ranks`, the tick grid
  and the admission sequence every engine uses;
- :func:`checked_chunks`, the chunk walk: the kernel serves
  ``source.chunks(chunk_requests)`` with a chunk-local index and folds
  its events into a telemetry *sink* at each chunk boundary, so a
  materialized run is one whole-trace chunk folded into a retaining
  :class:`~repro.cluster.simulation.SeriesSink` and a streamed run
  (:func:`~repro.cluster.streaming.run_streaming`) bounded chunks
  folded into a :class:`~repro.cluster.streaming.StreamedSeries`;
- :class:`TickLog`, the per-tick counts of one kind of tick-visible
  event;
- :func:`key_prefixes`, which tells a FIFO rack (every key tied) from a
  keyed one, and :func:`occupancy_cut`, the vectorized admission check
  of the kernel's batched windows.

:func:`run_vectorized` is the kernel's materialized FCFS entry with
nothing active, a name the benchmark's probes wrap; it calls the kernel
directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace


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


def run_vectorized(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under FCFS with nothing active: the control
    kernel over one whole-trace chunk into a retaining sink."""
    from repro.cluster.control_engine import control_kernel, quiet_dynamics
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return control_kernel(
        sim, policy, trace, sink, max(len(trace), 1), *quiet_dynamics(sim)
    )

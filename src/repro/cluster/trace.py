"""Bursty Poisson request traces (paper §6.1, Fig. 13a).

Following the paper's methodology (itself following [120]), requests are
generated by randomly sampling functions from the benchmark suite using a
Poisson process whose rate follows a bursty envelope, imposing load for 20
minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.units import MINUTE

# Default bursty rate envelope (requests/sec per minute-long segment),
# shaped like Fig. 13(a): ramps, a sustained burst, and a cool-down.
DEFAULT_RATE_ENVELOPE = (
    250, 320, 420, 560, 700, 800, 780, 650, 520, 430,
    380, 460, 620, 760, 800, 720, 560, 420, 310, 250,
)


@dataclass(frozen=True)
class TraceChunk:
    """One bounded slice of a streamed trace.

    ``arrival_seconds`` is sorted within the chunk and every arrival is
    at least as late as the last arrival of the previous chunk, so
    concatenating chunks reproduces a time-ordered trace.  ``app_ids``
    index the source's :attr:`app_catalog`.
    """

    arrival_seconds: np.ndarray
    app_ids: np.ndarray


def _appearance_order(ids: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``ids`` (all in ``range(size)``) in
    first-appearance order.

    Scans growing prefixes: once a prefix holds every distinct value the
    rest of the trace is never looked at, so a trace whose apps all show
    up early costs O(prefix), not O(trace).
    """
    present = size
    stop = 1024
    while True:
        values, first = np.unique(ids[:stop], return_index=True)
        if len(values) == present or stop >= len(ids):
            return values[np.argsort(first)]
        if present == size:
            present = int(np.count_nonzero(np.bincount(ids, minlength=size)))
        stop *= 8


def _columnar(
    ids: np.ndarray, names: Sequence[str]
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Normalize ``ids`` (indices into ``names``) to the canonical form.

    The canonical catalog holds each app name that occurs in the trace
    once, in first-appearance order, and the ids index it in the
    narrowest unsigned dtype that fits.  ``names`` may repeat a name or
    list names the trace never uses; repeated names share one catalog
    entry.
    """
    names = tuple(names)
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ConfigurationError("app ids must be a one-dimensional array")
    if ids.size == 0:
        return np.zeros(0, dtype=np.uint8), ()
    if not np.issubdtype(ids.dtype, np.integer):
        raise ConfigurationError(f"app ids must be integers, got {ids.dtype}")
    if int(ids.min()) < 0 or int(ids.max()) >= len(names):
        raise ConfigurationError(
            f"app ids out of range for a catalog of {len(names)} names"
        )
    order = _appearance_order(ids, len(names)).tolist()
    catalog = tuple(dict.fromkeys(names[j] for j in order))
    dtype = np.min_scalar_type(len(catalog) - 1)
    if ids.dtype == dtype and order == list(range(len(catalog))):
        return ids, catalog  # already canonical: no per-request work
    index = {name: k for k, name in enumerate(catalog)}
    remap = np.zeros(len(names), dtype=dtype)
    for j in order:
        remap[j] = index[names[j]]
    return remap[ids], catalog


@dataclass(frozen=True, init=False, eq=False)
class RequestTrace:
    """A concrete trace: arrival times and per-request application ids.

    Columnar: ``app_ids[k]`` indexes :attr:`app_catalog`, the trace's
    unique app names in first-appearance order — the id space every
    engine, shard and chunk works in.  Ids are stored in the narrowest
    unsigned dtype that fits the catalog (``uint8`` for the benchmark
    suite).  Build a trace from ids (``app_ids=`` plus ``app_catalog=``,
    which may repeat or over-list names: it is normalized) or from
    per-request names (``app_names``); both give the same columns.
    :attr:`app_names` is a view derived on first use, for the event
    oracles and name-based callers.
    """

    arrival_seconds: np.ndarray
    app_ids: np.ndarray
    app_catalog: Tuple[str, ...]
    duration_seconds: float

    def __init__(
        self,
        arrival_seconds: np.ndarray,
        app_names: Optional[Sequence[str]] = None,
        duration_seconds: Optional[float] = None,
        *,
        app_ids: Optional[np.ndarray] = None,
        app_catalog: Sequence[str] = (),
    ) -> None:
        if duration_seconds is None:
            raise ConfigurationError("a trace needs its duration_seconds")
        if (app_names is None) == (app_ids is None):
            raise ConfigurationError(
                "give a trace either app_names or app_ids + app_catalog"
            )
        if app_names is not None:
            app_names = tuple(app_names)
            index = {
                name: k for k, name in enumerate(dict.fromkeys(app_names))
            }
            app_ids = np.fromiter(
                (index[name] for name in app_names),
                dtype=np.intp,
                count=len(app_names),
            )
            app_catalog = tuple(index)
            # Name-built traces keep their names: no re-derivation.
            self.__dict__["app_names"] = app_names
        app_ids, catalog = _columnar(app_ids, app_catalog)
        if len(arrival_seconds) != len(app_ids):
            raise ConfigurationError("arrivals and app assignments differ in length")
        # NaN durations slip through ordinary `<= 0` comparisons and
        # then poison every downstream tick grid; reject them here with
        # the same knob-validation discipline as faults.py / rpc.py.
        if not math.isfinite(duration_seconds) or duration_seconds < 0:
            raise ConfigurationError(
                f"invalid trace duration: {duration_seconds}"
            )
        object.__setattr__(self, "arrival_seconds", arrival_seconds)
        object.__setattr__(self, "app_ids", app_ids)
        object.__setattr__(self, "app_catalog", catalog)
        object.__setattr__(self, "duration_seconds", duration_seconds)

    @cached_property
    def app_names(self) -> Tuple[str, ...]:
        """Per-request app names (derived from the ids on first use)."""
        catalog = np.asarray(self.app_catalog, dtype=object)
        return tuple(catalog[self.app_ids].tolist())

    def __getstate__(self) -> dict:
        # Ship the columns only; a receiver re-derives names on demand.
        state = dict(self.__dict__)
        state.pop("app_names", None)
        return state

    def __len__(self) -> int:
        return len(self.arrival_seconds)

    def requests_per_second(self, bucket_seconds: float = 1.0) -> np.ndarray:
        """Arrival-rate series (Fig. 13a).

        Buckets are exactly ``bucket_seconds`` wide (the last one may
        extend past the trace end when the duration is not a multiple of
        the bucket size), so ``series * bucket_seconds`` always sums to
        the request count.
        """
        if bucket_seconds <= 0:
            raise ConfigurationError(f"non-positive bucket: {bucket_seconds}")
        buckets = max(1, int(np.ceil(self.duration_seconds / bucket_seconds)))
        edges = np.arange(buckets + 1) * bucket_seconds
        counts, _ = np.histogram(self.arrival_seconds, bins=edges)
        return counts / bucket_seconds

    # ------------------------------------------------- streaming protocol
    @property
    def total_requests(self) -> int:
        return len(self.arrival_seconds)

    def chunks(self, chunk_requests: int) -> Iterator[TraceChunk]:
        """Yield the trace as bounded :class:`TraceChunk` slices (views
        of the columns; ids index :attr:`app_catalog`)."""
        arrivals = np.asarray(self.arrival_seconds, dtype=np.float64)
        for start in range(0, len(arrivals), chunk_requests):
            stop = start + chunk_requests
            yield TraceChunk(arrivals[start:stop], self.app_ids[start:stop])


class TraceGenerator:
    """Generates bursty Poisson traces over a set of applications."""

    def __init__(
        self,
        app_names: Sequence[str],
        rate_envelope: Sequence[float] = DEFAULT_RATE_ENVELOPE,
        segment_seconds: float = 1.0 * MINUTE,
    ) -> None:
        if not app_names:
            raise ConfigurationError("trace needs at least one application")
        if not rate_envelope:
            raise ConfigurationError("trace needs a rate envelope")
        if any(
            not math.isfinite(rate) or rate < 0 for rate in rate_envelope
        ):
            raise ConfigurationError(
                "negative or non-finite request rate in envelope"
            )
        if not math.isfinite(segment_seconds) or segment_seconds <= 0:
            raise ConfigurationError(f"invalid segment: {segment_seconds}")
        self._app_names = tuple(app_names)
        self._envelope = tuple(float(r) for r in rate_envelope)
        self._segment_seconds = segment_seconds

    @property
    def duration_seconds(self) -> float:
        return len(self._envelope) * self._segment_seconds

    def generate(self, rng: np.random.Generator) -> RequestTrace:
        """Sample one trace realisation."""
        arrivals: List[np.ndarray] = []
        for segment, rate in enumerate(self._envelope):
            start = segment * self._segment_seconds
            expected = rate * self._segment_seconds
            count = int(rng.poisson(expected))
            if count == 0:
                continue
            times = rng.uniform(start, start + self._segment_seconds, size=count)
            arrivals.append(np.sort(times))
        if arrivals:
            all_arrivals = np.sort(np.concatenate(arrivals))
        else:
            all_arrivals = np.array([])
        app_ids = rng.integers(0, len(self._app_names), size=len(all_arrivals))
        return RequestTrace(
            arrival_seconds=all_arrivals,
            app_ids=app_ids,
            app_catalog=self._app_names,
            duration_seconds=self.duration_seconds,
        )

    def stream(self, rng: np.random.Generator) -> "StreamedTrace":
        """A constant-memory realisation of the same trace.

        Consumes ``rng`` exactly like :meth:`generate` (per-segment
        Poisson counts and uniform arrival draws up front, then app-id
        draws as chunks are emitted), so a simulation fed the stream
        sees a bit-identical trace and leaves ``rng`` in the identical
        end state — without ever materializing whole-trace arrays.
        """
        return StreamedTrace(self, rng)


class StreamedTrace:
    """Chunked realisation of a :class:`TraceGenerator` draw.

    Construction runs *phase A*: it records the rng state, consumes the
    per-segment count/time draws (keeping only the counts, never the
    arrays), and leaves the rng just before where :meth:`TraceGenerator.
    generate` would draw the app assignments.  :meth:`chunks` then
    replays the time draws from the recorded state — identical calls in
    identical order yield identical values — while the caller's rng
    continues with the app draws, chunk by chunk; drawing ``size=n`` in
    consecutive slices leaves ``Generator.integers`` with the same
    values and end state as one bulk draw.  Peak memory is
    O(max(segment, chunk)), not O(trace).

    A stream is single-use: the app draws advance the shared rng, so
    re-iterating cannot reproduce the same realisation.
    """

    def __init__(self, generator: TraceGenerator, rng: np.random.Generator) -> None:
        self._generator = generator
        self._rng = rng
        self._start_state = rng.bit_generator.state
        counts: List[int] = []
        for segment, rate in enumerate(generator._envelope):
            start = segment * generator._segment_seconds
            expected = rate * generator._segment_seconds
            count = int(rng.poisson(expected))
            counts.append(count)
            if count == 0:
                continue
            rng.uniform(start, start + generator._segment_seconds, size=count)
        self._counts = counts
        self.total_requests = sum(counts)
        self.duration_seconds = generator.duration_seconds
        # Dedup the declared names by name, as RequestTrace does; remap
        # ids so duplicates share one catalog entry.
        names = generator._app_names
        self.app_catalog = tuple(dict.fromkeys(names))
        if len(self.app_catalog) != len(names):
            index = {name: i for i, name in enumerate(self.app_catalog)}
            self._id_map = np.array(
                [index[name] for name in names], dtype=np.intp
            )
        else:
            self._id_map = None
        self._consumed = False

    def chunks(self, chunk_requests: int) -> Iterator[TraceChunk]:
        """Yield the realisation as bounded :class:`TraceChunk` slices."""
        if self._consumed:
            raise ConfigurationError(
                "a StreamedTrace is single-use; call TraceGenerator.stream "
                "again for a fresh realisation"
            )
        self._consumed = True
        return self._emit(int(chunk_requests))

    def _draw_ids(self, size: int) -> np.ndarray:
        raw = self._rng.integers(0, len(self._generator._app_names), size=size)
        ids = raw.astype(np.intp)
        return ids if self._id_map is None else self._id_map[ids]

    def _emit(self, chunk_requests: int) -> Iterator[TraceChunk]:
        replay = np.random.Generator(type(self._rng.bit_generator)())
        replay.bit_generator.state = self._start_state
        generator = self._generator
        pending: List[np.ndarray] = []
        buffered = 0
        for segment, rate in enumerate(generator._envelope):
            start = segment * generator._segment_seconds
            expected = rate * generator._segment_seconds
            count = int(replay.poisson(expected))
            if count == 0:
                continue
            times = np.sort(
                replay.uniform(
                    start, start + generator._segment_seconds, size=count
                )
            )
            pending.append(times)
            buffered += count
            while buffered >= chunk_requests:
                merged = (
                    pending[0] if len(pending) == 1 else np.concatenate(pending)
                )
                yield TraceChunk(
                    merged[:chunk_requests], self._draw_ids(chunk_requests)
                )
                pending = [merged[chunk_requests:]]
                buffered -= chunk_requests
        if buffered:
            merged = pending[0] if len(pending) == 1 else np.concatenate(pending)
            yield TraceChunk(merged, self._draw_ids(buffered))

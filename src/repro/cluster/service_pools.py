"""Per-application service-time pools: the one draw schedule of a rack.

Every rack engine draws service times through the :class:`ServicePools`
of its :class:`~repro.cluster.simulation.RackSimulation`, the only code
that touches pool state or draws on the rack RNG.  Its one rule:
serial, windowed, read-ahead and bounded draws all consume the RNG in
one order, the event oracles' one draw per service start.

A pool is drawn lazily by one schedule (:func:`pool_draw_size`) and
grows instead of wrapping, so a long trace never replays a sample
sequence.  A kernel reads a tentative window
(:meth:`ServicePools.peek`) assuming every request starts and commits
the prefix that did (:meth:`ServicePools.commit`): growth draws past it
are rolled back and the in-prefix ones replayed in window order —
speculate, validate, commit the prefix.  A kernel that draws in start
order reads ahead through plain-list copies (:class:`ReadAhead`).
Streamed runs compact consumed prefixes at chunk boundaries
(:meth:`ServicePools.compact`) and, from a generator source, run
bounded (:meth:`ServicePools.bounded`): a growth block keeps a leading
window and the rest is replayed on demand from its recorded RNG state
on a cloned generator.  Cursors and the schedule stay logical
throughout, so none of this changes a draw.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.model import ServerlessExecutionModel
from repro.errors import SchedulingError
from repro.serverless.application import Application

# First block drawn for an application.
_PRESAMPLE_COUNT = 4096

# Ceiling on one growth draw: unbounded doubling would make the arrays
# inside one ``sample_latencies`` call O(trace), defeating the streaming
# engines' constant memory.  Changing it changes results for any
# simulation consuming more than 2x this many samples per app.
_POOL_BLOCK_MAX = 32_768

# Longest plain-list copy of one pool a :class:`ReadAhead` holds.
_READ_AHEAD_MAX = 4096

# Fewest consumed samples worth a compaction copy.
_COMPACT_MIN = 1024


def pool_draw_size(logical_length: int) -> int:
    """Size of the next draw for a pool of ``logical_length`` samples.

    An empty pool draws a first block of ``_PRESAMPLE_COUNT``; a pool
    that runs dry doubles its logical length, one block capped at
    ``_POOL_BLOCK_MAX``.  Every recorded check hash depends on it.
    """
    if logical_length == 0:
        return _PRESAMPLE_COUNT
    return min(logical_length, _POOL_BLOCK_MAX)


class ServiceSampleCache:
    """Memoised service-time draw blocks, shared across simulations.

    A sweep runs the same platform model over the same trace under many
    scenario knobs (instance counts, policies, cold starts); each run
    draws the same pre-sample blocks from the same RNG states.  The cache
    keys a draw by ``(model, application, count, cold, RNG state)`` and
    replays the stored block *and* the post-draw RNG state on a hit, so
    cached runs stay bit-identical to uncached ones.
    """

    def __init__(self) -> None:
        self._blocks: Dict[tuple, tuple] = {}
        # Strong refs keep id()-based keys unambiguous for the cache's
        # lifetime (a collected model's id could otherwise be reused).
        self._pinned: List[object] = []
        self.hits = 0
        self.misses = 0

    def draw(
        self,
        model: ServerlessExecutionModel,
        app: Application,
        rng: np.random.Generator,
        count: int,
        cold: bool = False,
    ) -> np.ndarray:
        key = (
            id(model),
            id(app),
            int(count),
            bool(cold),
            repr(rng.bit_generator.state),
        )
        cached = self._blocks.get(key)
        if cached is not None:
            values, state_after = cached
            rng.bit_generator.state = state_after
            self.hits += 1
            return values
        values = model.sample_latencies(app, rng, count, cold=cold)
        self._blocks[key] = (values, rng.bit_generator.state)
        self._pinned.append(model)
        self._pinned.append(app)
        self.misses += 1
        return values


class _AppPool:
    """One app's pool: ``samples`` holds the logical range ``[trim, trim
    + len(samples))`` and is never written in place (a window's snapshot
    shares it); ``cursor`` is the logical index of the next draw.
    ``pending`` lists blocks drawn but not yet all held, as ``[pre-draw
    bit-generator state, block length, samples held]``: only the head
    may be partly held, so ``samples`` stays one contiguous range.
    """

    __slots__ = ("samples", "cursor", "trim", "pending")

    def __init__(self) -> None:
        self.samples = np.empty(0)
        self.cursor = 0
        self.trim = 0
        self.pending: List[list] = []

    def length(self) -> int:
        """Logical length: trimmed, held and pending samples."""
        return (
            self.trim
            + len(self.samples)
            + sum(length - drawn for _, length, drawn in self.pending)
        )


class ServicePools:
    """The service-time pools of one rack, and the rack RNG they draw on.

    Pools are keyed by application name and persist across runs.  At
    most one tentative window is open at a time (:meth:`peek` to
    :meth:`commit`), and no serial draw, read-ahead or compaction may
    happen inside it.
    """

    def __init__(
        self,
        model: ServerlessExecutionModel,
        applications: Dict[str, Application],
        rng: np.random.Generator,
        cold: bool = False,
        cache: Optional[ServiceSampleCache] = None,
    ) -> None:
        self.rng = rng
        self._model = model
        self._applications = applications
        self._cold = cold
        self._cache = cache
        self._pools: Dict[str, _AppPool] = {}
        # Bounded mode: growth blocks larger than this keep only a
        # leading window (None keeps every drawn sample).
        self._window: Optional[int] = None
        # The open tentative window: (app ids, catalog, growth draws
        # as (window position, app id, size), rollback snapshot).
        self._open: Optional[tuple] = None

    # ---- queries -------------------------------------------------------

    def cursors(self) -> Dict[str, int]:
        """Each drawn application's logical cursor (samples consumed)."""
        return {name: pool.cursor for name, pool in self._pools.items()}

    def retained(self, name: str) -> Tuple[int, np.ndarray, int]:
        """``(trim, samples held, logical length)`` of ``name``'s pool,
        ``trim`` the logical index of the first sample held."""
        pool = self._pools[name]
        return pool.trim, pool.samples, pool.length()

    # ---- drawing -------------------------------------------------------

    def _draw_block(
        self, name: str, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        app = self._applications.get(name)
        if app is None:
            raise SchedulingError(f"unknown application {name!r}")
        if self._cache is not None:
            return self._cache.draw(
                self._model, app, rng, count, cold=self._cold
            )
        return self._model.sample_latencies(app, rng, count, cold=self._cold)

    def _grow(self, name: str, size: int) -> _AppPool:
        """One schedule draw of ``size`` for ``name``, appended to its
        pool (created at the first draw).

        The live RNG always consumes the whole block.  A block drawn
        behind pending blocks, or in bounded mode one larger than the
        window, records its pre-draw state and keeps only a leading
        window (nothing behind pending blocks).
        """
        state = self.rng.bit_generator.state
        block = self._draw_block(name, size, self.rng)
        pool = self._pools.get(name)
        if pool is None:
            pool = self._pools[name] = _AppPool()
        window = self._window
        if pool.pending or (window is not None and size > window):
            keep = 0 if pool.pending else window
            pool.pending.append([state, size, keep])
            block = block[:keep]
        pool.samples = np.concatenate([pool.samples, block])
        return pool

    def _replay(self, name: str, pool: _AppPool) -> None:
        """Materialize the next window of ``pool``'s head pending block
        by replaying its recorded draw on a cloned generator — same
        state, same call, same values; the live RNG is untouched."""
        head = pool.pending[0]
        state, length, drawn = head
        bitgen = type(self.rng.bit_generator)()
        bitgen.state = state
        block = self._draw_block(name, length, np.random.Generator(bitgen))
        take = block[drawn : drawn + (self._window or length)].copy()
        head[2] = drawn + len(take)
        if head[2] >= length:
            pool.pending.pop(0)
        pool.samples = np.concatenate([pool.samples, take])

    def _extend(self, name: str, pool: _AppPool, need: int) -> None:
        """Hold at least ``need`` physical samples: replay pending
        blocks first, then grow by the schedule."""
        while len(pool.samples) < need:
            if pool.pending:
                self._replay(name, pool)
            else:
                self._grow(name, pool_draw_size(pool.trim + len(pool.samples)))

    def draw(self, name: str) -> float:
        """The next service time of ``name`` (the oracles' serial draw)."""
        pool = self._pools.get(name)
        if pool is None:
            pool = self._grow(name, pool_draw_size(0))
        cursor = pool.cursor
        offset = cursor - pool.trim
        if offset >= len(pool.samples):
            self._extend(name, pool, offset + 1)
        pool.cursor = cursor + 1
        return float(pool.samples[offset])

    # ---- tentative windows ---------------------------------------------

    def peek(self, app_ids: np.ndarray, app_names: List[str]) -> np.ndarray:
        """Service times for a window of requests (ids into
        ``app_names``), assuming every one of them starts, in window
        order; :meth:`commit` closes the window.

        Growth draws run in the order the serial draws would make them
        (window position, then app), after a snapshot of the RNG and of
        every pool they grow.
        """
        pools = self._pools
        values = np.empty(len(app_ids))
        events: List[Tuple[int, int, int]] = []
        positions: Dict[int, np.ndarray] = {}
        for app_id in np.flatnonzero(np.bincount(app_ids)).tolist():
            pos = np.flatnonzero(app_ids == app_id)
            positions[app_id] = pos
            pool = pools.get(app_names[app_id])
            cursor = length = 0
            if pool is not None:
                cursor, length = pool.cursor, pool.length()
            while length < cursor + len(pos):
                size = pool_draw_size(length)
                events.append((int(pos[length - cursor]), app_id, size))
                length += size
        snapshot = None
        if events:
            events.sort()
            snapshot = (self.rng.bit_generator.state, {})
            for _, app_id, _ in events:
                name = app_names[app_id]
                pool = pools.get(name)
                snapshot[1][name] = None if pool is None else (
                    pool.samples, [list(block) for block in pool.pending]
                )
            for _, app_id, size in events:
                self._grow(app_names[app_id], size)
        for app_id, pos in positions.items():
            name = app_names[app_id]
            pool = pools[name]
            offset = pool.cursor - pool.trim
            need = offset + len(pos)
            # Bounded mode: part of the range may still be pending.
            self._extend(name, pool, need)
            values[pos] = pool.samples[offset:need]
        self._open = (app_ids, app_names, events, snapshot)
        return values

    def commit(self, committed: int) -> None:
        """Consume the open window's first ``committed`` samples.

        If a growth draw belonged to a request past the prefix, the RNG
        and the grown pools are restored from the snapshot and only the
        in-prefix draws are replayed — in window order, from the same
        RNG states, hence with the same values.
        """
        app_ids, app_names, events, snapshot = self._open
        self._open = None
        pools = self._pools
        if snapshot is not None and events[-1][0] >= committed:
            rng_state, saved = snapshot
            self.rng.bit_generator.state = rng_state
            for name, kept in saved.items():
                if kept is None:
                    del pools[name]
                else:
                    pool = pools[name]
                    pool.samples = kept[0]
                    pool.pending = [list(block) for block in kept[1]]
            for pos, app_id, size in events:
                if pos < committed:
                    self._grow(app_names[app_id], size)
        if committed:
            counts = np.bincount(app_ids[:committed])
            for app_id in np.flatnonzero(counts).tolist():
                pools[app_names[app_id]].cursor += int(counts[app_id])

    # ---- read-ahead, compaction, bounded mode --------------------------

    def read_ahead(self, app_names: List[str]) -> "ReadAhead":
        """A start-order reader over the pools of ``app_names``."""
        return ReadAhead(self, app_names)

    def compact(self) -> None:
        """Drop consumed pool prefixes (chunk boundaries of a streamed
        run); only peak memory shrinks.  Never inside an open window:
        its snapshot holds physical arrays at the current trim."""
        for pool in self._pools.values():
            # Never past what is held (a rolled-back window can leave the
            # cursor in pending samples, which replay catches up on), and
            # only when the surviving tail is no larger than what it
            # frees: copy work stays amortized linear in the draws.
            consumed = min(pool.cursor - pool.trim, len(pool.samples))
            if consumed >= _COMPACT_MIN and 2 * consumed >= len(pool.samples):
                pool.samples = pool.samples[consumed:].copy()
                pool.trim += consumed

    @contextmanager
    def bounded(self, chunk_requests: int) -> Iterator[None]:
        """Bounded mode for one streamed run: a growth block keeps at
        most ``max(chunk_requests, _PRESAMPLE_COUNT)`` samples and the
        rest is replayed on demand.  Blocks left pending at exit are
        replayed whole when next needed."""
        saved = self._window
        self._window = max(chunk_requests, _PRESAMPLE_COUNT)
        try:
            yield
        finally:
            self._window = saved


class ReadAhead:
    """Start-order reads through plain-list copies of each pool.

    ``runs[app_id]`` copies the pool's next samples and ``read[app_id]``
    counts those taken: a kernel reads ``runs[app_id][read[app_id]]``
    inline and calls :meth:`refill` once the copy is spent, which draws
    serially (growing the pool exactly when the oracle would).
    :meth:`close` moves the cursors past what was read; no other pool
    operation may come between.
    """

    __slots__ = ("_pools", "_names", "runs", "read")

    def __init__(self, pools: ServicePools, app_names: List[str]) -> None:
        self._pools = pools
        self._names = app_names
        self.runs: List[List[float]] = [[] for _ in app_names]
        self.read = [0] * len(app_names)

    def refill(self, app_id: int) -> float:
        """The next sample of ``app_id`` once its copy is spent."""
        pools = self._pools
        name = self._names[app_id]
        if self.read[app_id]:
            pools._pools[name].cursor += self.read[app_id]
        value = pools.draw(name)
        pool = pools._pools[name]
        offset = pool.cursor - pool.trim
        size = min(max(2 * len(self.runs[app_id]), 64), _READ_AHEAD_MAX)
        self.runs[app_id] = pool.samples[offset : offset + size].tolist()
        self.read[app_id] = 0
        return value

    def close(self) -> None:
        """Move every cursor past what was read; drop the copies."""
        pools = self._pools._pools
        for app_id, count in enumerate(self.read):
            if count:
                pools[self._names[app_id]].cursor += count
                self.read[app_id] = 0
            self.runs[app_id] = []

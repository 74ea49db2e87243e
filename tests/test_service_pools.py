"""Generated test of the service-sample pools on their own.

Every rack engine draws through one
:class:`~repro.cluster.service_pools.ServicePools`, whose rule is that
serial, windowed, read-ahead and bounded draws all consume the RNG in
one order.  A derandomized ``hypothesis`` strategy drives one pool set
through a drawn sequence of steps over one to three apps: tentative
windows (``peek``) committed up to a prefix cut just before, at or just
after one of their growth draws, or anywhere; start-order read-ahead
passes closed at their end; serial draws; and compactions between them —
unbounded, or bounded with a small window for some or all steps.  A
reference pool set on the same seed takes serial draws only.  After
every step both hold the same values, RNG state, cursors and logical
pools.
"""

from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import service_pools
from repro.cluster.service_pools import ServicePools, pool_draw_size
from repro.errors import SchedulingError
from tests.conftest import assert_same_draws

NAMES = ["a", "b", "c"]

# The schedule's constants, and a miniature of them that crosses every
# regime (first block, doubling, the block cap, bounded replay,
# compaction) within a few hundred draws.  Each scale lists its window
# sizes and its bounded-mode chunk sizes (1 gives the smallest window,
# one first block).
SCALES = {
    "paper": (
        {},
        st.integers(1, 300) | st.integers(4_000, 16_000),
        [1, 6_000],
    ),
    "miniature": (
        dict(_PRESAMPLE_COUNT=16, _POOL_BLOCK_MAX=64, _COMPACT_MIN=8),
        st.integers(1, 200),
        [1, 40],
    ),
}


class OffsetModel:
    """Execution-model stand-in: app ``i`` serves in ``[i, i + 1)``."""

    def sample_latencies(self, app, rng, count, cold=False):
        return app + rng.random(count)


def make_pools(seed):
    return ServicePools(
        OffsetModel(),
        {name: i for i, name in enumerate(NAMES)},
        np.random.default_rng(seed),
    )


def rack(pools):
    """The two attributes :func:`assert_same_draws` reads of a rack."""
    return SimpleNamespace(_rng=pools.rng, pools=pools)


def growth_positions(pools, ids):
    """Window positions of the growth draws a window of ``ids`` needs."""
    cursors = pools.cursors()
    found = []
    for app_id in np.unique(ids).tolist():
        name = NAMES[app_id]
        occurrences = np.flatnonzero(ids == app_id)
        cursor = cursors.get(name, 0)
        length = pools.retained(name)[2] if name in cursors else 0
        while length < cursor + len(occurrences):
            found.append(int(occurrences[length - cursor]))
            length += pool_draw_size(length)
    return sorted(found)


def read_ahead(pools, ids):
    """Read ``ids`` in start order the way the control kernel does."""
    reader = pools.read_ahead(NAMES)
    runs, read = reader.runs, reader.read
    values = []
    for app_id in ids.tolist():
        r = read[app_id]
        try:
            sample = runs[app_id][r]
        except IndexError:
            sample = reader.refill(app_id)
        else:
            read[app_id] = r + 1
        values.append(sample)
    reader.close()
    return values


def serial_draws(pools, ids):
    return [pools.draw(NAMES[app_id]) for app_id in ids.tolist()]


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), scale=st.sampled_from(sorted(SCALES)))
def test_every_draw_path_matches_serial_draws(data, scale):
    constants, sizes, chunks = SCALES[scale]
    with ExitStack() as patched:
        if constants:
            patched.enter_context(
                mock.patch.multiple(service_pools, **constants)
            )
        check_draw_paths(data, sizes, chunks)


def check_draw_paths(data, sizes, chunks):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    n_apps = data.draw(st.integers(1, 3), label="apps")
    weights = np.array(
        data.draw(
            st.lists(st.integers(1, 8), min_size=n_apps, max_size=n_apps),
            label="weights",
        ),
        dtype=float,
    )
    chunk = data.draw(st.sampled_from([None, *chunks]), label="bounded")
    steps = data.draw(st.integers(1, 10), label="steps")
    bounded_steps = data.draw(st.integers(1, 10), label="bounded steps")
    pools, serial = make_pools(seed), make_pools(seed)
    ids_rng = np.random.default_rng(seed)
    with ExitStack() as bounded:
        if chunk is not None:
            bounded.enter_context(pools.bounded(chunk))
        for step in range(steps):
            if step == bounded_steps:
                bounded.close()  # pending blocks outlive bounded mode
            kind = data.draw(
                st.sampled_from(
                    ["window", "window", "read-ahead", "serial", "compact"]
                ),
                label="step",
            )
            if kind == "compact":
                pools.compact()
                continue
            size = data.draw(sizes, label="size")
            ids = ids_rng.choice(n_apps, size=size, p=weights / weights.sum())
            if kind == "window":
                growth = growth_positions(pools, ids)
                where = data.draw(
                    st.sampled_from(["growth", "anywhere", "whole"]),
                    label="cut",
                )
                if where == "growth" and growth:
                    cut = data.draw(st.sampled_from(growth), label="growth")
                    cut += data.draw(st.integers(-1, 1), label="offset")
                    committed = min(max(cut, 0), size)
                elif where == "anywhere":
                    committed = data.draw(st.integers(0, size), label="k")
                else:
                    committed = size
                values = pools.peek(ids, NAMES)
                pools.commit(committed)
                got = values[:committed].tolist()
                want = serial_draws(serial, ids[:committed])
            elif kind == "read-ahead":
                got = read_ahead(pools, ids)
                want = serial_draws(serial, ids)
            else:
                got = serial_draws(pools, ids)
                want = serial_draws(serial, ids)
            assert got == want, (step, kind)
            assert_same_draws(rack(pools), rack(serial))


def test_unknown_application_draws_nothing():
    pools = make_pools(1)
    state = repr(pools.rng.bit_generator.state)
    with pytest.raises(SchedulingError, match="ghost"):
        pools.draw("ghost")
    assert repr(pools.rng.bit_generator.state) == state
    assert pools.cursors() == {}

"""The columnar trace: app ids over a first-appearance catalog.

A :class:`RequestTrace` stores per-request app *ids* plus a catalog of
unique names in first-appearance order; per-request names are a derived
view.  Whichever way a trace is built — from names, from ids over a
catalog that repeats or over-lists names, by the generator, by the load
balancer's shards — it must land on the same canonical columns.
"""

import pickle

import numpy as np
import pytest

from repro.cluster.fleet import LB_POLICIES, FleetTopology, GlobalLoadBalancer
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.errors import ConfigurationError

ENVELOPE = (20.0, 60.0, 30.0)
NAMES = ("alpha", "beta", "gamma", "delta")


def first_appearance(names):
    return tuple(dict.fromkeys(names))


def chunk_columns(source, size):
    chunks = list(source.chunks(size))
    arrivals = np.concatenate([chunk.arrival_seconds for chunk in chunks])
    names = tuple(
        source.app_catalog[int(i)]
        for chunk in chunks
        for i in chunk.app_ids
    )
    return arrivals, names


@pytest.fixture(scope="module")
def trace():
    generator = TraceGenerator(
        NAMES, rate_envelope=ENVELOPE, segment_seconds=2.0
    )
    return generator.generate(np.random.default_rng(3))


def test_ids_and_names_build_the_same_trace(trace):
    by_names = RequestTrace(
        trace.arrival_seconds, trace.app_names, trace.duration_seconds
    )
    # Ids over a catalog that repeats a name and lists an unused one.
    over_listed = ("unused",) + trace.app_catalog + trace.app_catalog[:1]
    by_ids = RequestTrace(
        arrival_seconds=trace.arrival_seconds,
        app_ids=trace.app_ids.astype(np.int64) + 1,
        app_catalog=over_listed,
        duration_seconds=trace.duration_seconds,
    )
    for built in (by_names, by_ids):
        assert built.app_names == trace.app_names
        assert built.app_catalog == first_appearance(trace.app_names)
        assert built.app_ids.dtype == np.uint8
        assert np.array_equal(built.app_ids, trace.app_ids)
        for size in (1, 7, len(trace) + 5):
            arrivals, names = chunk_columns(built, size)
            assert np.array_equal(arrivals, trace.arrival_seconds)
            assert names == trace.app_names


def test_repeated_catalog_name_shares_one_id():
    trace = RequestTrace(
        arrival_seconds=np.array([0.0, 1.0, 2.0, 3.0]),
        app_ids=np.array([2, 0, 1, 2]),
        app_catalog=("x", "y", "x"),
        duration_seconds=4.0,
    )
    assert trace.app_catalog == ("x", "y")
    assert trace.app_ids.tolist() == [0, 0, 1, 0]
    assert trace.app_names == ("x", "x", "y", "x")


def test_late_first_appearance_and_unused_names():
    # The second app first shows up far past any short prefix scan.
    ids = np.array([1] * 5000 + [3] + [1] * 10)
    trace = RequestTrace(
        arrival_seconds=np.arange(len(ids), dtype=float),
        app_ids=ids,
        app_catalog=("a", "b", "c", "d"),
        duration_seconds=float(len(ids)),
    )
    assert trace.app_catalog == ("b", "d")
    assert trace.app_ids.tolist() == [0] * 5000 + [1] + [0] * 10


def test_duplicate_declared_names_dedup_alike_in_generate_and_stream():
    declared = ("a", "b", "a", "c", "b")
    generator = TraceGenerator(
        declared, rate_envelope=ENVELOPE, segment_seconds=2.0
    )
    generated = generator.generate(np.random.default_rng(11))
    rng = np.random.default_rng(11)
    streamed = generator.stream(rng)
    arrivals, names = chunk_columns(streamed, 9)
    assert np.array_equal(arrivals, generated.arrival_seconds)
    assert names == generated.app_names
    assert set(generated.app_catalog) == set(streamed.app_catalog)
    assert len(generated.app_catalog) == 3
    assert generated.app_catalog == first_appearance(generated.app_names)


@pytest.mark.parametrize("policy", LB_POLICIES)
def test_shard_catalogs_in_first_appearance_order(trace, policy):
    topology = FleetTopology.uniform(3, "any-platform")
    shards = GlobalLoadBalancer(policy).shard(trace, topology)
    assignment = GlobalLoadBalancer(policy).assign(trace, topology)
    names = np.asarray(trace.app_names, dtype=object)
    for index, shard in enumerate(shards):
        expected = tuple(names[assignment == index])
        assert shard.app_names == expected
        assert shard.app_catalog == first_appearance(expected)


def test_pickle_round_trip_ships_columns_and_rederives_names(trace):
    trace.app_names  # materialize the derived view
    assert "app_names" not in trace.__getstate__()
    clone = pickle.loads(pickle.dumps(trace))
    assert "app_names" not in vars(clone)
    assert np.array_equal(clone.app_ids, trace.app_ids)
    assert clone.app_ids.dtype == trace.app_ids.dtype
    assert clone.app_catalog == trace.app_catalog
    assert np.array_equal(clone.arrival_seconds, trace.arrival_seconds)
    assert clone.app_names == trace.app_names


def test_invalid_columns_rejected():
    with pytest.raises(ConfigurationError):
        RequestTrace(
            arrival_seconds=np.array([0.0]),
            app_ids=np.array([1]),
            app_catalog=("only",),
            duration_seconds=1.0,
        )
    with pytest.raises(ConfigurationError):
        RequestTrace(
            arrival_seconds=np.array([0.0, 1.0]),
            app_ids=np.array([0]),
            app_catalog=("only",),
            duration_seconds=1.0,
        )
    with pytest.raises(ConfigurationError):
        RequestTrace(np.array([0.0]), ("f",), 1.0, app_ids=np.array([0]))
    with pytest.raises(ConfigurationError):
        RequestTrace(np.array([0.0]), ("f",))

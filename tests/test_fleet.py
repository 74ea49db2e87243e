"""Fleet layer: topology, global load balancer, sharded runner, stitch.

The load-bearing guarantees:

- the load balancer's assignment is a pure function of (policy, seed,
  trace, topology) — deterministic, process-stable, worker-independent;
- the sharded runner (``workers=4``) is bit-identical to the serial
  oracle stitch (``workers=1``): same per-rack check hashes, same
  merged fleet hash — and the event-driven engine stitches to the same
  hashes as the vectorized one;
- merged quantile sketches match exact-mode percentiles within the
  sketch's documented bin-resolution bound.
"""

import numpy as np
import pytest

from repro.cluster.fleet import (
    LB_POLICIES,
    FleetTopology,
    GlobalLoadBalancer,
    RackSpec,
    derive_rack_seed,
)
from repro.cluster.fleet_engine import FleetRunner
from repro.cluster.trace import RequestTrace, TraceGenerator
from repro.errors import ConfigurationError
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context


@pytest.fixture(scope="module")
def context():
    return build_context(platform_names=[BASELINE_NAME, DSCS_NAME])


@pytest.fixture(scope="module")
def trace(context):
    envelope = tuple(
        rate * 0.04
        for rate in (250, 320, 420, 560, 700, 800, 780, 650, 520, 430)
    )
    generator = TraceGenerator(
        context.app_names, rate_envelope=envelope, segment_seconds=30.0
    )
    return generator.generate(np.random.default_rng(13))


def small_topology(platform, racks=4, **kwargs):
    kwargs.setdefault("max_instances", 8)
    kwargs.setdefault("seed", 13)
    return FleetTopology.uniform(racks, platform, **kwargs)


class TestTopology:
    def test_uniform_names_and_seeds_distinct(self):
        topology = small_topology(BASELINE_NAME, racks=6)
        names = [rack.name for rack in topology.racks]
        assert names == [f"rack-{i:03d}" for i in range(6)]
        seeds = [topology.rack_seed(i) for i in range(6)]
        assert len(set(seeds)) == 6
        assert all(seed >= 0 for seed in seeds)

    def test_rack_seed_is_pure(self):
        assert derive_rack_seed(13, 3) == derive_rack_seed(13, 3)
        assert derive_rack_seed(13, 3) != derive_rack_seed(14, 3)
        assert derive_rack_seed(13, 3) != derive_rack_seed(13, 4)

    def test_total_instances(self):
        topology = small_topology(BASELINE_NAME, racks=3, max_instances=5)
        assert topology.total_instances == 15

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetTopology(racks=())

    def test_duplicate_rack_names_rejected(self):
        rack = RackSpec(name="r0", platform=BASELINE_NAME)
        with pytest.raises(ConfigurationError):
            FleetTopology(racks=(rack, rack))

    def test_bad_rack_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            RackSpec(name="", platform=BASELINE_NAME)
        with pytest.raises(ConfigurationError):
            RackSpec(name="r", platform=BASELINE_NAME, max_instances=0)
        with pytest.raises(ConfigurationError):
            RackSpec(name="r", platform=BASELINE_NAME, queue_depth=0)
        with pytest.raises(ConfigurationError):
            RackSpec(name="r", platform=BASELINE_NAME, policy="lifo")
        with pytest.raises(ConfigurationError):
            RackSpec(name="r", platform=BASELINE_NAME, weight=0.0)
        with pytest.raises(ConfigurationError):
            RackSpec(name="r", platform=BASELINE_NAME, weight=float("nan"))

    def test_rack_seed_index_bounds(self):
        topology = small_topology(BASELINE_NAME, racks=2)
        with pytest.raises(ConfigurationError):
            topology.rack_seed(2)

    def test_zero_racks_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetTopology.uniform(0, BASELINE_NAME)


class TestLoadBalancer:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            GlobalLoadBalancer("random")

    def test_round_robin_cycles(self, trace):
        topology = small_topology(BASELINE_NAME, racks=3)
        assignment = GlobalLoadBalancer("round_robin").assign(
            trace, topology
        )
        assert np.array_equal(
            assignment, np.arange(len(trace), dtype=np.int64) % 3
        )

    @pytest.mark.parametrize("policy", LB_POLICIES)
    def test_assignment_deterministic(self, trace, policy):
        topology = small_topology(BASELINE_NAME)
        first = GlobalLoadBalancer(policy).assign(trace, topology)
        second = GlobalLoadBalancer(policy).assign(trace, topology)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("policy", LB_POLICIES)
    def test_shards_conserve_and_stay_sorted(self, trace, policy):
        topology = small_topology(BASELINE_NAME)
        balancer = GlobalLoadBalancer(policy)
        shards = balancer.shard(trace, topology)
        assert sum(len(shard) for shard in shards) == len(trace)
        for shard in shards:
            assert shard.duration_seconds == trace.duration_seconds
            arrivals = shard.arrival_seconds
            assert len(arrivals) == 0 or bool(
                np.all(np.diff(arrivals) >= 0)
            )
        sizes = balancer.shard_sizes(trace, topology)
        assert np.array_equal(
            sizes, np.array([len(shard) for shard in shards])
        )

    def test_weighted_tracks_capacity(self, trace):
        racks = tuple(
            RackSpec(
                name=f"r{i}",
                platform=BASELINE_NAME,
                max_instances=8,
                weight=weight,
            )
            for i, weight in enumerate((1.0, 3.0))
        )
        topology = FleetTopology(racks=racks, seed=13)
        sizes = GlobalLoadBalancer("weighted").shard_sizes(trace, topology)
        shares = sizes / sizes.sum()
        assert abs(shares[0] - 0.25) < 0.01
        assert abs(shares[1] - 0.75) < 0.01

    def test_weighted_interleaves_rather_than_blocks(self, trace):
        racks = tuple(
            RackSpec(
                name=f"r{i}",
                platform=BASELINE_NAME,
                weight=weight,
            )
            for i, weight in enumerate((1.0, 2.0))
        )
        topology = FleetTopology(racks=racks, seed=13)
        assignment = GlobalLoadBalancer("weighted").assign(trace, topology)
        # Both racks appear within any short window — proportional
        # interleaving, not contiguous blocks (which would skew time).
        window = assignment[: max(30, len(assignment) // 100)]
        assert set(np.unique(window)) == {0, 1}

    def test_hash_affinity_pins_each_app_to_one_rack(self, trace):
        topology = small_topology(BASELINE_NAME)
        assignment = GlobalLoadBalancer("hash_affinity").assign(
            trace, topology
        )
        rack_of_app = {}
        for name, rack in zip(trace.app_names, assignment):
            rack_of_app.setdefault(name, set()).add(int(rack))
        assert all(len(racks) == 1 for racks in rack_of_app.values())

    def test_hash_affinity_seed_changes_placement(self, trace):
        topology = small_topology(BASELINE_NAME, racks=8)
        first = GlobalLoadBalancer("hash_affinity", seed=1).assign(
            trace, topology
        )
        second = GlobalLoadBalancer("hash_affinity", seed=2).assign(
            trace, topology
        )
        assert not np.array_equal(first, second)

    def test_single_rack_takes_everything(self, trace):
        topology = small_topology(BASELINE_NAME, racks=1)
        for policy in LB_POLICIES:
            assignment = GlobalLoadBalancer(policy).assign(trace, topology)
            assert np.array_equal(assignment, np.zeros(len(trace)))

    def test_empty_trace_shards_empty(self):
        topology = small_topology(BASELINE_NAME)
        empty = RequestTrace(
            arrival_seconds=np.array([]),
            app_names=(),
            duration_seconds=10.0,
        )
        for policy in LB_POLICIES:
            shards = GlobalLoadBalancer(policy).shard(empty, topology)
            assert all(len(shard) == 0 for shard in shards)


class TestFleetRunner:
    def test_serial_stitch_conserves_requests(self, context, trace):
        topology = small_topology(BASELINE_NAME)
        result = FleetRunner(context).run(topology, trace, workers=1)
        assert result.total_requests == len(trace)
        assert result.completed + result.dropped == len(trace)
        assert sum(result.drop_breakdown().values()) == result.dropped

    def test_workers_invariant_bit_identical(self, context, trace):
        """workers=1 vs workers=4: same hashes, same rows, same sketches."""
        topology = small_topology(BASELINE_NAME)
        serial = FleetRunner(context).run(topology, trace, workers=1)
        sharded = FleetRunner(context).run(topology, trace, workers=4)
        assert serial.identical_to(sharded)
        assert serial.fleet_hash == sharded.fleet_hash
        for a, b in zip(serial.racks, sharded.racks):
            assert a.check_hash == b.check_hash
            assert a.seed == b.seed
            assert a.requests == b.requests
            assert np.array_equal(a.sketch._counts, b.sketch._counts)
        for q in (50.0, 95.0, 99.0):
            assert serial.sketch_percentile(q) == sharded.sketch_percentile(
                q
            )

    def test_event_engine_stitches_identically(self, context, trace):
        """The serial event-driven oracle reproduces the vectorized stitch."""
        topology = small_topology(BASELINE_NAME, racks=2)
        vectorized = FleetRunner(context, engine="vectorized").run(
            topology, trace, workers=1
        )
        event = FleetRunner(context, engine="event").run(
            topology, trace, workers=1
        )
        assert vectorized.identical_to(event)

    def test_sketch_matches_exact_within_documented_bound(
        self, context, trace
    ):
        topology = small_topology(BASELINE_NAME)
        result = FleetRunner(context, keep_latencies=True).run(
            topology, trace, workers=1
        )
        bound = result.merged_sketch.relative_error_bound
        for q in (50.0, 90.0, 95.0, 99.0, 99.9):
            exact = result.exact_percentile(q)
            sketch = result.sketch_percentile(q)
            assert abs(sketch - exact) <= bound * exact

    def test_exact_mode_requires_keep_latencies(self, context, trace):
        topology = small_topology(BASELINE_NAME, racks=2)
        result = FleetRunner(context).run(topology, trace, workers=1)
        with pytest.raises(ConfigurationError):
            result.exact_latencies

    def test_fleet_seed_changes_every_rack_hash(self, context, trace):
        base = FleetRunner(context).run(
            small_topology(BASELINE_NAME, seed=13), trace, workers=1
        )
        moved = FleetRunner(context).run(
            small_topology(BASELINE_NAME, seed=14), trace, workers=1
        )
        assert base.fleet_hash != moved.fleet_hash
        assert not base.identical_to(moved)

    def test_unknown_platform_rejected(self, context, trace):
        topology = small_topology("Quantum")
        with pytest.raises(ConfigurationError):
            FleetRunner(context).run(topology, trace, workers=1)

    def test_non_positive_workers_rejected(self, context, trace):
        topology = small_topology(BASELINE_NAME, racks=2)
        with pytest.raises(ConfigurationError):
            FleetRunner(context).run(topology, trace, workers=0)

    @pytest.mark.parametrize("engine", ["auto", "streaming"])
    def test_empty_shard_rack_reports_nan(self, context, trace, engine):
        # hash affinity over few racks can leave a rack with no apps;
        # force the situation with a single-app trace on two racks.
        single = RequestTrace(
            arrival_seconds=trace.arrival_seconds[:100],
            app_names=tuple([trace.app_names[0]] * 100),
            duration_seconds=trace.duration_seconds,
        )
        topology = small_topology(BASELINE_NAME, racks=2)
        result = FleetRunner(
            context,
            balancer=GlobalLoadBalancer("hash_affinity"),
            engine=engine,
        ).run(topology, single, workers=1)
        sizes = [rack.requests for rack in result.racks]
        assert sorted(sizes) == [0, 100]
        empty = result.racks[sizes.index(0)]
        assert np.isnan(empty.availability)
        assert np.isnan(empty.mean_latency_seconds)
        assert np.isnan(empty.sketch.percentile(99.0))
        # The fleet-level stitch still accounts for everything.
        assert result.total_requests == 100

    def test_mixed_platform_fleet(self, context, trace):
        racks = tuple(
            RackSpec(
                name=f"r{i}",
                platform=platform,
                max_instances=8,
            )
            for i, platform in enumerate((BASELINE_NAME, DSCS_NAME))
        )
        topology = FleetTopology(racks=racks, seed=13)
        result = FleetRunner(context).run(topology, trace, workers=1)
        assert [rack.platform for rack in result.racks] == [
            BASELINE_NAME,
            DSCS_NAME,
        ]
        assert result.total_requests == len(trace)

    def test_keyed_policy_racks(self, context, trace):
        """Non-FCFS racks route through the keyed engine inside a shard."""
        topology = small_topology(BASELINE_NAME, racks=2, policy="sjf")
        serial = FleetRunner(context).run(topology, trace, workers=1)
        sharded = FleetRunner(context).run(topology, trace, workers=2)
        assert serial.identical_to(sharded)


class TestFleetExperiment:
    def test_fast_profile_rows_and_study(self, context):
        from repro.experiments.registry import REGISTRY, load_all

        load_all()
        result = REGISTRY.run(
            "fig13-fleet", profile="fast", context=context, workers=2
        )
        assert result.provenance["workers"] == 2
        rows = result.rows
        # Rectangular: every row shares the fleet/rack schema.
        keys = set(rows[0])
        assert all(set(row) == keys for row in rows)
        fleet_rows = [row for row in rows if row["scope"] == "fleet"]
        rack_rows = [row for row in rows if row["scope"] == "rack"]
        assert len(fleet_rows) == 6  # 3 lb policies x 2 platforms
        assert len(rack_rows) == 6 * 3
        for fleet_row in fleet_rows:
            matching = [
                row
                for row in rack_rows
                if row["lb_policy"] == fleet_row["lb_policy"]
                and row["platform"] == fleet_row["platform"]
            ]
            assert (
                sum(row["requests"] for row in matching)
                == fleet_row["requests"]
            )
        study = result.study
        cell = study.at(0.05, "round_robin", BASELINE_NAME)
        assert cell.workers == 2
        assert cell.fleet_hash.startswith("sha256:")

    def test_run_fleet_shim(self, context):
        from repro.experiments.fleet import run_fleet

        study = run_fleet(
            racks=2,
            rate_scales=(0.02,),
            lb_policies=("round_robin",),
            max_instances=8,
            context=context,
        )
        result = study.at(0.02, "round_robin", BASELINE_NAME)
        assert result.total_requests > 0
        assert result.workers == 1

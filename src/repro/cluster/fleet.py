"""Datacenter fleet topology and the global load balancer.

The multi-rack layer of the ROADMAP's "millions of users" north star: a
:class:`FleetTopology` of N racks — each its own
:class:`~repro.cluster.simulation.RackSimulation` with per-rack fleet
size, queue bound, scheduling policy, fault schedule, retry policy, and
controller — fed by one fleet-level
:class:`~repro.cluster.trace.RequestTrace` that a deterministic
:class:`GlobalLoadBalancer` splits into per-rack shards *before* any
fan-out.  Because the split and the per-rack seeds (splitmix64-derived
from the fleet seed and the rack index) are pure functions of the trace
and the topology, the per-rack simulations are independent of how many
worker processes eventually run them — the property the sharded runner
in :mod:`repro.cluster.fleet_engine` exploits and oracle-checks.

Load-balancer policies (all deterministic, all worker-count invariant):

- ``round_robin`` — request ``k`` goes to rack ``k % N``.
- ``weighted`` — smooth weighted round-robin by rack capacity weight:
  each rack emits virtual tokens at rate ``weight``, the merged token
  stream (stable-sorted, rack index breaking ties) owns the requests in
  order.  Rack shares converge to ``weight / total_weight`` with the
  interleaving spread evenly through time instead of in contiguous
  blocks.
- ``hash_affinity`` — all requests of one application land on one rack,
  chosen by a splitmix64 hash of the application name (stable across
  processes and Python hash randomization) mixed with the balancer
  seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.control import ControlPlane
from repro.cluster.faults import FaultSchedule, RetryPolicy, _splitmix64
from repro.cluster.sweep import check_rack_knobs
from repro.cluster.trace import RequestTrace
from repro.errors import ConfigurationError

LB_POLICIES = ("round_robin", "weighted", "hash_affinity")

_MASK63 = (1 << 63) - 1


def derive_rack_seed(fleet_seed: int, rack_index: int) -> int:
    """Deterministic per-rack RNG seed, independent of worker count.

    A splitmix64 chain over ``(fleet_seed, rack_index)``: adjacent rack
    indices and adjacent fleet seeds both scramble to unrelated streams,
    so racks never share service-sample sequences.  Masked to 63 bits
    (``numpy.random.default_rng`` wants a non-negative seed).
    """
    mixed = _splitmix64(_splitmix64(fleet_seed) ^ (rack_index + 1))
    return _splitmix64(mixed) & _MASK63


def _stable_app_hash(name: str) -> int:
    """A process-stable 64-bit hash of an application name.

    Built-in ``hash`` is randomized per interpreter (PYTHONHASHSEED), so
    affinity assignment uses blake2b instead — identical in every
    worker, every run, every machine.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class RackSpec:
    """One rack of the fleet: capacity, scheduling, and perturbations."""

    name: str
    platform: str
    max_instances: int = 200
    queue_depth: int = 10_000
    policy: str = "fcfs"
    weight: float = 1.0
    faults: Optional[FaultSchedule] = None
    retry: Optional[RetryPolicy] = None
    control: Optional[ControlPlane] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("rack needs a non-empty name")
        check_rack_knobs(self.max_instances, self.queue_depth, self.policy)
        if not (np.isfinite(self.weight) and self.weight > 0):
            raise ConfigurationError(f"non-positive rack weight: {self.weight}")


@dataclass(frozen=True)
class FleetTopology:
    """An ordered set of racks plus the fleet master seed."""

    racks: Tuple[RackSpec, ...]
    seed: int = 2024

    def __post_init__(self) -> None:
        if not self.racks:
            raise ConfigurationError("fleet needs at least one rack")
        names = [rack.name for rack in self.racks]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate rack names in {names}")
        object.__setattr__(self, "racks", tuple(self.racks))

    def __len__(self) -> int:
        return len(self.racks)

    @property
    def weights(self) -> np.ndarray:
        return np.array([rack.weight for rack in self.racks], dtype=float)

    @property
    def total_instances(self) -> int:
        return sum(rack.max_instances for rack in self.racks)

    def rack_seed(self, index: int) -> int:
        """The derived RNG seed for the rack at ``index``."""
        if not 0 <= index < len(self.racks):
            raise ConfigurationError(
                f"rack index {index} out of range for {len(self.racks)} racks"
            )
        return derive_rack_seed(self.seed, index)

    @classmethod
    def uniform(
        cls,
        n_racks: int,
        platform: str,
        max_instances: int = 200,
        queue_depth: int = 10_000,
        policy: str = "fcfs",
        seed: int = 2024,
        faults: Optional[FaultSchedule] = None,
        retry: Optional[RetryPolicy] = None,
        control: Optional[ControlPlane] = None,
    ) -> "FleetTopology":
        """N identical racks named ``rack-000`` ... ``rack-{N-1:03d}``."""
        if n_racks <= 0:
            raise ConfigurationError(f"non-positive rack count: {n_racks}")
        racks = tuple(
            RackSpec(
                name=f"rack-{index:03d}",
                platform=platform,
                max_instances=max_instances,
                queue_depth=queue_depth,
                policy=policy,
                faults=faults,
                retry=retry,
                control=control,
            )
            for index in range(n_racks)
        )
        return cls(racks=racks, seed=seed)


class GlobalLoadBalancer:
    """Splits a fleet-level trace into per-rack shards, deterministically.

    The assignment is a pure function of ``(policy, seed, trace,
    topology)`` — computed once, before any process fan-out — so the
    resulting shards (and everything simulated on them) are independent
    of worker count by construction.
    """

    def __init__(self, policy: str = "round_robin", seed: int = 101) -> None:
        if policy not in LB_POLICIES:
            raise ConfigurationError(
                f"unknown load-balancer policy {policy!r}; expected one of "
                f"{LB_POLICIES}"
            )
        self.policy = policy
        self.seed = int(seed)

    # ------------------------------------------------------------ assign
    def assign(
        self, trace: RequestTrace, topology: FleetTopology
    ) -> np.ndarray:
        """Per-request rack indices (int64, aligned with the trace)."""
        n_racks = len(topology)
        n_requests = len(trace)
        if n_racks == 1:
            return np.zeros(n_requests, dtype=np.int64)
        if self.policy == "round_robin":
            return np.arange(n_requests, dtype=np.int64) % n_racks
        if self.policy == "weighted":
            return self._assign_weighted(n_requests, topology)
        return self._assign_affinity(trace, n_racks)

    def _assign_weighted(
        self, n_requests: int, topology: FleetTopology
    ) -> np.ndarray:
        """Smooth weighted round-robin via merged virtual-token streams."""
        if n_requests == 0:
            return np.zeros(0, dtype=np.int64)
        weights = topology.weights
        shares = weights / weights.sum()
        # Largest-remainder apportionment of the request count.
        quotas = shares * n_requests
        counts = np.floor(quotas).astype(np.int64)
        remainder = n_requests - int(counts.sum())
        if remainder:
            order = np.argsort(-(quotas - counts), kind="stable")
            counts[order[:remainder]] += 1
        # Rack r's j-th token fires at virtual time (j + 0.5) / weight_r;
        # the merged stream (rack index breaking exact ties) owns the
        # requests in order, interleaving racks proportionally.
        token_times = np.concatenate(
            [
                (np.arange(count, dtype=float) + 0.5) / weight
                for count, weight in zip(counts, weights)
            ]
        )
        token_racks = np.repeat(
            np.arange(len(weights), dtype=np.int64), counts
        )
        order = np.lexsort((token_racks, token_times))
        return token_racks[order]

    def _assign_affinity(
        self, trace: RequestTrace, n_racks: int
    ) -> np.ndarray:
        """Hash-affinity: every application sticks to one rack."""
        rack_of_app = np.array(
            [
                _splitmix64(self.seed ^ _stable_app_hash(name)) % n_racks
                for name in trace.app_catalog
            ],
            dtype=np.int64,
        )
        return rack_of_app[trace.app_ids]

    # ------------------------------------------------------------- shard
    def shard(
        self, trace: RequestTrace, topology: FleetTopology
    ) -> List[RequestTrace]:
        """Per-rack sub-traces, in rack order.

        Shards keep the fleet clock: arrival times are unchanged (each
        shard of a time-ordered trace stays time-ordered, so every rack
        runs on a vectorized engine) and every shard spans the full
        fleet ``duration_seconds`` so per-rack sample grids line up.
        Each shard carries its own first-appearance catalog.
        """
        n_racks = len(topology)
        assignment = self.assign(trace, topology)
        # One stable radix sort groups the requests by rack, keeping
        # trace order inside each group.
        order = np.argsort(
            assignment.astype(np.min_scalar_type(n_racks - 1)), kind="stable"
        )
        arrivals = np.asarray(trace.arrival_seconds)[order]
        app_ids = trace.app_ids[order]
        bounds = np.cumsum(np.bincount(assignment, minlength=n_racks))
        shards: List[RequestTrace] = []
        lo = 0
        for hi in bounds.tolist():
            shards.append(
                RequestTrace(
                    arrival_seconds=arrivals[lo:hi],
                    app_ids=app_ids[lo:hi],
                    app_catalog=trace.app_catalog,
                    duration_seconds=trace.duration_seconds,
                )
            )
            lo = hi
        return shards

    def shard_sizes(
        self, trace: RequestTrace, topology: FleetTopology
    ) -> np.ndarray:
        """Requests per rack under this policy (no shard materialised)."""
        assignment = self.assign(trace, topology)
        return np.bincount(assignment, minlength=len(topology)).astype(
            np.int64
        )

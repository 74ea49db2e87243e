"""Sharded multi-rack fleet runner with a serial oracle stitch.

:class:`FleetRunner` executes a :class:`~repro.cluster.fleet.FleetTopology`
over one fleet-level trace: the
:class:`~repro.cluster.fleet.GlobalLoadBalancer` splits the trace into
per-rack shards *before* fan-out, then each rack simulates its shard on
its own splitmix64-derived seed — serially (``workers=1``, the oracle
stitch) or across a ``ProcessPoolExecutor`` (``workers=N``).  A rack is
a :class:`~repro.cluster.sweep.RackScenario` carrying that seed, run by
:meth:`~repro.cluster.sweep.RackSweep.simulate` — the same path every
sweep cell takes.  Because every shard is a pure function of ``(trace,
topology, balancer)`` and the pool preserves input order, the sharded
run is **bit-identical** to the serial stitch: same per-rack check
hashes, same merged fleet hash (``tests/test_fleet.py``).

Workers do not ship latency vectors back.  Each shard returns a compact
:class:`RackShardResult`: scalar telemetry, a sha256 check hash of the
full series plus the rack's RNG end state (:func:`series_check_hash`
over a materialized series, :func:`streamed_check_hash` over a
streamed one), and a mergeable constant-memory
:class:`~repro.sim.stats.QuantileSketch` of completed latencies (the
streamed series' own sketch, or one built from the materialized
latencies).  Fleet p50/p95/p99 come from merging those O(1)-size
accumulators; pass ``keep_latencies=True`` (test/cross-check scale
only, materialized engines) to also keep the exact vectors for the
sketch-vs-exact comparison.

The module also holds the one result contract every check hash uses:
:func:`digest`, :func:`series_digest` and :func:`series_check_hash`.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.fleet import FleetTopology, GlobalLoadBalancer
from repro.cluster.simulation import SimulationSeries
from repro.cluster.sweep import RackScenario, RackSweep
from repro.cluster.trace import RequestTrace
from repro.errors import ConfigurationError
from repro.sim.stats import QuantileSketch


def digest(*parts) -> str:
    """A stable sha256 content hash over bytes or reprs.

    Callers pass deterministic projections of their results (dataclass
    reprs, ``ndarray.tobytes()``), so two runs or two ``BENCH_*.json``
    records compare by *what* they computed.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            hasher.update(part)
        else:
            hasher.update(repr(part).encode())
        hasher.update(b"\x00")
    return f"sha256:{hasher.hexdigest()}"


def _series_parts(series: SimulationSeries) -> list:
    """The hashed projection of one series.

    The full series, the drop *times and reasons*, the availability
    counters and the per-reason drop breakdown (including ``shed``), so
    an engine cannot silently reshuffle loss modes while matching the
    aggregate counts.  The one definition behind :func:`series_digest`
    and :func:`series_check_hash`.
    """
    return [
        series.completed_latency_seconds.tobytes(),
        series.completed_times.tobytes(),
        series.queue_depth.tobytes(),
        series.busy_instances.tobytes(),
        series.dropped_times.tobytes(),
        series.dropped_reasons.tobytes(),
        series.dropped_requests,
        series.total_requests,
        series.retries,
        series.timeouts,
        series.crash_kills,
        tuple(sorted(series.drop_breakdown().items())),
    ]


def series_digest(series_by_platform: Dict[str, SimulationSeries]) -> str:
    """The check hash of a multi-platform rack study.

    Hashes each platform's series projection, in platform-name order —
    the ``check_hash`` the rack-series ``BENCH_*.json`` records
    (``BENCH_rack``, ``BENCH_faults``, ``BENCH_autoscale``) carry.
    """
    parts: list = []
    for name in sorted(series_by_platform):
        parts.append(name)
        parts.extend(_series_parts(series_by_platform[name]))
    return digest(*parts)


def series_check_hash(series: SimulationSeries, *extra) -> str:
    """Content hash of one rack's full measurement series.

    Covers the :func:`series_digest` projection plus the control
    telemetry and any ``extra`` parts the caller appends (the fleet
    runner appends the rack RNG end state).
    """
    return digest(
        *_series_parts(series),
        series.live_instances.tobytes(),
        series.completed_app_ids.tobytes(),
        series.app_catalog,
        series.scale_ups,
        series.scale_downs,
        *extra,
    )


def streamed_check_hash(streamed, *extra) -> str:
    """Content hash of one rack's :class:`StreamedSeries` telemetry.

    The streaming engine never materialises latency vectors, so this
    covers the constant-memory projection instead: the tick series, the
    per-bucket folds, the sketch accumulators, every counter, and any
    ``extra`` parts (the fleet runner appends the rack RNG end state).
    Two streaming runs that are bit-identical (any chunk size) hash
    identically; note ``_sum`` is excluded for the same chunking-order
    reason :meth:`~repro.sim.stats.QuantileSketch.identical_to` skips it.
    """
    return digest(
        streamed.sample_times.tobytes(),
        streamed.queue_depth.tobytes(),
        streamed.busy_instances.tobytes(),
        streamed.live_instances.tobytes(),
        streamed.latency_sum_per_bucket.tobytes(),
        streamed.completed_per_bucket.tobytes(),
        streamed.dropped_per_bucket.tobytes(),
        streamed.drop_reason_counts.tobytes(),
        streamed.sketch.bin_counts.tobytes(),
        streamed.sketch.minimum,
        streamed.sketch.maximum,
        streamed.completed_count,
        streamed.dropped_requests,
        streamed.total_requests,
        streamed.retries,
        streamed.timeouts,
        streamed.crash_kills,
        streamed.hedges_launched,
        streamed.hedge_wins,
        streamed.scale_ups,
        streamed.scale_downs,
        tuple(sorted(streamed.completed_per_app.items())),
        streamed.app_catalog,
        *extra,
    )


@dataclass(frozen=True)
class _RackTask:
    """One shard of work: everything a worker needs, nothing more."""

    index: int
    name: str
    scenario: RackScenario
    shard: RequestTrace


@dataclass
class RackShardResult:
    """Constant-size outcome of one rack's shard (what workers return)."""

    index: int
    name: str
    platform: str
    seed: int
    requests: int
    completed: int
    dropped: int
    drop_breakdown: Dict[str, int]
    retries: int
    timeouts: int
    crash_kills: int
    scale_ups: int
    scale_downs: int
    peak_queue: int
    wall_clock_seconds: float
    mean_latency_seconds: float
    check_hash: str
    sketch: QuantileSketch
    latencies: Optional[np.ndarray] = None

    @property
    def availability(self) -> float:
        """NaN on an empty shard, matching the SimulationSeries convention."""
        if self.requests == 0:
            return float("nan")
        return self.completed / self.requests

    def as_row(self) -> Dict[str, object]:
        """Flat per-rack record for result tables."""
        row: Dict[str, object] = {
            "scope": "rack",
            "rack": self.name,
            "platform": self.platform,
            "requests": self.requests,
            "completed": self.completed,
            "dropped": self.dropped,
            "availability": round(self.availability, 6),
            "mean_latency_s": round(self.mean_latency_seconds, 6),
            "p50_latency_s": round(self.sketch.percentile(50.0), 6),
            "p95_latency_s": round(self.sketch.percentile(95.0), 6),
            "p99_latency_s": round(self.sketch.percentile(99.0), 6),
            "peak_queue": self.peak_queue,
            "wall_clock_s": round(self.wall_clock_seconds, 3),
            "check_hash": self.check_hash,
        }
        for reason, count in sorted(self.drop_breakdown.items()):
            row[f"dropped_{reason}"] = count
        return row


@dataclass
class FleetResult:
    """Stitched outcome of one fleet run (rack order preserved)."""

    racks: List[RackShardResult]
    lb_policy: str
    workers: int
    _merged: Optional[QuantileSketch] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_requests(self) -> int:
        return sum(rack.requests for rack in self.racks)

    @property
    def completed(self) -> int:
        return sum(rack.completed for rack in self.racks)

    @property
    def dropped(self) -> int:
        return sum(rack.dropped for rack in self.racks)

    @property
    def availability(self) -> float:
        total = self.total_requests
        if total == 0:
            return float("nan")
        return self.completed / total

    def drop_breakdown(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for rack in self.racks:
            for reason, count in rack.drop_breakdown.items():
                merged[reason] = merged.get(reason, 0) + count
        return merged

    @property
    def merged_sketch(self) -> QuantileSketch:
        """The fleet-level accumulator: all rack sketches summed."""
        if self._merged is None:
            self._merged = QuantileSketch.merged(
                [rack.sketch for rack in self.racks]
            )
        return self._merged

    def sketch_percentile(self, q: float) -> float:
        """Constant-memory fleet percentile (bin-resolution accurate)."""
        return self.merged_sketch.percentile(q)

    @property
    def exact_latencies(self) -> np.ndarray:
        """Concatenated per-rack latency vectors (rack order).

        Only populated under ``keep_latencies=True``; raises otherwise —
        the whole point of the sketch path is that fleet-scale runs
        never materialise this.
        """
        kept = [rack.latencies for rack in self.racks]
        if any(vector is None for vector in kept):
            raise ConfigurationError(
                "exact latencies were not kept; run the fleet with "
                "keep_latencies=True (cross-check scale only)"
            )
        return np.concatenate(kept) if kept else np.empty(0)

    def exact_percentile(self, q: float) -> float:
        """Exact-mode percentile over the merged latency vectors.

        Uses the ``method="lower"`` order-statistic convention — the
        same rank :meth:`~repro.sim.stats.QuantileSketch.percentile`
        locates — so the two modes are comparable within the sketch's
        documented bin-resolution bound.
        """
        merged = np.sort(self.exact_latencies)
        if merged.size == 0:
            return float("nan")
        return float(np.percentile(merged, q, method="lower"))

    @property
    def fleet_hash(self) -> str:
        """One hash over every rack's check hash, in rack order."""
        return digest(
            *(
                part
                for rack in self.racks
                for part in (rack.name, rack.check_hash)
            )
        )

    def identical_to(self, other: "FleetResult") -> bool:
        """Bit-level agreement: every per-rack hash and the merged hash."""
        return (
            len(self.racks) == len(other.racks)
            and all(
                a.name == b.name
                and a.seed == b.seed
                and a.check_hash == b.check_hash
                for a, b in zip(self.racks, other.racks)
            )
            and self.fleet_hash == other.fleet_hash
        )

    def summary_row(self) -> Dict[str, object]:
        """Flat fleet-level record (the stitched headline)."""
        sketch = self.merged_sketch
        row: Dict[str, object] = {
            "scope": "fleet",
            "rack": "*",
            "racks": len(self.racks),
            "lb_policy": self.lb_policy,
            "workers": self.workers,
            "requests": self.total_requests,
            "completed": self.completed,
            "dropped": self.dropped,
            "availability": round(self.availability, 6),
            "mean_latency_s": round(sketch.mean, 6),
            "p50_latency_s": round(sketch.percentile(50.0), 6),
            "p95_latency_s": round(sketch.percentile(95.0), 6),
            "p99_latency_s": round(sketch.percentile(99.0), 6),
            "sketch_error_bound": round(sketch.relative_error_bound, 6),
            "fleet_hash": self.fleet_hash,
        }
        for reason, count in sorted(self.drop_breakdown().items()):
            row[f"dropped_{reason}"] = count
        return row


class FleetRunner:
    """Runs fleet topologies over shared suite contexts, sharded or serial.

    Every rack shard runs through one :class:`~repro.cluster.sweep.RackSweep`
    (without a service-sample cache: no two racks share a seed), so a
    fleet rack and a sweep cell are the same run.
    """

    def __init__(
        self,
        context,
        balancer: Optional[GlobalLoadBalancer] = None,
        sample_interval_seconds: float = 1.0,
        engine: str = "auto",
        keep_latencies: bool = False,
        priorities: Optional[Dict[str, int]] = None,
        chunk_requests: Optional[int] = None,
    ) -> None:
        self._sweep = RackSweep(
            context,
            sample_interval_seconds=sample_interval_seconds,
            engine=engine,
            reuse_service_samples=False,
            priorities=priorities,
            chunk_requests=chunk_requests,
        )
        self._streaming = engine == "streaming"
        if self._streaming and keep_latencies:
            raise ConfigurationError(
                "keep_latencies requires materialized latency "
                "vectors, which engine='streaming' never builds; "
                "use a materialized engine for cross-check runs"
            )
        self._context = context
        self._balancer = balancer or GlobalLoadBalancer()
        self._keep_latencies = keep_latencies

    @property
    def balancer(self) -> GlobalLoadBalancer:
        return self._balancer

    def _prepare(self, topology: FleetTopology) -> None:
        """Validate platforms and pre-compute worker-shared tables."""
        for spec in topology.racks:
            if spec.platform not in self._context.models:
                raise ConfigurationError(
                    f"rack {spec.name!r}: unknown platform "
                    f"{spec.platform!r}; context has "
                    f"{list(self._context.models)}"
                )
            if spec.policy == "sjf":
                # Warm the sweep's memo in the parent, before fan-out,
                # so every worker ships the identical estimate table.
                self._sweep._service_estimates(spec.platform)

    # ----------------------------------------------------------- workers
    def _run_shard(self, task: _RackTask) -> RackShardResult:
        """Simulate one rack's shard; runs in-process or in a worker."""
        scenario = task.scenario
        simulation, series = self._sweep.simulate(scenario, task.shard)
        rng_state = repr(simulation._rng.bit_generator.state)
        if self._streaming:
            check_hash = streamed_check_hash(series, rng_state)
            sketch = series.sketch
        else:
            check_hash = series_check_hash(series, rng_state)
            sketch = QuantileSketch().add(series.completed_latency_seconds)
        return RackShardResult(
            index=task.index,
            name=task.name,
            platform=scenario.platform,
            seed=scenario.seed,
            requests=series.total_requests,
            completed=series.completed_count,
            dropped=series.dropped_requests,
            drop_breakdown=series.drop_breakdown(),
            retries=series.retries,
            timeouts=series.timeouts,
            crash_kills=series.crash_kills,
            scale_ups=series.scale_ups,
            scale_downs=series.scale_downs,
            peak_queue=(
                int(series.queue_depth.max())
                if len(series.queue_depth)
                else 0
            ),
            wall_clock_seconds=series.wall_clock_seconds,
            mean_latency_seconds=series.mean_latency_seconds,
            check_hash=check_hash,
            sketch=sketch,
            latencies=(
                series.completed_latency_seconds
                if self._keep_latencies
                else None
            ),
        )

    # --------------------------------------------------------------- run
    def run(
        self,
        topology: FleetTopology,
        trace: RequestTrace,
        workers: Optional[int] = None,
    ) -> FleetResult:
        """Shard the trace, run every rack, stitch the fleet result.

        ``workers=None``/``1`` is the serial oracle stitch; ``workers=N``
        fans racks across a process pool.  Either way the shards, seeds,
        and per-rack results are identical — only wall-clock changes.
        """
        if workers is not None and workers < 1:
            raise ConfigurationError(f"non-positive worker count: {workers}")
        self._prepare(topology)
        shards = self._balancer.shard(trace, topology)
        tasks = [
            _RackTask(
                index=index,
                name=spec.name,
                scenario=RackScenario(
                    platform=spec.platform,
                    max_instances=spec.max_instances,
                    policy=spec.policy,
                    queue_depth=spec.queue_depth,
                    seed=topology.rack_seed(index),
                    faults=spec.faults,
                    retry=spec.retry,
                    control=spec.control,
                ),
                shard=shard,
            )
            for index, (spec, shard) in enumerate(
                zip(topology.racks, shards)
            )
        ]
        if workers is None or workers == 1 or len(tasks) == 1:
            results = [self._run_shard(task) for task in tasks]
            effective_workers = 1
        else:
            chunk = max(1, len(tasks) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(self._run_shard, tasks, chunksize=chunk)
                )
            effective_workers = workers
        return FleetResult(
            racks=results,
            lb_policy=self._balancer.policy,
            workers=effective_workers,
        )

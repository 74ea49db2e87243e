#!/usr/bin/env python
"""Benchmark the fig13-fleet study: sharded fleet vs the serial oracle stitch.

One fleet-level bursty trace is split across N racks by the global load
balancer, then run three ways:

- **sharded vectorized** (the fast engine) — racks fan out across a
  ``ProcessPoolExecutor`` of ``--workers`` processes, each rack on the
  materialized control kernel;
- **serial vectorized** — the same shards, same engine, one process
  (isolates the parallel-scaling component of the speedup); and
- **serial event-driven** (the oracle) — the same shards through the
  event-driven reference engine, one process.

All three must stitch to identical per-rack check hashes and the same
merged fleet hash — the sampled/sharded-vs-monolithic validation
discipline of *Memory Access Vectors*.  The recorded ``speedup`` is
oracle / sharded, the same oracle-vs-fast convention every other
``BENCH_*.json`` uses; ``parallel_speedup`` (serial vectorized /
sharded) isolates what the process pool contributed on this machine.

Usage::

    PYTHONPATH=src python scripts/bench_fleet.py [--racks N] [--workers W]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from bench_common import (
    build_record,
    check_workers,
    engine_record,
    timed,
    usable_cpus,
    write_record,
)

from repro.cluster.fleet import FleetTopology, GlobalLoadBalancer
from repro.cluster.fleet_engine import FleetRunner
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, build_context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--racks", type=int, default=16)
    parser.add_argument(
        "--workers",
        type=int,
        default=usable_cpus(),
        help="process-pool size for the sharded run (default: the usable "
        "CPUs; more is refused)",
    )
    parser.add_argument(
        "--rate-scale",
        type=float,
        default=6.0,
        help="scale on the fleet-level rate envelope",
    )
    parser.add_argument(
        "--max-instances", type=int, default=200, help="instances per rack"
    )
    parser.add_argument(
        "--lb-policy",
        default="round_robin",
        help="load-balancer policy (round_robin | weighted | hash_affinity)",
    )
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_fleet.json",
    )
    parser.add_argument(
        "--skip-event",
        action="store_true",
        help="only time the vectorized paths (no oracle, no speedup field)",
    )
    args = parser.parse_args(argv)
    check_workers(args.workers)

    context = build_context(platform_names=[BASELINE_NAME])
    envelope = tuple(r * args.rate_scale for r in DEFAULT_RATE_ENVELOPE)
    trace = TraceGenerator(
        context.app_names, rate_envelope=envelope
    ).generate(np.random.default_rng(args.seed))
    topology = FleetTopology.uniform(
        args.racks,
        BASELINE_NAME,
        max_instances=args.max_instances,
        seed=args.seed,
    )
    print(
        f"fig13-fleet study: {len(trace)} requests over "
        f"{trace.duration_seconds / 60:.0f} min, {args.racks} racks x "
        f"{args.max_instances} instances, lb={args.lb_policy}"
    )

    def runner(engine: str) -> FleetRunner:
        return FleetRunner(
            context,
            balancer=GlobalLoadBalancer(args.lb_policy),
            engine=engine,
        )

    work_items = len(trace)
    sharded, sharded_s = timed(
        lambda: runner("vectorized").run(
            topology, trace, workers=args.workers
        )
    )
    fast = engine_record(
        f"sharded vectorized fleet ({args.workers} workers)",
        sharded_s,
        work_items,
    )
    print(
        f"sharded ({args.workers}w): {sharded_s:8.2f}s  "
        f"({work_items / sharded_s:9.0f} req/s)"
    )

    serial_vec, serial_vec_s = timed(
        lambda: runner("vectorized").run(topology, trace, workers=1)
    )
    print(
        f"serial vectorized:  {serial_vec_s:8.2f}s  "
        f"({work_items / serial_vec_s:9.0f} req/s)"
    )
    if not sharded.identical_to(serial_vec):
        print(
            "ERROR: sharded run disagrees with the serial vectorized "
            "stitch — not recording",
            file=sys.stderr,
        )
        return 1

    oracle = None
    if not args.skip_event:
        serial_event, serial_event_s = timed(
            lambda: runner("event").run(topology, trace, workers=1)
        )
        oracle = engine_record(
            "serial event-driven oracle stitch", serial_event_s, work_items
        )
        print(
            f"serial event:       {serial_event_s:8.2f}s  "
            f"({work_items / serial_event_s:9.0f} req/s)"
        )
        if not sharded.identical_to(serial_event):
            print(
                "ERROR: sharded run disagrees with the serial event "
                "oracle stitch — not recording",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup vs oracle: {serial_event_s / sharded_s:.2f}x "
            "(per-rack + fleet hashes identical)"
        )

    record = build_record(
        benchmark="fig13_fleet_study",
        workload={
            "num_requests": len(trace),
            "racks": args.racks,
            "rate_scale": args.rate_scale,
            "max_instances": args.max_instances,
            "lb_policy": args.lb_policy,
            "platform": BASELINE_NAME,
            "shard_sizes": [
                rack.requests for rack in sharded.racks
            ],
            "dropped_requests": sharded.dropped,
            "fleet_p99_sketch_s": round(
                sharded.sketch_percentile(99.0), 6
            ),
        },
        fast=fast,
        oracle=oracle,
        check_hash=sharded.fleet_hash,
        workers=args.workers,
    )
    record["engines"]["serial_vectorized"] = engine_record(
        "serial vectorized stitch", serial_vec_s, work_items
    )
    record["parallel_speedup"] = round(serial_vec_s / sharded_s, 2)
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

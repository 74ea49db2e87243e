#!/usr/bin/env python
"""Benchmark the scheduling-policy engines: event-driven vs vectorized.

Runs the fig13-policy study grid — SJF / criticality / DAG-aware on both
platforms under a bursty trace — through

- the **event-driven** engine with the heap-backed ``KeyedQueue``
  policies (the reference oracle after the priority-key refactor),
- the **vectorized** rack kernel
  (``repro.cluster.control_engine.control_kernel``) — contention-free
  windows batched in numpy, congested stretches dispatched by a
  primitive-heap loop, or by the FCFS recurrence where the policy's
  keys tie (DAG on this suite).

The oracle and the vectorized engine must produce bit-identical series
(drops, latencies, queue depth, busy instances, RNG end state) on every
cell; the record is written in the shared ``bench_common`` schema to
``BENCH_policy.json``.  The two grids are timed as the median of three
alternating runs, so their figures do not move with the run window.
``--skip-event`` times the vectorized grid once.

Usage::

    PYTHONPATH=src python scripts/bench_policy.py [--rate-scale S] [--skip-event]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from bench_common import (
    build_record,
    digest,
    engine_record,
    timed,
    timed_alternating,
    write_record,
)

from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import RackSimulation
from repro.cluster.sweep import (
    default_criticality_priorities,
    service_estimates_for,
)
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

POLICIES = ("sjf", "criticality", "dag")


def make_factory(policy, context, estimates_by_platform, platform):
    """The exact policy configuration the fig13-policy sweep cells use."""
    if policy == "sjf":
        return PolicyFactory(
            "sjf", service_estimates=estimates_by_platform[platform]
        )
    if policy == "criticality":
        return PolicyFactory(
            "criticality",
            priorities=default_criticality_priorities(context),
        )
    return PolicyFactory("dag", applications=context.applications)


def run_cell(context, trace, engine, platform, factory, max_instances, seed):
    simulation = RackSimulation(
        context.models[platform],
        context.applications,
        max_instances=max_instances,
        seed=seed,
        policy=factory,
    )
    series = simulation.run(trace, engine=engine)
    return series, repr(simulation._rng.bit_generator.state)


def run_grid(context, trace, engine, estimates_by_platform, max_instances, seed):
    """The policy x platform grid under one engine."""
    out = {}
    for platform in (BASELINE_NAME, DSCS_NAME):
        for policy in POLICIES:
            factory = make_factory(
                policy, context, estimates_by_platform, platform
            )
            out[(platform, policy)] = run_cell(
                context, trace, engine, platform, factory, max_instances, seed
            )
    return out


def grid_digest(grid) -> str:
    parts = []
    for platform, policy in sorted(grid):
        series, _ = grid[(platform, policy)]
        parts.extend(
            [
                platform,
                policy,
                series.completed_latency_seconds.tobytes(),
                series.completed_times.tobytes(),
                series.queue_depth.tobytes(),
                series.busy_instances.tobytes(),
                series.dropped_requests,
                series.total_requests,
            ]
        )
    return digest(*parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rate-scale",
        type=float,
        default=0.5,
        help="scale factor on the paper's request-rate envelope",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        default=100,
        help="fleet size per platform (saturates the baseline at x0.5)",
    )
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_policy.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--skip-event",
        action="store_true",
        help="only time the vectorized engine (no oracle, no speedup field)",
    )
    args = parser.parse_args(argv)

    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    envelope = tuple(r * args.rate_scale for r in DEFAULT_RATE_ENVELOPE)
    generator = TraceGenerator(context.app_names, rate_envelope=envelope)
    trace = generator.generate(np.random.default_rng(args.seed))
    estimates_by_platform = {
        platform: service_estimates_for(context, platform)
        for platform in (BASELINE_NAME, DSCS_NAME)
    }
    cells = 2 * len(POLICIES)
    work_items = cells * len(trace)
    print(
        f"fig13-policy study: {len(trace)} requests x {cells} cells "
        f"({', '.join(POLICIES)} on both platforms), "
        f"{args.max_instances} instances"
    )

    def grid(engine):
        return lambda: run_grid(
            context,
            trace,
            engine,
            estimates_by_platform,
            args.max_instances,
            args.seed,
        )

    if args.skip_event:
        fast_grid, fast_s = timed(grid("vectorized"))
    else:
        (fast_grid, fast_s), (event_grid, event_s) = timed_alternating(
            grid("vectorized"), grid("event")
        )
    fast = engine_record("control kernel", fast_s, work_items)
    print(f"vectorized:   {fast_s:8.2f}s  ({work_items / fast_s:9.0f} req/s)")

    oracle = None
    if not args.skip_event:
        oracle = engine_record(
            "event-driven oracle (keyed-heap policies)", event_s, work_items
        )
        print(
            f"event-driven: {event_s:8.2f}s  ({work_items / event_s:9.0f} req/s)"
        )

        identical = all(
            event_grid[cell][0].identical_to(fast_grid[cell][0])
            and event_grid[cell][1] == fast_grid[cell][1]
            for cell in event_grid
        )
        if not identical:
            print("ERROR: engines disagree — not recording", file=sys.stderr)
            return 1
        print(
            f"speedup: {round(event_s / fast_s, 2)}x (results bit-identical)"
        )

    record = build_record(
        benchmark="fig13_policy_study",
        workload={
            "num_requests": len(trace),
            "cells": cells,
            "policies": list(POLICIES),
            "rate_scale": args.rate_scale,
            "max_instances": args.max_instances,
            "platforms": [BASELINE_NAME, DSCS_NAME],
        },
        fast=fast,
        oracle=oracle,
        check_hash=grid_digest(fast_grid),
    )
    record["workload"]["peak_queue"] = {
        f"{platform}/{policy}": int(series.queue_depth.max())
        for (platform, policy), (series, _) in fast_grid.items()
    }
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

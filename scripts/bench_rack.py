#!/usr/bin/env python
"""Benchmark the Fig. 13 at-scale study: event-driven vs vectorized rack engine.

Runs the paper's full 20-minute bursty trace (both platforms, 200
instances, queue depth 10,000) through

- the **event-driven** engine — one Python callback per arrival,
  completion, and sample tick (the reference oracle), and
- the **vectorized** engine — the rack kernel,
  ``repro.cluster.control_engine.control_kernel``, whose FIFO
  recurrence serves FCFS over windows (pass B) and, near the
  admission limit the Baseline rack reaches, serial steps (pass C) —

checks the two produce bit-identical series (drops, latencies, queue
depth, busy instances, RNG end state), and writes the shared
``bench_common`` schema to ``BENCH_rack.json`` so future PRs can track
the trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_rack.py [--rate-scale S]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from bench_common import (
    build_record,
    engine_record,
    series_digest,
    timed,
    write_record,
)

from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context


def run_study(context, trace, engine, max_instances, seed):
    """Run the two-platform Fig. 13 study under one engine.

    Returns the per-platform series and per-platform RNG end states (the
    engines must consume the RNG identically, not just produce the same
    series).
    """
    series = {}
    rng_states = {}
    for name in (BASELINE_NAME, DSCS_NAME):
        simulation = RackSimulation(
            context.models[name],
            context.applications,
            max_instances=max_instances,
            seed=seed,
        )
        series[name] = simulation.run(trace, engine=engine)
        rng_states[name] = repr(simulation._rng.bit_generator.state)
    return series, rng_states


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rate-scale",
        type=float,
        default=1.0,
        help="scale factor on the paper's request-rate envelope",
    )
    parser.add_argument(
        "--max-instances",
        type=int,
        default=200,
        help="fleet size per platform (paper: 200)",
    )
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_rack.json",
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
    print(
        f"fig13 at-scale study: {len(trace)} requests over "
        f"{trace.duration_seconds / 60:.0f} min, both platforms, "
        f"{args.max_instances} instances"
    )

    work_items = 2 * len(trace)  # requests x platforms
    (fast_series, fast_rng), fast_s = timed(
        lambda: run_study(
            context, trace, "vectorized", args.max_instances, args.seed
        )
    )
    fast = engine_record(
        "control kernel, FCFS (FIFO recurrence)", fast_s, work_items
    )
    print(f"vectorized:   {fast_s:8.2f}s  ({work_items / fast_s:9.0f} req/s)")

    oracle = None
    if not args.skip_event:
        (event_series, event_rng), event_s = timed(
            lambda: run_study(
                context, trace, "event", args.max_instances, args.seed
            )
        )
        oracle = engine_record(
            "event-driven oracle (seed path)", event_s, work_items
        )
        print(f"event-driven: {event_s:8.2f}s  ({work_items / event_s:9.0f} req/s)")

        identical = all(
            event_series[name].identical_to(fast_series[name])
            for name in event_series
        ) and event_rng == fast_rng
        if not identical:
            print("ERROR: engines disagree — not recording", file=sys.stderr)
            return 1
        print(
            f"speedup: {round(event_s / fast_s, 2)}x (results bit-identical)"
        )

    record = build_record(
        benchmark="fig13_at_scale_study",
        workload={
            "num_requests": len(trace),
            "rate_scale": args.rate_scale,
            "max_instances": args.max_instances,
            "platforms": [BASELINE_NAME, DSCS_NAME],
        },
        fast=fast,
        oracle=oracle,
        check_hash=series_digest(fast_series),
    )
    if oracle is not None:
        record["workload"]["dropped_requests"] = {
            name: series.dropped_requests
            for name, series in fast_series.items()
        }
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

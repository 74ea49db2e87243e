#!/usr/bin/env python
"""Benchmark fault/retry runs against their oracle under faults.

Runs the paper's full 20-minute bursty trace (both platforms, 200
instances) with a mild fault schedule (instance churn + slowdown
windows) and a retry policy (queue timeouts, bounded retries) through

- the **event-driven oracle** — the control oracle with an inert
  plane: one handler call per arrival, retry re-arrival, timeout timer,
  capacity event, and completion, and
- the **control kernel with an inert plane**
  (``run_chaos_vectorized``) — pass-A windows while servers are free,
  the FIFO pass on a congested FCFS rack, the keyed dispatch otherwise —

checks the two are bit-identical (series, drop reasons, retry/timeout/
kill counters, RNG end state), and writes the shared ``bench_common``
schema to ``BENCH_faults.json``.  Each engine's wall clock is the
median of three alternating runs, so the recorded speedup does not move
with the run window; ``--skip-event`` times the kernel once.  A
separate ``zero_fault_overhead`` section times the fault-free engine
with inert fault objects attached against the study with none (the
same alternation), pinning the zero-fault cost of the availability
layer at (near) zero.

Usage::

    PYTHONPATH=src python scripts/bench_faults.py [--rate-scale S]
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
    timed_alternating,
    write_record,
)

from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

# Mild, paper-plausible churn: each instance fails about four times an
# hour and repairs in half a minute; transient slowdowns once a minute.
FAULTS = FaultSchedule(
    instance_mtbf_seconds=900.0,
    instance_mttr_seconds=30.0,
    slowdown_rate_per_minute=1.0,
    slowdown_multiplier=2.0,
    slowdown_duration_seconds=5.0,
    seed=404,
)
RETRY = RetryPolicy(timeout_seconds=5.0, max_retries=2)


def run_study(context, trace, engine, max_instances, seed, faults, retry):
    """Run the two-platform chaos study under one engine."""
    series = {}
    rng_states = {}
    for name in (BASELINE_NAME, DSCS_NAME):
        simulation = RackSimulation(
            context.models[name],
            context.applications,
            max_instances=max_instances,
            seed=seed,
            faults=faults,
            retry=retry,
        )
        series[name] = simulation.run(trace, engine=engine)
        rng_states[name] = repr(simulation._rng.bit_generator.state)
    return series, rng_states


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate-scale", type=float, default=1.0)
    parser.add_argument("--max-instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_faults.json",
    )
    parser.add_argument(
        "--skip-event",
        action="store_true",
        help="only time the control kernel (no oracle)",
    )
    args = parser.parse_args(argv)

    context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
    envelope = tuple(r * args.rate_scale for r in DEFAULT_RATE_ENVELOPE)
    generator = TraceGenerator(context.app_names, rate_envelope=envelope)
    trace = generator.generate(np.random.default_rng(args.seed))
    print(
        f"chaos study: {len(trace)} requests over "
        f"{trace.duration_seconds / 60:.0f} min, both platforms, "
        f"{args.max_instances} instances, instance MTBF "
        f"{FAULTS.instance_mtbf_seconds:.0f}s"
    )

    def study(engine):
        return lambda: run_study(
            context, trace, engine, args.max_instances, args.seed,
            FAULTS, RETRY,
        )

    work_items = 2 * len(trace)
    if args.skip_event:
        (fast_series, fast_rng), fast_s = timed(study("vectorized"))
    else:
        (
            ((fast_series, fast_rng), fast_s),
            ((event_series, event_rng), event_s),
        ) = timed_alternating(study("vectorized"), study("event"))
    fast = engine_record(
        "control kernel, inert plane", fast_s, work_items
    )
    print(f"vectorized:   {fast_s:8.2f}s  ({work_items / fast_s:9.0f} req/s)")

    oracle = None
    if not args.skip_event:
        oracle = engine_record(
            "event-driven control oracle, inert plane", event_s, work_items
        )
        print(
            f"event-driven: {event_s:8.2f}s  "
            f"({work_items / event_s:9.0f} req/s)"
        )
        identical = all(
            event_series[name].identical_to(fast_series[name])
            for name in event_series
        ) and event_rng == fast_rng
        if not identical:
            print("ERROR: kernel and oracle disagree — not recording",
                  file=sys.stderr)
            return 1
        print(
            f"speedup: {round(event_s / fast_s, 2)}x (results bit-identical)"
        )

    # Zero-fault overhead: the same study with inert fault objects must
    # route to (and run at the speed of) the fault-free fast engine,
    # timed against the study with none attached.
    def fault_free(faults, retry):
        return lambda: run_study(
            context, trace, "vectorized", args.max_instances, args.seed,
            faults, retry,
        )

    (_, clean_s), (_, plain_s) = timed_alternating(
        fault_free(FaultSchedule(), RetryPolicy()),
        fault_free(None, None),
        runs=1 if args.skip_event else 3,
    )
    print(
        f"zero-fault:   {clean_s:8.2f}s  "
        f"({work_items / clean_s:9.0f} req/s, inert config; "
        f"{plain_s:.2f}s with none)"
    )

    record = build_record(
        benchmark="chaos_at_scale_study",
        workload={
            "num_requests": len(trace),
            "rate_scale": args.rate_scale,
            "max_instances": args.max_instances,
            "platforms": [BASELINE_NAME, DSCS_NAME],
            "faults": {
                "instance_mtbf_s": FAULTS.instance_mtbf_seconds,
                "instance_mttr_s": FAULTS.instance_mttr_seconds,
                "slowdown_rate_per_minute": FAULTS.slowdown_rate_per_minute,
                "fault_seed": FAULTS.seed,
            },
            "retry": {
                "timeout_s": RETRY.timeout_seconds,
                "max_retries": RETRY.max_retries,
            },
            "telemetry": {
                name: {
                    "dropped": series.dropped_requests,
                    "drop_breakdown": series.drop_breakdown(),
                    "retries": series.retries,
                    "timeouts": series.timeouts,
                    "crash_kills": series.crash_kills,
                    "availability": round(series.availability, 6),
                }
                for name, series in fast_series.items()
            },
        },
        fast=fast,
        oracle=oracle,
        check_hash=series_digest(fast_series),
    )
    record["zero_fault_overhead"] = {
        "wall_clock_s": round(clean_s, 3),
        "per_second": round(work_items / clean_s, 2),
        "unconfigured_wall_clock_s": round(plain_s, 3),
    }
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

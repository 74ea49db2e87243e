#!/usr/bin/env python
"""Benchmark the control engines: event-driven vs vectorized closed loop.

Runs the paper's full 20-minute bursty trace (both platforms, 200
instances) with the closed-loop control plane engaged — reactive
target-utilization autoscaling (warmup-delayed scale-ups, graceful
scale-downs) plus a CoDel queue-delay shedder — composed with the mild
chaos schedule of ``bench_faults.py`` (instance churn + slowdowns +
retries), through

- the **event-driven control oracle** — one callback per arrival,
  control tick, warmup activation, fault event, timer, and completion,
  and
- the **control kernel** — pass-A windows and the FIFO pass cut at
  fault and control events, with the admission gate applied in
  batches —

checks the two are bit-identical (series incl. live-capacity and
per-app completion records, ``shed`` drops, RNG end state), and writes
the shared ``bench_common`` schema to ``BENCH_autoscale.json``.  Each
engine's wall clock is the median of three alternating runs, so the
recorded speedup does not move with the run window; ``--skip-event``
times the kernel once.  A separate ``zero_control_overhead`` section
times the same chaos study with an inert ``ControlPlane()`` attached
against the study with none (the same alternation), pinning the cost
of the control layer at zero until it is enabled.

Usage::

    PYTHONPATH=src python scripts/bench_autoscale.py [--rate-scale S]
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

from repro.cluster.control import (
    AutoscalerPolicy,
    ControlPlane,
    OverloadPolicy,
)
from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.simulation import RackSimulation
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context

# The same mild churn as bench_faults.py, so the two benchmarks isolate
# exactly the closed-loop layer.
FAULTS = FaultSchedule(
    instance_mtbf_seconds=900.0,
    instance_mttr_seconds=30.0,
    slowdown_rate_per_minute=1.0,
    slowdown_multiplier=2.0,
    slowdown_duration_seconds=5.0,
    seed=404,
)
RETRY = RetryPolicy(timeout_seconds=5.0, max_retries=2)
PLANE = ControlPlane(
    autoscaler=AutoscalerPolicy(
        policy="target_utilization",
        min_instances=20,
        warmup_seconds=2.5,
        scale_down_cooldown_seconds=30.0,
    ),
    overload=OverloadPolicy(queue_delay_target_seconds=0.5),
)


def run_study(context, trace, engine, max_instances, seed, control):
    """Run the two-platform closed-loop study under one engine."""
    series = {}
    rng_states = {}
    for name in (BASELINE_NAME, DSCS_NAME):
        simulation = RackSimulation(
            context.models[name],
            context.applications,
            max_instances=max_instances,
            seed=seed,
            faults=FAULTS,
            retry=RETRY,
            control=control,
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
        default=Path(__file__).resolve().parent.parent
        / "BENCH_autoscale.json",
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
        f"closed-loop study: {len(trace)} requests over "
        f"{trace.duration_seconds / 60:.0f} min, both platforms, "
        f"{args.max_instances} instance ceiling, "
        f"{PLANE.autoscaler.min_instances} floor, churn + shedding"
    )

    def study(engine):
        return lambda: run_study(
            context, trace, engine, args.max_instances, args.seed, PLANE
        )

    work_items = 2 * len(trace)
    if args.skip_event:
        (fast_series, fast_rng), fast_s = timed(study("vectorized"))
    else:
        (
            ((fast_series, fast_rng), fast_s),
            ((event_series, event_rng), event_s),
        ) = timed_alternating(study("vectorized"), study("event"))
    fast = engine_record("control kernel", fast_s, work_items)
    print(f"vectorized:   {fast_s:8.2f}s  ({work_items / fast_s:9.0f} req/s)")

    oracle = None
    if not args.skip_event:
        oracle = engine_record(
            "event-driven control oracle", event_s, work_items
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
            print("ERROR: control engines disagree — not recording",
                  file=sys.stderr)
            return 1
        print(
            f"speedup: {round(event_s / fast_s, 2)}x (results bit-identical)"
        )

    # Zero-control overhead: the same chaos study with an inert plane
    # runs the control kernel with no decision ticks, at the speed of a
    # plain fault/retry run (timed against one with no plane attached).
    def chaos(control):
        return lambda: run_study(
            context, trace, "vectorized", args.max_instances, args.seed,
            control,
        )

    (_, inert_s), (_, plain_s) = timed_alternating(
        chaos(ControlPlane()), chaos(None), runs=1 if args.skip_event else 3
    )
    print(
        f"inert plane:  {inert_s:8.2f}s  "
        f"({work_items / inert_s:9.0f} req/s, inert plane; "
        f"{plain_s:.2f}s with none)"
    )

    record = build_record(
        benchmark="closed_loop_control_study",
        workload={
            "num_requests": len(trace),
            "rate_scale": args.rate_scale,
            "max_instances": args.max_instances,
            "platforms": [BASELINE_NAME, DSCS_NAME],
            "autoscaler": {
                "policy": PLANE.autoscaler.policy,
                "min_instances": PLANE.autoscaler.min_instances,
                "warmup_s": PLANE.autoscaler.warmup_seconds,
            },
            "overload": {
                "queue_delay_target_s": (
                    PLANE.overload.queue_delay_target_seconds
                ),
            },
            "faults": {
                "instance_mtbf_s": FAULTS.instance_mtbf_seconds,
                "fault_seed": FAULTS.seed,
            },
            "telemetry": {
                name: {
                    "dropped": series.dropped_requests,
                    "drop_breakdown": series.drop_breakdown(),
                    "scale_ups": series.scale_ups,
                    "scale_downs": series.scale_downs,
                    "live_mean": round(
                        float(series.live_instances.mean()), 2
                    ),
                    "live_peak": int(series.live_instances.max()),
                    "availability": round(series.availability, 6),
                }
                for name, series in fast_series.items()
            },
        },
        fast=fast,
        oracle=oracle,
        check_hash=series_digest(fast_series),
    )
    record["zero_control_overhead"] = {
        "wall_clock_s": round(inert_s, 3),
        "per_second": round(work_items / inert_s, 2),
        "unconfigured_wall_clock_s": round(plain_s, 3),
    }
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

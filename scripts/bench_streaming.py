#!/usr/bin/env python
"""Benchmark the streaming engine: constant peak memory, materialized speed.

Grows the Fig. 13 workload by tiling the rate envelope (x1 / x10 / x100
duration, same per-segment rate) and runs each size twice:

- **memory runs** (under ``tracemalloc``, never timed): the streaming
  engine consumes a :class:`~repro.cluster.trace.StreamedTrace` — no
  whole-trace arrays anywhere — while the materialized run generates the
  full trace and runs the vectorized engine.  The sample interval is
  tiled with the envelope so the tick grid stays constant: what's left
  is the engine's working set, which must stay flat (within 2x across
  the 100x growth) for streaming and grows linearly for materialized.
- **timing runs** (untraced, largest size only): both engines on the
  identical materialized trace, each side timed as the median of
  alternating runs; streaming throughput must hold >= 80% of the
  vectorized engine.

Every size also asserts bit-identity: the streamed series must equal
``StreamedSeries.from_series(materialized)`` and leave the same RNG end
state.  The record is written in the shared ``bench_common`` schema to
``BENCH_streaming.json``.

Usage::

    PYTHONPATH=src python scripts/bench_streaming.py [--fast]
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

import numpy as np

from bench_common import (
    build_record,
    engine_record,
    timed,
    traced_peak,
    write_record,
)

from repro.cluster.fleet_engine import streamed_check_hash
from repro.cluster.simulation import RackSimulation
from repro.cluster.streaming import StreamedSeries
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, TraceGenerator
from repro.experiments.common import BASELINE_NAME, build_context

BASE_SAMPLE_INTERVAL = 1.0
SEGMENT_SECONDS = 60.0
# Timed runs per side for the throughput ratio: one sample per side
# lets run-order effects decide the 0.8x floor.
THROUGHPUT_RUNS = 9


def make_generator(context, rate_scale, tiles):
    envelope = tuple(
        rate * rate_scale for rate in DEFAULT_RATE_ENVELOPE
    ) * tiles
    return TraceGenerator(
        context.app_names,
        rate_envelope=envelope,
        segment_seconds=SEGMENT_SECONDS,
    )


def make_sim(context, max_instances, seed):
    return RackSimulation(
        context.models[BASELINE_NAME],
        context.applications,
        max_instances=max_instances,
        seed=seed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rate-scale",
        type=float,
        default=0.05,
        help="scale factor on the paper's request-rate envelope",
    )
    parser.add_argument(
        "--max-instances", type=int, default=20, help="fleet size"
    )
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument(
        "--chunk-requests",
        type=int,
        default=8192,
        help="streaming chunk size (requests per bounded chunk)",
    )
    parser.add_argument(
        "--tiles",
        type=int,
        nargs="+",
        default=[1, 10, 100],
        help="envelope tilings (trace-growth factors) to sweep",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI-scale run: x1/x10 growth at a lighter rate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_streaming.json",
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)
    if args.fast:
        args.tiles = [1, 10]
        args.rate_scale = min(args.rate_scale, 0.02)

    context = build_context(platform_names=[BASELINE_NAME])
    tiles = sorted(set(int(t) for t in args.tiles))
    memory_rows = []
    last = {}
    for tile in tiles:
        generator = make_generator(context, args.rate_scale, tile)
        interval = BASE_SAMPLE_INTERVAL * tile

        def stream_run():
            sim = make_sim(context, args.max_instances, args.seed)
            source = generator.stream(np.random.default_rng(args.seed))
            series = sim.run(
                source,
                interval,
                engine="streaming",
                chunk_requests=args.chunk_requests,
            )
            return sim, series

        def materialized_run():
            sim = make_sim(context, args.max_instances, args.seed)
            trace = generator.generate(np.random.default_rng(args.seed))
            return sim, sim.run(trace, interval, engine="vectorized")

        (stream_sim, streamed), stream_peak = traced_peak(stream_run)
        (mat_sim, mat), mat_peak = traced_peak(materialized_run)
        reference = StreamedSeries.from_series(mat)
        if not streamed.identical_to(reference):
            print(f"ERROR: x{tile} series disagree", file=sys.stderr)
            return 1
        if repr(stream_sim._rng.bit_generator.state) != repr(
            mat_sim._rng.bit_generator.state
        ):
            print(f"ERROR: x{tile} RNG end states disagree", file=sys.stderr)
            return 1
        memory_rows.append(
            {
                "tile": tile,
                "requests": streamed.total_requests,
                "streaming_peak_bytes": stream_peak,
                "materialized_peak_bytes": mat_peak,
            }
        )
        last = {
            "tile": tile,
            "generator": generator,
            "interval": interval,
            "streamed": streamed,
            "stream_sim": stream_sim,
        }
        print(
            f"x{tile:>3}: {streamed.total_requests:>9} requests  "
            f"streaming peak {stream_peak / 1e6:8.1f} MB  "
            f"materialized peak {mat_peak / 1e6:8.1f} MB"
        )

    peaks = [row["streaming_peak_bytes"] for row in memory_rows]
    growth = max(peaks) / min(peaks)
    flat = growth <= 2.0
    print(
        f"streaming peak growth across x{tiles[0]}..x{tiles[-1]}: "
        f"{growth:.2f}x ({'flat' if flat else 'NOT FLAT'})"
    )
    if not flat:
        print("ERROR: streaming peak memory not flat", file=sys.stderr)
        return 1

    # ---- throughput, largest size, identical materialized trace ------
    generator = last["generator"]
    interval = last["interval"]
    trace = generator.generate(np.random.default_rng(args.seed))

    def materialized():
        return make_sim(context, args.max_instances, args.seed).run(
            trace, interval, engine="vectorized"
        )

    def streamed():
        return make_sim(context, args.max_instances, args.seed).run(
            trace,
            interval,
            engine="streaming",
            chunk_requests=args.chunk_requests,
        )

    seconds = {materialized: [], streamed: []}
    results = {}
    for run in range(THROUGHPUT_RUNS):
        # Alternate which side goes first so run order cancels out.
        order = (materialized, streamed)
        for side in order if run % 2 == 0 else order[::-1]:
            results.pop(side, None)  # one result per side in memory
            results[side], wall = timed(side)
            seconds[side].append(wall)
    mat_series, streamed2 = results[materialized], results[streamed]
    mat_s = statistics.median(seconds[materialized])
    stream_s = statistics.median(seconds[streamed])
    if not streamed2.identical_to(StreamedSeries.from_series(mat_series)):
        print("ERROR: timing-run series disagree", file=sys.stderr)
        return 1
    n = len(trace)
    ratio = (n / stream_s) / (n / mat_s)
    print(
        f"throughput x{last['tile']}: vectorized {n / mat_s:9.0f} req/s, "
        f"streaming {n / stream_s:9.0f} req/s ({ratio:.2f}x)"
    )
    if ratio < 0.8:
        print(
            f"ERROR: streaming throughput {ratio:.2f}x below the 0.8x "
            "floor",
            file=sys.stderr,
        )
        return 1

    record = build_record(
        benchmark="streaming_constant_memory",
        workload={
            "num_requests": int(n),
            "rate_scale": args.rate_scale,
            "max_instances": args.max_instances,
            "chunk_requests": args.chunk_requests,
            "tiles": tiles,
            "platform": BASELINE_NAME,
            "policy": "fcfs",
        },
        fast=engine_record(
            "streaming chunked engine",
            stream_s,
            n,
            peak_mem_bytes=memory_rows[-1]["streaming_peak_bytes"],
        ),
        oracle=engine_record(
            "vectorized busy-period engine",
            mat_s,
            n,
            peak_mem_bytes=memory_rows[-1]["materialized_peak_bytes"],
        ),
        check_hash=streamed_check_hash(
            last["streamed"],
            repr(last["stream_sim"]._rng.bit_generator.state),
        ),
    )
    record["memory"] = memory_rows
    record["streaming_peak_growth"] = round(growth, 3)
    record["throughput_ratio"] = round(ratio, 3)
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

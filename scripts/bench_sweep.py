#!/usr/bin/env python
"""Benchmark the fig07 DSE sweep: seed-equivalent scalar path vs fast path.

Runs the same candidate set (the fig07 square-array sweep by default, or
the full >650-point space with ``--full``) through

- the **scalar** engine with cold compiles — the seed's behaviour — and
- the **fast** path — cross-sweep program cache + vectorized packed
  engine, optionally with a process pool (``--workers N``) —

checks the two produce identical results, and writes the shared
``bench_common`` schema to ``BENCH_sweep.json`` so future PRs can track
the perf trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_sweep.py [--full] [--workers N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench_common import (
    build_record,
    digest,
    engine_record,
    timed,
    write_record,
)

from repro.dse.explorer import DSEExplorer
from repro.dse.space import design_space


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="sweep the full (>650 point) space instead of the fig07 "
        "square-array subset",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for the fast sweep (default: serial)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sweep.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--skip-scalar",
        action="store_true",
        help="only time the fast path (no baseline, no speedup field)",
    )
    args = parser.parse_args(argv)

    configs = design_space(square_only=not args.full)
    print(
        f"sweeping {len(configs)} design points "
        f"({'full' if args.full else 'fig07 square-only'} space)"
    )

    fast_explorer = DSEExplorer()
    fast_results, fast_s = timed(
        lambda: fast_explorer.sweep(configs, workers=args.workers)
    )
    fast = engine_record(
        "packed + program cache"
        + (f" + {args.workers} workers" if args.workers else ""),
        fast_s,
        len(configs),
    )
    print(f"fast path:   {fast_s:8.2f}s  ({len(configs) / fast_s:6.1f} configs/s)")

    oracle = None
    if not args.skip_scalar:
        scalar_explorer = DSEExplorer(engine="scalar")
        scalar_results, scalar_s = timed(
            lambda: scalar_explorer.sweep(configs)
        )
        oracle = engine_record(
            "scalar interpreter, cold compiles (seed path)", scalar_s, len(configs)
        )
        print(
            f"scalar path: {scalar_s:8.2f}s  "
            f"({len(configs) / scalar_s:6.1f} configs/s)"
        )
        if scalar_results != fast_results:
            print("ERROR: engines disagree — not recording", file=sys.stderr)
            return 1
        print(f"speedup: {round(scalar_s / fast_s, 2)}x (results identical)")

    record = build_record(
        benchmark="fig07_dse_sweep",
        workload={
            "space": "full" if args.full else "square_only",
            "num_configs": len(configs),
        },
        fast=fast,
        oracle=oracle,
        check_hash=digest(fast_results),
        workers=args.workers,
    )
    write_record(args.output, record)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Perf harness: scalar (seed-equivalent) vs packed DSE sweep engines.

Times the same design-point sweep through the seed's path — cold compile
per config, scalar instruction interpreter — and through the fast path —
cross-sweep program cache plus the vectorized packed engine — and checks
both that the results are identical and that the fast path actually wins.
``scripts/bench_sweep.py`` runs the full fig07 sweep and records the
trajectory in ``BENCH_sweep.json``.
"""

import time

from conftest import print_table

from repro.dse.explorer import DSEExplorer
from repro.dse.space import design_space
from repro.models.zoo import mlp, resnet50


def _eval_models():
    return [resnet50(), mlp()]


def _bench_configs():
    # A slice of the square sweep: every memory tech at three geometries.
    space = design_space(square_only=True)
    return [c for c in space if c.pe_rows in (32, 128, 512)]


def _timed_sweep(explorer, configs):
    start = time.perf_counter()
    results = explorer.sweep(configs)
    return results, time.perf_counter() - start


def test_packed_sweep_beats_scalar(benchmark):
    configs = _bench_configs()
    scalar_explorer = DSEExplorer(eval_models=_eval_models(), engine="scalar")
    fast_explorer = DSEExplorer(eval_models=_eval_models())

    scalar_results, scalar_s = _timed_sweep(scalar_explorer, configs)
    fast_results, fast_s = benchmark.pedantic(
        lambda: _timed_sweep(fast_explorer, configs), rounds=1, iterations=1
    )

    assert scalar_results == fast_results  # bit-identical evaluations
    speedup = scalar_s / fast_s if fast_s > 0 else float("inf")
    print_table(
        f"DSE sweep engines ({len(configs)} configs x "
        f"{len(_eval_models())} models)",
        [
            {
                "engine": "scalar (seed path)",
                "wall_s": round(scalar_s, 3),
                "configs/s": round(len(configs) / scalar_s, 2),
            },
            {
                "engine": "packed + program cache",
                "wall_s": round(fast_s, 3),
                "configs/s": round(len(configs) / fast_s, 2),
            },
        ],
    )
    print(f"speedup: {speedup:.1f}x")
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 2)
    # Loose bound so CI variance cannot flake; BENCH_sweep.json records the
    # real (order-of-magnitude) figure on the full fig07 sweep.
    assert speedup > 1.5

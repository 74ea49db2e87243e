"""Fig. 14: sensitivity to batch size (1-64)."""

import pytest
from conftest import print_table

from repro.experiments import fig14
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context


@pytest.fixture(scope="module")
def two_platforms():
    """Baseline and DSCS only: the speedups read no other platform, and
    each platform seeds its own sampling RNG, so the other five would
    only add sampling time."""
    return build_context(platform_names=[BASELINE_NAME, DSCS_NAME])


def test_fig14_batch_size(benchmark, two_platforms):
    study = benchmark.pedantic(
        fig14.run, kwargs={"count": 2000, "context": two_platforms},
        rounds=1, iterations=1,
    )
    rows = []
    for batch in study.batches:
        row = {"batch": batch}
        row.update(
            {name[:18]: round(v, 2) for name, v in study.speedups[batch].items()}
        )
        row["geomean"] = round(study.geomean(batch), 2)
        rows.append(row)
    print_table("Fig. 14: DSCS speedup vs batch size", rows)
    print(
        f"batch 1: {study.geomean(1):.2f} (paper 3.6); "
        f"batch 64: {study.geomean(64):.2f} (paper 15.8)"
    )
    values = [study.geomean(b) for b in study.batches]
    assert values == sorted(values)  # monotone growth
    assert study.geomean(64) > 2.5 * study.geomean(1)
    benchmark.extra_info["batch1"] = round(study.geomean(1), 3)
    benchmark.extra_info["batch64"] = round(study.geomean(64), 3)

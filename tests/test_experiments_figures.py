"""Integration tests: every figure harness reproduces the paper's shape.

These assert orderings, crossovers, and rough magnitudes — the reproduction
contract — with reduced sample counts so the suite stays fast.  The full
runs live in benchmarks/.
"""

import numpy as np
import pytest

from repro.experiments import (
    calibration,
    fig03,
    fig04,
    fig09,
    fig11,
    fig12,
    fig14,
    fig15,
    fig16,
    fig17,
)
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context


@pytest.fixture(scope="module")
def context():
    return build_context()


@pytest.fixture(scope="module")
def speedups(context):
    return fig09.run(count=800, context=context)


class TestFig03:
    @pytest.fixture(scope="class")
    def cdfs(self):
        return fig03.run(samples=4000)

    def test_all_benchmarks_present(self, cdfs):
        assert len(cdfs) == 8

    def test_reads_in_paper_band(self, cdfs):
        for result in cdfs.values():
            assert 0.01 < result.median < 0.25

    def test_tail_ratio_near_paper(self, cdfs):
        ratio = fig03.average_tail_ratio(cdfs)
        assert 1.5 < ratio < 2.8  # paper: ~2.1

    def test_cdf_monotone(self, cdfs):
        for result in cdfs.values():
            assert np.all(np.diff(result.values) >= 0)
            assert result.probabilities[-1] == pytest.approx(1.0)

    def test_larger_inputs_read_slower(self, cdfs):
        assert (
            cdfs["PPE Detection"].median
            > cdfs["Conversational Chatbot"].median
        )


class TestFig04:
    @pytest.fixture(scope="class")
    def shares(self):
        return fig04.run(averages_of=16)

    def test_communication_dominates_on_average(self, shares):
        avg = fig04.average_communication_share(shares)
        assert avg > calibration.PAPER_MIN_AVG_COMMUNICATION_SHARE

    def test_high_comm_benchmarks(self, shares):
        # Paper: >= 0.70; our system-stack constant is slightly larger, so
        # the three data-heavy benchmarks sit a few points lower.
        for name in calibration.PAPER_HIGH_COMM_BENCHMARKS:
            assert shares[name].communication > 0.60
        # They remain the three most communication-bound workloads apart
        # from Remote Sensing.
        ranked = sorted(shares, key=lambda n: shares[n].communication, reverse=True)
        assert set(calibration.PAPER_HIGH_COMM_BENCHMARKS) <= set(ranked[:4])

    def test_amdahl_cap_near_paper(self, shares):
        cap = fig04.average_compute_cap(shares)
        assert 1.2 < cap < 1.8  # paper: 1.52

    def test_shares_sum_to_one(self, shares):
        for result in shares.values():
            total = result.compute + result.communication + result.system_stack
            assert total == pytest.approx(1.0, abs=0.02)


class TestFig09:
    def test_dscs_speedup_near_paper(self, speedups):
        geomean = speedups.geomean(DSCS_NAME)
        assert 3.0 < geomean < 4.5  # paper: 3.6

    def test_dscs_beats_every_other_platform(self, speedups):
        dscs = speedups.geomean(DSCS_NAME)
        for platform in speedups.speedups:
            if platform != DSCS_NAME:
                assert dscs > speedups.geomean(platform)

    def test_gpu_capped_by_communication(self, speedups):
        # Fig. 4's Amdahl bound: GPU gains stay well below its raw
        # compute advantage.
        assert speedups.geomean("GPU") < 1.6

    def test_fpga_and_ns_arm_near_or_below_baseline(self, speedups):
        # Paper: both slightly below 1.0; ours land within ~15% of parity.
        assert speedups.geomean("FPGA") < 1.1
        assert speedups.geomean("NS-ARM") < 1.25

    def test_ns_fpga_second_best(self, speedups):
        ns_fpga = speedups.geomean("NS-FPGA")
        others = [
            speedups.geomean(p)
            for p in speedups.speedups
            if p not in (DSCS_NAME, "NS-FPGA")
        ]
        assert all(ns_fpga > o for o in others)

    def test_relative_ratios_near_paper(self, speedups):
        assert 2.2 < speedups.relative(DSCS_NAME, "GPU") < 4.0  # paper 2.7
        assert 1.3 < speedups.relative(DSCS_NAME, "NS-FPGA") < 2.2  # paper 1.7
        assert 2.8 < speedups.relative(DSCS_NAME, "NS-ARM") < 5.0  # paper 3.7

    def test_credit_risk_least_dscs_speedup(self, speedups):
        dscs = speedups.speedups[DSCS_NAME]
        credit = dscs["Credit Risk Assessment"]
        assert credit == min(dscs.values())

    def test_ppe_highest_dscs_speedup(self, speedups):
        dscs = speedups.speedups[DSCS_NAME]
        assert dscs["PPE Detection"] == max(dscs.values())


class TestFig11:
    @pytest.fixture(scope="class")
    def energy(self, context):
        return fig11.run(averages_of=8, context=context)

    def test_dscs_energy_reduction_near_paper(self, energy):
        assert 3.0 < energy.geomean(DSCS_NAME) < 4.5  # paper: 3.5

    def test_dscs_vs_ns_fpga(self, energy):
        assert 1.3 < energy.relative(DSCS_NAME, "NS-FPGA") < 2.3  # paper 1.9

    def test_ppe_max_credit_min(self, energy):
        dscs = energy.reductions[DSCS_NAME]
        assert dscs[calibration.PAPER_ENERGY_MAX_BENCHMARK] == max(dscs.values())
        assert dscs[calibration.PAPER_ENERGY_MIN_BENCHMARK] == min(dscs.values())

    def test_gpu_no_better_than_baseline_on_energy(self, energy):
        assert energy.geomean("GPU") < 1.2


class TestFig12:
    @pytest.fixture(scope="class")
    def cost(self, context):
        return fig12.run(count=500, context=context)

    def test_dscs_most_cost_efficient(self, cost):
        assert cost.normalized[DSCS_NAME] == max(cost.normalized.values())

    def test_dscs_near_paper_value(self, cost):
        assert 2.5 < cost.normalized[DSCS_NAME] < 4.5  # paper: 3.4

    def test_ns_fpga_second(self, cost):
        ranked = sorted(cost.normalized, key=cost.normalized.get, reverse=True)
        assert ranked[0] == DSCS_NAME
        assert ranked[1] == "NS-FPGA"

    def test_fpga_least_cost_efficient(self, cost):
        assert cost.normalized["FPGA"] == min(cost.normalized.values())


class TestFig14:
    @pytest.fixture(scope="class")
    def batch(self):
        # Baseline and DSCS only: the speedups read no other platform,
        # and each platform seeds its own sampling RNG.
        context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
        return fig14.run(batches=(1, 8, 64), count=200, context=context)

    def test_speedup_grows_with_batch(self, batch):
        values = [batch.geomean(b) for b in batch.batches]
        assert values == sorted(values)

    def test_batch1_near_paper(self, batch):
        assert 3.0 < batch.geomean(1) < 4.5

    def test_batch64_amplified(self, batch):
        assert batch.geomean(64) > 2.5 * batch.geomean(1)  # paper: 15.8/3.6

    def test_every_benchmark_gains_from_batching(self, batch):
        # Paper highlights the language models' weight reuse; in our model
        # every workload amortises weights and communication with batch —
        # the language models gain substantially (>2.5x) though the purely
        # communication-bound apps gain even more (documented delta).
        gains = {
            app: batch.speedups[64][app] / batch.speedups[1][app]
            for app in batch.speedups[1]
        }
        assert all(g > 1.5 for g in gains.values())
        assert gains["Conversational Chatbot"] > 2.5
        assert gains["Document Translation"] > 2.5


class TestFig15:
    @pytest.fixture(scope="class")
    def tails(self):
        return fig15.run(tail_ratios=(2.1, 4.0), percentiles=(50.0, 99.0),
                         count=1500)

    def test_p99_speedup_exceeds_p50(self, tails):
        assert tails.at(2.1, 99.0) > tails.at(2.1, 50.0)

    def test_paper_band(self, tails):
        assert 2.5 < tails.at(2.1, 50.0) < 4.0  # paper: 3.1
        assert 3.5 < tails.at(2.1, 99.0) < 6.5  # paper: 5.0

    def test_heavier_tails_widen_gap(self, tails):
        assert tails.at(4.0, 99.0) > tails.at(2.1, 99.0)


class TestFig16:
    @pytest.fixture(scope="class")
    def functions(self, context):
        return fig16.run(extras=(0, 3), count=200, context=context)

    def test_more_accelerated_functions_more_speedup(self, functions):
        assert functions.geomean(3) > functions.geomean(0)

    def test_plus_three_band(self, functions):
        assert 5.0 < functions.geomean(3) < 11.0  # paper: 8.1


class TestFig17:
    @pytest.fixture(scope="class")
    def cold(self, context):
        return fig17.run(count=400, context=context)

    def test_cold_lower_than_warm(self, cold):
        assert cold.cold_geomean < cold.warm_geomean

    def test_paper_bands(self, cold):
        assert 3.0 < cold.warm_geomean < 4.5  # paper: 3.6
        assert 2.0 < cold.cold_geomean < 3.2  # paper: 2.6

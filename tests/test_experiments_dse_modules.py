"""Figs. 7/8/10 experiment modules with reduced, fast configurations."""

import pytest

from repro.accelerator.config import DSAConfig
from repro.core.breakdown import Component
from repro.dse.explorer import DSEExplorer
from repro.errors import ConfigurationError
from repro.experiments import fig07, fig08, fig10
from repro.experiments.common import BASELINE_NAME, DSCS_NAME, build_context
from repro.experiments.registry import REGISTRY
from repro.models.zoo import logistic_regression, mlp
from repro.units import MB


@pytest.fixture(scope="module")
def tiny_explorer():
    return DSEExplorer(
        eval_models=[
            mlp(rows=64, features=64, hidden=(128,), classes=16),
            logistic_regression(rows=256, features=32),
        ]
    )


@pytest.fixture(scope="module")
def tiny_configs():
    return [
        DSAConfig(pe_rows=d, pe_cols=d, buffer_bytes=b * MB)
        for d in (16, 64, 128, 512)
        for b in (1, 4)
    ]


class TestFig07Module:
    def test_frontier_is_subset_and_nonempty(self, tiny_explorer, tiny_configs):
        study = fig07.run(configs=tiny_configs, explorer=tiny_explorer)
        assert study.num_points == len(tiny_configs)
        assert 0 < len(study.frontier) <= study.num_points
        labels = {r.label for r in study.results}
        assert set(study.frontier_labels()) <= labels

    def test_best_feasible_is_feasible(self, tiny_explorer, tiny_configs):
        study = fig07.run(configs=tiny_configs, explorer=tiny_explorer)
        assert study.best_feasible.feasible

    def test_frontier_monotone_tradeoff(self, tiny_explorer, tiny_configs):
        study = fig07.run(configs=tiny_configs, explorer=tiny_explorer)
        front = sorted(study.frontier, key=lambda r: r.throughput_fps)
        powers = [r.dynamic_power_watts for r in front]
        # Along the frontier, more throughput never costs less power.
        assert powers == sorted(powers)


class TestFig08Module:
    def test_area_frontier_monotone(self, tiny_explorer, tiny_configs):
        study = fig08.run(configs=tiny_configs, explorer=tiny_explorer)
        front = sorted(study.frontier, key=lambda r: r.throughput_fps)
        areas = [r.area_mm2 for r in front]
        assert areas == sorted(areas)

    def test_shares_results_shape_with_fig07(self, tiny_explorer, tiny_configs):
        a = fig07.run(configs=tiny_configs, explorer=tiny_explorer)
        b = fig08.run(configs=tiny_configs, explorer=tiny_explorer)
        assert {r.label for r in a.results} == {r.label for r in b.results}


@pytest.mark.parametrize("name", ["fig07", "fig08", "dse"])
def test_negative_max_configs_rejected_before_evaluation(
    name, tiny_explorer, tiny_configs, monkeypatch
):
    def evaluate(self, config):
        raise AssertionError(f"evaluated {config.label}")

    monkeypatch.setattr(DSEExplorer, "evaluate", evaluate)
    with pytest.raises(ConfigurationError, match="max_configs"):
        REGISTRY.run(
            name, max_configs=-1, configs=tiny_configs, explorer=tiny_explorer
        )


class TestFig10Module:
    @pytest.fixture(scope="class")
    def breakdowns(self):
        context = build_context(platform_names=[BASELINE_NAME, DSCS_NAME])
        return fig10.run(averages_of=4, context=context)

    def test_covers_all_pairs(self, breakdowns):
        assert set(breakdowns) == {BASELINE_NAME, DSCS_NAME}
        assert len(breakdowns[BASELINE_NAME]) == 8

    def test_fractions_sum_to_one(self, breakdowns):
        for per_app in breakdowns.values():
            for entry in per_app.values():
                total = sum(
                    entry.fraction(component)
                    for component in Component
                )
                assert total == pytest.approx(1.0, abs=0.01)

    def test_bottleneck_migration(self, breakdowns):
        """Fig. 10's story: DSCS moves time out of remote I/O into the
        system stack."""
        for app in breakdowns[BASELINE_NAME]:
            cpu_entry = breakdowns[BASELINE_NAME][app]
            dscs_entry = breakdowns[DSCS_NAME][app]
            cpu_remote = cpu_entry.fraction(Component.REMOTE_READ)
            dscs_remote = dscs_entry.fraction(Component.REMOTE_READ)
            assert dscs_entry.total_seconds < cpu_entry.total_seconds
            assert dscs_remote * dscs_entry.total_seconds < (
                cpu_remote * cpu_entry.total_seconds
            )

"""Closed-loop control-plane studies: autoscaling and overload shedding.

Two registered experiments exercise the control plane of
:mod:`repro.cluster.control` on the paper's at-scale workload:

- ``fig13-autoscale`` — the Fig. 13 rate ramp crossed with the two
  scaling policies (target-utilization and queue-depth) and a shedding
  toggle.  Shows the live-capacity trajectory tracking the bursty
  envelope, the cost of warmup (cold-start) lag, and how much loss the
  CoDel shedder converts from indiscriminate queue overflow into
  targeted ``shed`` drops.
- ``fig15-overload`` — tail latency under 2-10x overload, brownout vs
  collapse.  Applications are binned into criticality classes; the
  controlled cells run the brownout ladder + CoDel shedder, the
  uncontrolled cells run an :func:`~repro.cluster.control.observer_plane`
  (identical dynamics, but the per-completion app record is kept so
  per-class latency can be sliced on both sides).  The acceptance
  criterion — admitted criticality-0 p99 within 2x of the uncongested
  baseline at 4x overload, while the uncontrolled run collapses — is
  asserted in ``tests/test_control_equivalence.py``.

Every cell runs through :class:`~repro.cluster.sweep.RackSweep`; the
control kernel is oracle-checked against the control oracle
(``tests/test_control_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.control import (
    AutoscalerPolicy,
    ControlPlane,
    OverloadPolicy,
    observer_plane,
)
from repro.cluster.sweep import RackSweep, ScenarioResult, scenario_grid
from repro.experiments.common import BASELINE_NAME, DSCS_NAME
from repro.experiments.registry import REGISTRY, Param

_PLATFORMS = (BASELINE_NAME, DSCS_NAME)

DEFAULT_SCALING_POLICIES = ("target_utilization", "queue_depth")
DEFAULT_OVERLOAD_FACTORS = (2.0, 4.0, 10.0)
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)

# Criticality classes for the overload study: apps binned round-robin
# (alphabetically) into three classes, most critical first.
N_CRITICALITY_CLASSES = 3


def criticality_classes(app_names) -> Dict[str, int]:
    """Deterministic app -> criticality class (0 = most critical)."""
    return {
        name: rank % N_CRITICALITY_CLASSES
        for rank, name in enumerate(sorted(app_names))
    }


def apps_in_class(priorities: Dict[str, int], rank: int) -> List[str]:
    return sorted(
        name for name, cls in priorities.items() if cls == rank
    )


@dataclass
class AutoscaleStudy:
    """fig13-autoscale results keyed by (rate, policy, shed, platform)."""

    results: Dict[Tuple[float, str, bool, str], ScenarioResult]

    def at(
        self, rate_scale: float, policy: str, shedding: bool, platform: str
    ) -> ScenarioResult:
        return self.results[(rate_scale, policy, shedding, platform)]


@dataclass
class OverloadStudy:
    """fig15-overload results keyed by (factor, controlled, platform).

    ``factor`` is the overload multiplier on the baseline rate; the
    uncongested baseline itself is recorded under factor 1.0 (observer
    plane, always uncontrolled)."""

    results: Dict[Tuple[float, bool, str], ScenarioResult]
    priorities: Dict[str, int]

    def at(
        self, factor: float, controlled: bool, platform: str
    ) -> ScenarioResult:
        return self.results[(factor, controlled, platform)]

    def class_p99(
        self, factor: float, controlled: bool, platform: str, rank: int
    ) -> float:
        """p99 latency of the admitted traffic of one criticality class."""
        cell = self.at(factor, controlled, platform)
        latencies = cell.series.completed_latencies_for_apps(
            apps_in_class(self.priorities, rank)
        )
        if len(latencies) == 0:
            return float("nan")
        return float(np.percentile(latencies, 99.0))


@REGISTRY.experiment(
    name="fig13-autoscale",
    description=(
        "Fig. 13 rate ramp under closed-loop autoscaling: scaling policy "
        "x shedding toggle, with live-capacity trajectory and warmup lag"
    ),
    params=(
        Param("rate_scales", "floats", (0.5, 1.0), "rate-envelope scales"),
        Param(
            "scaling_policies",
            "strs",
            DEFAULT_SCALING_POLICIES,
            "autoscaler formulas to compare",
        ),
        Param("max_instances", "int", 200, "fleet ceiling per platform"),
        Param("min_instances", "int", 20, "fleet floor the scaler holds"),
        Param(
            "target_utilization",
            "float",
            0.7,
            "busy fraction the utilization policy drives toward",
        ),
        Param(
            "queue_per_instance",
            "float",
            4.0,
            "queued requests per extra instance (queue_depth policy)",
        ),
        Param(
            "warmup_seconds",
            "float",
            2.5,
            "cold-start delay before scaled-up instances serve "
            "(see repro.cluster.control.warmup_from_coldstart)",
        ),
        Param(
            "scale_down_cooldown_seconds",
            "float",
            30.0,
            "minimum spacing between scale-down decisions",
        ),
        Param(
            "queue_delay_target_seconds",
            "float",
            0.5,
            "CoDel head-of-line delay target (shedding cells only)",
        ),
        Param(
            "control_interval_seconds", "float", 1.0, "controller tick"
        ),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event"),
        Param("context", "object", None, cli=False),
    ),
    profiles={
        "fast": {
            "rate_scales": (0.05,),
            "max_instances": 16,
            "min_instances": 2,
            "warmup_seconds": 1.0,
        },
        "paper": {
            "rate_scales": (0.5, 1.0),
            "max_instances": 200,
            "min_instances": 20,
        },
    },
    tags=("figure", "rack", "control"),
)
def _autoscale_experiment(
    ctx,
    rate_scales,
    scaling_policies,
    max_instances,
    min_instances,
    target_utilization,
    queue_per_instance,
    warmup_seconds,
    scale_down_cooldown_seconds,
    queue_delay_target_seconds,
    control_interval_seconds,
    seed,
    engine,
    context=None,
):
    context = context or ctx.suite_context(list(_PLATFORMS))
    harness = RackSweep(context, engine=engine)
    rows: List[dict] = []
    results: Dict[Tuple[float, str, bool, str], ScenarioResult] = {}
    for scaling_policy in scaling_policies:
        autoscaler = AutoscalerPolicy(
            policy=str(scaling_policy),
            min_instances=int(min_instances),
            target_utilization=float(target_utilization),
            queue_per_instance=float(queue_per_instance),
            warmup_seconds=float(warmup_seconds),
            scale_down_cooldown_seconds=float(scale_down_cooldown_seconds),
        )
        for shedding in (False, True):
            overload = None
            if shedding:
                overload = OverloadPolicy(
                    queue_delay_target_seconds=float(
                        queue_delay_target_seconds
                    )
                )
            plane = ControlPlane(
                autoscaler=autoscaler,
                overload=overload,
                control_interval_seconds=float(control_interval_seconds),
            )
            cells = harness.run(
                scenario_grid(
                    platforms=context.platform_names,
                    rate_scales=rate_scales,
                    max_instances=(max_instances,),
                    seed=seed,
                    control=plane,
                )
            )
            for cell in cells:
                live = cell.series.live_instances
                row = cell.as_row()
                row["scaling_policy"] = str(scaling_policy)
                row["shedding"] = shedding
                row["live_mean"] = (
                    round(float(live.mean()), 2) if len(live) else None
                )
                row["live_peak"] = int(live.max()) if len(live) else None
                rows.append(row)
                results[
                    (
                        cell.scenario.rate_scale,
                        str(scaling_policy),
                        shedding,
                        cell.scenario.platform,
                    )
                ] = cell
    return rows, AutoscaleStudy(results=results)


def run_autoscale(
    rate_scales=(0.5, 1.0),
    scaling_policies=DEFAULT_SCALING_POLICIES,
    max_instances: int = 200,
    min_instances: int = 20,
    target_utilization: float = 0.7,
    queue_per_instance: float = 4.0,
    warmup_seconds: float = 2.5,
    scale_down_cooldown_seconds: float = 30.0,
    queue_delay_target_seconds: float = 0.5,
    control_interval_seconds: float = 1.0,
    seed: int = 13,
    engine: str = "auto",
) -> AutoscaleStudy:
    """The Fig. 13 ramp under closed-loop autoscaling."""
    return REGISTRY.run(
        "fig13-autoscale",
        rate_scales=rate_scales,
        scaling_policies=scaling_policies,
        max_instances=max_instances,
        min_instances=min_instances,
        target_utilization=target_utilization,
        queue_per_instance=queue_per_instance,
        warmup_seconds=warmup_seconds,
        scale_down_cooldown_seconds=scale_down_cooldown_seconds,
        queue_delay_target_seconds=queue_delay_target_seconds,
        control_interval_seconds=control_interval_seconds,
        seed=seed,
        engine=engine,
    ).study


@REGISTRY.experiment(
    name="fig15-overload",
    description=(
        "Tail latency under 2-10x overload: brownout (CoDel + criticality "
        "shedding) vs uncontrolled collapse, per criticality class"
    ),
    params=(
        Param(
            "overload_factors",
            "floats",
            DEFAULT_OVERLOAD_FACTORS,
            "rate multipliers on the uncongested baseline",
        ),
        Param(
            "base_rate_scale",
            "float",
            0.5,
            "envelope scale of the uncongested 1x baseline",
        ),
        Param(
            "percentiles", "floats", DEFAULT_PERCENTILES, "report percentiles"
        ),
        Param("max_instances", "int", 200, "fleet size per platform"),
        Param("queue_depth", "int", 10_000, "queue bound (collapse room)"),
        Param(
            "queue_delay_target_seconds",
            "float",
            0.15,
            "CoDel head-of-line delay target (controlled cells)",
        ),
        Param(
            "shed_fraction",
            "float",
            0.5,
            "fraction of the queue the CoDel shedder trims per tick",
        ),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event"),
        Param("context", "object", None, cli=False),
    ),
    profiles={
        "fast": {
            "overload_factors": (4.0,),
            "base_rate_scale": 0.03,
            "max_instances": 12,
            "queue_depth": 2_000,
        },
        "paper": {
            "overload_factors": DEFAULT_OVERLOAD_FACTORS,
        },
    },
    tags=("figure", "rack", "control", "overload"),
)
def _overload_experiment(
    ctx,
    overload_factors,
    base_rate_scale,
    percentiles,
    max_instances,
    queue_depth,
    queue_delay_target_seconds,
    shed_fraction,
    seed,
    engine,
    context=None,
):
    context = context or ctx.suite_context(list(_PLATFORMS))
    harness = RackSweep(context, engine=engine)
    priorities = criticality_classes(context.app_names)
    brownout = ControlPlane(
        overload=OverloadPolicy(
            queue_delay_target_seconds=float(queue_delay_target_seconds),
            shed_fraction=float(shed_fraction),
            priorities=priorities,
            min_shed_priority=1,  # criticality 0 is never shed
        )
    )
    observer = observer_plane(int(max_instances))

    rows: List[dict] = []
    results: Dict[Tuple[float, bool, str], ScenarioResult] = {}

    def run_cells(factor: float, controlled: bool) -> None:
        cells = harness.run(
            scenario_grid(
                platforms=context.platform_names,
                rate_scales=(float(base_rate_scale) * factor,),
                max_instances=(max_instances,),
                queue_depth=int(queue_depth),
                seed=seed,
                control=brownout if controlled else observer,
            )
        )
        for cell in cells:
            results[(factor, controlled, cell.scenario.platform)] = cell
            breakdown = cell.series.drop_breakdown()
            for rank in range(N_CRITICALITY_CLASSES):
                latencies = cell.series.completed_latencies_for_apps(
                    apps_in_class(priorities, rank)
                )
                for percentile in percentiles:
                    rows.append(
                        {
                            "overload_factor": factor,
                            "controlled": controlled,
                            "platform": cell.scenario.platform,
                            "criticality": rank,
                            "completed": int(len(latencies)),
                            "percentile": float(percentile),
                            "latency_s": (
                                round(
                                    float(
                                        np.percentile(latencies, percentile)
                                    ),
                                    6,
                                )
                                if len(latencies)
                                else None
                            ),
                            "dropped_shed": breakdown["shed"],
                            "dropped_queue_full": breakdown["queue_full"],
                        }
                    )

    # The uncongested baseline every overload cell is judged against.
    run_cells(1.0, controlled=False)
    for factor in overload_factors:
        for controlled in (False, True):
            run_cells(float(factor), controlled)
    return rows, OverloadStudy(results=results, priorities=priorities)


def run_overload(
    overload_factors=DEFAULT_OVERLOAD_FACTORS,
    base_rate_scale: float = 0.5,
    percentiles=DEFAULT_PERCENTILES,
    max_instances: int = 200,
    queue_depth: int = 10_000,
    queue_delay_target_seconds: float = 0.15,
    shed_fraction: float = 0.5,
    seed: int = 13,
    engine: str = "auto",
) -> OverloadStudy:
    """Brownout vs collapse under 2-10x overload."""
    return REGISTRY.run(
        "fig15-overload",
        overload_factors=overload_factors,
        base_rate_scale=base_rate_scale,
        percentiles=percentiles,
        max_instances=max_instances,
        queue_depth=queue_depth,
        queue_delay_target_seconds=queue_delay_target_seconds,
        shed_fraction=shed_fraction,
        seed=seed,
        engine=engine,
    ).study

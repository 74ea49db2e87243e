"""Deterministic chaos studies: the rack under faults and retries.

Two registered experiments replay the paper's at-scale workloads with
the fault-injection layer of :mod:`repro.cluster.faults` switched on:

- ``fig13-chaos`` — the Fig. 13 trace crossed with instance MTBF and a
  retry policy toggle.  Shows how availability and the per-reason drop
  breakdown (queue overflow vs queue timeout vs crash kill) respond to
  churn, and how much of the loss a bounded-retry policy wins back.
- ``fig15-chaos`` — the Fig. 15 storage-tail sensitivity study under
  correlated node outages, with and without hedged dispatch.  Hedging
  races a duplicate service draw against the primary after a fixed
  delay, so it clips the service-time tail that heavy storage fabrics
  induce (it cannot clip slowdown spikes, which multiply both copies).

Every cell runs through :class:`~repro.cluster.sweep.RackSweep`, so
traces and service-sample blocks are shared across the grid and each
cell is bit-identical to a standalone :class:`RackSimulation` run —
fault/retry cells run the control kernel with an inert plane, which is
oracle-checked against the control oracle with an inert plane
(``tests/test_fault_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.faults import FaultSchedule, RetryPolicy
from repro.cluster.sweep import RackSweep, ScenarioResult, scenario_grid
from repro.core.fabric import StorageFabric
from repro.experiments.common import BASELINE_NAME, DSCS_NAME
from repro.experiments.registry import REGISTRY, Param

_PLATFORMS = (BASELINE_NAME, DSCS_NAME)

DEFAULT_MTBF_SECONDS = (120.0, 600.0)
DEFAULT_TAIL_RATIOS = (2.1, 4.0)
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


@dataclass
class ChaosAtScaleStudy:
    """fig13-chaos results keyed by (mtbf, retry-enabled, platform)."""

    results: Dict[Tuple[float, bool, str], List[ScenarioResult]]

    def cells(
        self, mtbf_seconds: float, retry: bool, platform: str
    ) -> List[ScenarioResult]:
        return self.results[(mtbf_seconds, retry, platform)]


@dataclass
class ChurnTailStudy:
    """fig15-chaos results keyed by (tail ratio, hedged, platform)."""

    results: Dict[Tuple[float, bool, str], ScenarioResult]

    def at(
        self, tail_ratio: float, hedged: bool, platform: str
    ) -> ScenarioResult:
        return self.results[(tail_ratio, hedged, platform)]


@REGISTRY.experiment(
    name="fig13-chaos",
    description=(
        "Fig. 13 trace under instance churn: rate x MTBF x retry policy, "
        "with availability and per-reason drop breakdown"
    ),
    params=(
        Param("rate_scales", "floats", (0.5, 1.0), "rate-envelope scales"),
        Param(
            "mtbf_seconds",
            "floats",
            DEFAULT_MTBF_SECONDS,
            "per-instance mean time between failures",
        ),
        Param("mttr_seconds", "float", 30.0, "mean instance repair time"),
        Param("max_instances", "int", 200, "fleet size per platform"),
        Param(
            "timeout_seconds",
            "float",
            5.0,
            "queue-wait timeout when the retry policy is on",
        ),
        Param("max_retries", "int", 2, "retry budget per request"),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("fault_seed", "int", 404, "fault-schedule RNG seed"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event"),
        Param("context", "object", None, cli=False),
    ),
    profiles={
        "fast": {
            "rate_scales": (0.05,),
            "max_instances": 20,
            "mtbf_seconds": (90.0,),
        },
        "paper": {
            "rate_scales": (0.5, 1.0),
            "max_instances": 200,
            "mtbf_seconds": DEFAULT_MTBF_SECONDS,
        },
    },
    tags=("figure", "rack", "chaos"),
)
def _chaos_experiment(
    ctx,
    rate_scales,
    mtbf_seconds,
    mttr_seconds,
    max_instances,
    timeout_seconds,
    max_retries,
    seed,
    fault_seed,
    engine,
    context=None,
):
    context = context or ctx.suite_context(list(_PLATFORMS))
    harness = RackSweep(context, engine=engine)
    rows: List[dict] = []
    results: Dict[Tuple[float, bool, str], List[ScenarioResult]] = {}
    for mtbf in mtbf_seconds:
        faults = FaultSchedule(
            instance_mtbf_seconds=float(mtbf),
            instance_mttr_seconds=float(mttr_seconds),
            seed=int(fault_seed),
        )
        for retry_on in (False, True):
            retry: Optional[RetryPolicy] = None
            if retry_on:
                retry = RetryPolicy(
                    timeout_seconds=float(timeout_seconds),
                    max_retries=int(max_retries),
                )
            cells = harness.run(
                scenario_grid(
                    platforms=context.platform_names,
                    rate_scales=rate_scales,
                    max_instances=(max_instances,),
                    seed=seed,
                    faults=faults,
                    retry=retry,
                )
            )
            for cell in cells:
                row = cell.as_row()
                row["mtbf_s"] = float(mtbf)
                row["retry"] = retry_on
                rows.append(row)
            for platform in context.platform_names:
                results[(float(mtbf), retry_on, platform)] = [
                    cell
                    for cell in cells
                    if cell.scenario.platform == platform
                ]
    return rows, ChaosAtScaleStudy(results=results)


def run_chaos(
    rate_scales=(0.5, 1.0),
    mtbf_seconds=DEFAULT_MTBF_SECONDS,
    mttr_seconds: float = 30.0,
    max_instances: int = 200,
    timeout_seconds: float = 5.0,
    max_retries: int = 2,
    seed: int = 13,
    fault_seed: int = 404,
    engine: str = "auto",
) -> ChaosAtScaleStudy:
    """The Fig. 13 workload under instance churn, retry on vs off."""
    return REGISTRY.run(
        "fig13-chaos",
        rate_scales=rate_scales,
        mtbf_seconds=mtbf_seconds,
        mttr_seconds=mttr_seconds,
        max_instances=max_instances,
        timeout_seconds=timeout_seconds,
        max_retries=max_retries,
        seed=seed,
        fault_seed=fault_seed,
        engine=engine,
    ).study


@REGISTRY.experiment(
    name="fig15-chaos",
    description=(
        "Fig. 15 storage tails under correlated node churn, with and "
        "without hedged dispatch"
    ),
    params=(
        Param(
            "tail_ratios", "floats", DEFAULT_TAIL_RATIOS, "p99/median ratios"
        ),
        Param(
            "percentiles",
            "floats",
            DEFAULT_PERCENTILES,
            "report percentiles",
        ),
        Param(
            "node_mtbf_seconds",
            "float",
            300.0,
            "per-node mean time between outages",
        ),
        Param("node_mttr_seconds", "float", 60.0, "mean node repair time"),
        Param("node_size", "int", 8, "instances lost per node outage"),
        Param(
            "hedge_after_seconds",
            "float",
            0.25,
            "hedged-dispatch trigger delay (hedged cells only; the "
            "benchmark apps' median service time is 0.15-0.5 s)",
        ),
        Param("rate_scale", "float", 1.0, "scale on the request-rate envelope"),
        Param("max_instances", "int", 200, "fleet size per platform"),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("fault_seed", "int", 404, "fault-schedule RNG seed"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event"),
    ),
    profiles={
        "fast": {
            "tail_ratios": (2.1,),
            "rate_scale": 0.05,
            "max_instances": 20,
            "node_size": 4,
        },
        "paper": {"tail_ratios": DEFAULT_TAIL_RATIOS},
    },
    tags=("figure", "rack", "sensitivity", "chaos"),
)
def _churn_experiment(
    ctx,
    tail_ratios,
    percentiles,
    node_mtbf_seconds,
    node_mttr_seconds,
    node_size,
    hedge_after_seconds,
    rate_scale,
    max_instances,
    seed,
    fault_seed,
    engine,
):
    faults = FaultSchedule(
        node_outage_mtbf_seconds=float(node_mtbf_seconds),
        node_mttr_seconds=float(node_mttr_seconds),
        node_size=int(node_size),
        seed=int(fault_seed),
    )
    rows: List[dict] = []
    results: Dict[Tuple[float, bool, str], ScenarioResult] = {}
    trace = None
    for ratio in tail_ratios:
        # Same fabric-swap reuse as fig15-rack: each ratio rewires the
        # shared base context; one trace realisation serves every cell.
        context = ctx.suite_context(
            list(_PLATFORMS), fabric=StorageFabric().with_tail_ratio(ratio)
        )
        harness = RackSweep(context, engine=engine)
        if trace is None:
            trace = harness.trace_for(seed, rate_scale)
        for hedged in (False, True):
            retry = RetryPolicy(
                hedge_after_seconds=(
                    float(hedge_after_seconds) if hedged else None
                )
            )
            cells = harness.run(
                scenario_grid(
                    platforms=context.platform_names,
                    rate_scales=(rate_scale,),
                    max_instances=(max_instances,),
                    seed=seed,
                    faults=faults,
                    retry=retry if hedged else None,
                ),
                trace=trace,
            )
            for cell in cells:
                results[(float(ratio), hedged, cell.scenario.platform)] = cell
                for percentile in percentiles:
                    rows.append(
                        {
                            "tail_ratio": float(ratio),
                            "platform": cell.scenario.platform,
                            "hedged": hedged,
                            "percentile": float(percentile),
                            "latency_s": round(
                                cell.latency_percentile(percentile), 6
                            ),
                            "availability": round(
                                cell.series.availability, 6
                            ),
                            "crash_kills": cell.series.crash_kills,
                            "hedges_launched": cell.series.hedges_launched,
                            "hedge_wins": cell.series.hedge_wins,
                        }
                    )
    return rows, ChurnTailStudy(results=results)


def run_churn(
    tail_ratios=DEFAULT_TAIL_RATIOS,
    percentiles=DEFAULT_PERCENTILES,
    node_mtbf_seconds: float = 300.0,
    node_mttr_seconds: float = 60.0,
    node_size: int = 8,
    hedge_after_seconds: float = 0.25,
    rate_scale: float = 1.0,
    max_instances: int = 200,
    seed: int = 13,
    fault_seed: int = 404,
    engine: str = "auto",
) -> ChurnTailStudy:
    """Fig. 15 tails under node churn, hedged vs unhedged dispatch."""
    return REGISTRY.run(
        "fig15-chaos",
        tail_ratios=tail_ratios,
        percentiles=percentiles,
        node_mtbf_seconds=node_mtbf_seconds,
        node_mttr_seconds=node_mttr_seconds,
        node_size=node_size,
        hedge_after_seconds=hedge_after_seconds,
        rate_scale=rate_scale,
        max_instances=max_instances,
        seed=seed,
        fault_seed=fault_seed,
        engine=engine,
    ).study

"""Fig. 13: at-scale behaviour under a bursty 20-minute trace.

(a) the input trace; (b) scheduler queue depth over time for both systems;
(c) Baseline (CPU) latency over time; (d) DSCS-Serverless latency over
time.  The baseline saturates its 200 instances and accumulates queued
requests, so its latency climbs; DSCS serves the same trace with headroom.

:func:`run` regenerates the paper's figure as a two-cell grid (one rate,
one fleet size, both platforms) of :mod:`repro.cluster.sweep`;
:func:`sweep` fans the same study out over a rate-scale x fleet-size x
policy grid, reusing traces and service samples across cells.
:func:`policy_sweep` (the ``fig13-policy`` experiment) is the
scheduling-policy study: the same grid crossed with all four policies
(FCFS and the paper's future-work SJF / criticality / DAG-aware), every
cell running on the rack kernel,
:func:`~repro.cluster.control_engine.control_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster.simulation import SimulationSeries
from repro.cluster.sweep import (
    POLICY_NAMES,
    RackSweep,
    ScenarioResult,
    scenario_grid,
)
from repro.cluster.trace import RequestTrace
from repro.errors import ConfigurationError
from repro.experiments.common import (
    BASELINE_NAME,
    DSCS_NAME,
    SuiteContext,
)
from repro.experiments.registry import REGISTRY, Param


def series_row(platform: str, series: SimulationSeries) -> dict:
    """Flat per-platform record of one simulation's headline metrics.

    Accepts either a materialized :class:`SimulationSeries` (exact
    percentiles over the latency vector) or a streaming-engine
    :class:`~repro.cluster.streaming.StreamedSeries` (sketch
    percentiles, bin-resolution accurate).
    """
    return {
        "platform": platform,
        "requests": series.total_requests,
        "mean_latency_s": round(series.mean_latency_seconds, 6),
        "p95_latency_s": round(series.latency_percentile(95.0), 6),
        "p99_latency_s": round(series.latency_percentile(99.0), 6),
        "peak_queue": int(series.queue_depth.max()) if len(series.queue_depth) else 0,
        "dropped": series.dropped_requests,
        "wall_clock_s": round(series.wall_clock_seconds, 3),
    }


@dataclass
class AtScaleStudy:
    """Trace plus both systems' measurement series."""

    trace: RequestTrace
    baseline: SimulationSeries
    dscs: SimulationSeries

    @property
    def baseline_peak_queue(self) -> int:
        return int(self.baseline.queue_depth.max()) if len(self.baseline.queue_depth) else 0

    @property
    def dscs_peak_queue(self) -> int:
        return int(self.dscs.queue_depth.max()) if len(self.dscs.queue_depth) else 0

    @property
    def wall_clock_improvement(self) -> float:
        """Baseline wall-clock time over DSCS wall-clock time."""
        if self.dscs.wall_clock_seconds == 0:
            return float("inf")
        return self.baseline.wall_clock_seconds / self.dscs.wall_clock_seconds


@REGISTRY.experiment(
    name="fig13",
    description="Fig. 13: at-scale behaviour under a bursty 20-minute trace",
    params=(
        Param("max_instances", "int", 200, "fleet size per platform"),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("rate_scale", "float", 1.0, "scale on the request-rate envelope"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event | streaming"),
        Param(
            "chunk_requests",
            "int",
            None,
            "streaming-engine chunk size (requests per bounded chunk)",
        ),
        Param("context", "object", None, cli=False),
    ),
    profiles={
        "fast": {"rate_scale": 0.05, "max_instances": 20},
        "paper": {"rate_scale": 1.0, "max_instances": 200},
    },
    tags=("figure", "rack"),
)
def _experiment(
    ctx, max_instances, seed, rate_scale, engine,
    chunk_requests=None, context=None,
):
    study = _at_scale_study(
        max_instances=max_instances,
        seed=seed,
        context=context or ctx.suite_context([BASELINE_NAME, DSCS_NAME]),
        rate_scale=rate_scale,
        engine=engine,
        chunk_requests=chunk_requests,
    )
    rows = [
        series_row(BASELINE_NAME, study.baseline),
        series_row(DSCS_NAME, study.dscs),
    ]
    return rows, study


def _at_scale_study(
    max_instances: int,
    seed: int,
    context: SuiteContext,
    rate_scale: float,
    engine: str,
    chunk_requests=None,
) -> AtScaleStudy:
    """Both platforms as a one-rate, one-fleet-size sweep grid.

    Each platform runs once, so there is no service sample to reuse.
    """
    harness = RackSweep(
        context,
        engine=engine,
        reuse_service_samples=False,
        chunk_requests=chunk_requests,
    )
    baseline, dscs = harness.run(
        scenario_grid(
            platforms=(BASELINE_NAME, DSCS_NAME),
            rate_scales=(rate_scale,),
            max_instances=(max_instances,),
            seed=seed,
        )
    )
    return AtScaleStudy(
        trace=harness.trace_for(seed, rate_scale),
        baseline=baseline.series,
        dscs=dscs.series,
    )


def run(
    max_instances: int = 200,
    seed: int = 13,
    context: SuiteContext = None,
    rate_scale: float = 1.0,
    engine: str = "auto",
    chunk_requests: int = None,
) -> AtScaleStudy:
    """Regenerate Fig. 13 end to end."""
    return REGISTRY.run(
        "fig13",
        max_instances=max_instances,
        seed=seed,
        context=context,
        rate_scale=rate_scale,
        engine=engine,
        chunk_requests=chunk_requests,
    ).study


def _run_scenario_grid(
    ctx,
    rate_scales,
    max_instances,
    policies,
    seed,
    engine,
    context=None,
    priorities=None,
    chunk_requests=None,
):
    """The shared fig13-sweep / fig13-policy runner body."""
    context = context or ctx.suite_context([BASELINE_NAME, DSCS_NAME])
    harness = RackSweep(
        context, engine=engine, priorities=priorities,
        chunk_requests=chunk_requests,
    )
    scenarios = scenario_grid(
        platforms=context.platform_names,
        rate_scales=rate_scales,
        max_instances=max_instances,
        policies=policies,
        seed=seed,
    )
    results = harness.run(scenarios)
    return [cell.as_row() for cell in results], results


@REGISTRY.experiment(
    name="fig13-sweep",
    description="Fig. 13 as a rate x fleet x policy scenario grid",
    params=(
        Param("rate_scales", "floats", (0.5, 1.0), "rate-envelope scales"),
        Param("max_instances", "ints", (100, 200), "fleet sizes"),
        Param("policies", "strs", ("fcfs",), "scheduling policies"),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event | streaming"),
        Param(
            "chunk_requests",
            "int",
            None,
            "streaming-engine chunk size (requests per bounded chunk)",
        ),
        Param("context", "object", None, cli=False),
    ),
    profiles={
        "fast": {"rate_scales": (0.05,), "max_instances": (20,)},
        "paper": {"rate_scales": (0.5, 1.0), "max_instances": (100, 200)},
    },
    tags=("figure", "rack", "sweep"),
)
def _sweep_experiment(
    ctx, rate_scales, max_instances, policies, seed, engine,
    chunk_requests=None, context=None,
):
    return _run_scenario_grid(
        ctx, rate_scales, max_instances, policies, seed, engine, context,
        chunk_requests=chunk_requests,
    )


def sweep(
    rate_scales: Sequence[float] = (0.5, 1.0),
    max_instances: Sequence[int] = (100, 200),
    policies: Sequence[str] = ("fcfs",),
    seed: int = 13,
    context: SuiteContext = None,
    engine: str = "auto",
    chunk_requests: int = None,
) -> List[ScenarioResult]:
    """The Fig. 13 study as a scenario grid over both platforms.

    Every cell shares the per-``(seed, rate_scale)`` trace realisation
    and the per-platform service-sample blocks, so widening the grid
    costs simulation time only, not input regeneration.
    """
    return REGISTRY.run(
        "fig13-sweep",
        rate_scales=rate_scales,
        max_instances=max_instances,
        policies=policies,
        seed=seed,
        context=context,
        engine=engine,
        chunk_requests=chunk_requests,
    ).study


def _policy_headline(results) -> str:
    """Which policy wins mean latency on the most loaded baseline cell."""
    if not results:
        return ""
    baseline = [r for r in results if r.scenario.platform == BASELINE_NAME]
    cells = baseline or list(results)
    top_rate = max(cell.scenario.rate_scale for cell in cells)
    min_fleet = min(cell.scenario.max_instances for cell in cells)
    contested = [
        cell
        for cell in cells
        if cell.scenario.rate_scale == top_rate
        and cell.scenario.max_instances == min_fleet
    ]
    best = min(contested, key=lambda cell: cell.mean_latency_seconds)
    return (
        f"best mean latency at rate x{top_rate:g} / {min_fleet} instances: "
        f"{best.scenario.policy} "
        f"({best.mean_latency_seconds * 1e3:.1f} ms)"
    )


@REGISTRY.experiment(
    name="fig13-policy",
    description=(
        "Fig. 13 scheduling-policy study: rate x fleet x all four "
        "policies on the vectorized engines"
    ),
    params=(
        Param("rate_scales", "floats", (0.5, 1.0), "rate-envelope scales"),
        Param("max_instances", "ints", (100, 200), "fleet sizes"),
        Param(
            "policies",
            "strs",
            POLICY_NAMES,
            "scheduling policies (fcfs | sjf | criticality | dag)",
        ),
        Param(
            "priorities",
            "strs",
            (),
            "criticality classes as app=rank pairs "
            "(default: deterministic alphabetical ranking)",
        ),
        Param("seed", "int", 13, "trace + service RNG seed"),
        Param("engine", "str", "auto", "rack engine: auto | vectorized | event | streaming"),
        Param(
            "chunk_requests",
            "int",
            None,
            "streaming-engine chunk size (requests per bounded chunk)",
        ),
        Param("context", "object", None, cli=False),
    ),
    profiles={
        # Congested enough (16 instances under a x0.08 envelope) that the
        # policies genuinely reorder; seconds-scale on the keyed engine.
        "fast": {"rate_scales": (0.08,), "max_instances": (16,)},
        "paper": {"rate_scales": (0.5, 1.0), "max_instances": (100, 200)},
    },
    tags=("figure", "rack", "sweep", "policy"),
    headline=_policy_headline,
)
def _policy_experiment(
    ctx,
    rate_scales,
    max_instances,
    policies,
    priorities,
    seed,
    engine,
    chunk_requests=None,
    context=None,
):
    return _run_scenario_grid(
        ctx,
        rate_scales,
        max_instances,
        policies,
        seed,
        engine,
        context,
        priorities=_parse_priorities(priorities),
        chunk_requests=chunk_requests,
    )


def _parse_priorities(pairs: Sequence[str]):
    """``("app=rank", ...)`` — the CLI form — into a priority map."""
    if not pairs:
        return None
    priorities = {}
    for pair in pairs:
        name, separator, rank = str(pair).partition("=")
        if not separator or not name.strip():
            raise ConfigurationError(
                f"bad priority {pair!r}; expected app=rank"
            )
        try:
            priorities[name.strip()] = int(rank)
        except ValueError as error:
            raise ConfigurationError(
                f"bad priority rank in {pair!r}; expected an integer"
            ) from error
    return priorities


def policy_sweep(
    rate_scales: Sequence[float] = (0.5, 1.0),
    max_instances: Sequence[int] = (100, 200),
    policies: Sequence[str] = POLICY_NAMES,
    priorities: Sequence[str] = (),
    seed: int = 13,
    context: SuiteContext = None,
    engine: str = "auto",
    chunk_requests: int = None,
) -> List[ScenarioResult]:
    """The Fig. 13 grid crossed with every scheduling policy.

    Every cell runs on the rack kernel — FCFS and tied keys (DAG-aware
    on this suite) by its FIFO recurrence, SJF and criticality by its
    key-heap dispatch — bit-identical to the event-driven oracle, so
    the policy comparison is exact, not approximate.  ``priorities``
    takes ``"app=rank"`` pairs for the criticality cells (default: a
    deterministic alphabetical ranking).
    """
    return REGISTRY.run(
        "fig13-policy",
        rate_scales=rate_scales,
        max_instances=max_instances,
        policies=policies,
        priorities=priorities,
        seed=seed,
        context=context,
        engine=engine,
        chunk_requests=chunk_requests,
    ).study

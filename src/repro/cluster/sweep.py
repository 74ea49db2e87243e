"""Scenario sweep harness for rack-scale studies (Figs. 13, 15-17).

At-scale questions are grids: every request-rate scale times every fleet
size times every scheduling policy, for both platforms.  Run naively,
each cell regenerates the same 20-minute trace and redraws the same
service-sample blocks.  :class:`RackSweep` runs a list of
:class:`RackScenario` cells over one shared
:class:`~repro.experiments.common.SuiteContext`, reusing

- **traces** — keyed by ``(seed, rate_scale)``, generated once; and
- **service samples** — a per-sweep
  :class:`~repro.cluster.simulation.ServiceSampleCache` replays draw
  blocks (and their RNG state transitions) across cells, so scenarios
  that differ only in fleet size or policy do not re-sample the latency
  distributions they share.

Both reuses are bit-exact: a sweep cell produces the same
:class:`~repro.cluster.simulation.SimulationSeries` it would produce run
standalone.  The per-figure harnesses (``fig13.sweep``,
``fig13.policy_sweep``, ``fig15.run_rack``, ``fig16.run_rack``,
``fig17.run_rack``) are thin grids over this module.  Every policy cell
runs on a vectorized engine: FCFS on the busy-period kernel, keyed
policies (sjf / criticality / dag) on the index-priority engine of
:mod:`repro.cluster.policy_engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.control import ControlPlane
from repro.cluster.faults import DROP_REASONS, FaultSchedule, RetryPolicy
from repro.cluster.schedulers import PolicyFactory
from repro.cluster.simulation import (
    RackSimulation,
    ServiceSampleCache,
    SimulationSeries,
)
from repro.cluster.trace import DEFAULT_RATE_ENVELOPE, RequestTrace, TraceGenerator
from repro.errors import ConfigurationError

# Policy grid values understood by :meth:`RackSweep.run`.
POLICY_NAMES = ("fcfs", "sjf", "criticality", "dag")

# Sample count for the per-app expected-service estimates SJF sorts by.
_ESTIMATE_SAMPLES = 256


def service_estimates_for(
    context, platform: str, samples: int = _ESTIMATE_SAMPLES
) -> Dict[str, float]:
    """Deterministic per-app expected service times (what SJF sorts by).

    The single definition both :class:`RackSweep` cells and
    ``scripts/bench_policy.py`` use, so benchmarks time exactly the
    policy configuration the sweeps run.
    """
    model = context.models[platform]
    return {
        name: float(
            np.mean(
                model.sample_latencies(app, np.random.default_rng(0), samples)
            )
        )
        for name, app in context.applications.items()
    }


def default_criticality_priorities(context) -> Dict[str, int]:
    """One priority class per application, in alphabetical order.

    A criticality policy needs a non-empty integer priority map; this
    default is arbitrary but deterministic, so sweep cells genuinely
    exercise multi-class scheduling.  Pass ``priorities`` to
    :class:`RackSweep` to rank by real criticality instead.
    """
    return {
        name: rank
        for rank, name in enumerate(sorted(context.applications))
    }


@dataclass(frozen=True)
class RackScenario:
    """One cell of a rack-scale study grid."""

    platform: str
    rate_scale: float = 1.0
    max_instances: int = 200
    policy: str = "fcfs"
    queue_depth: int = 10_000
    cold: bool = False
    seed: int = 13
    faults: Optional[FaultSchedule] = None
    retry: Optional[RetryPolicy] = None
    control: Optional[ControlPlane] = None

    def label(self) -> str:
        parts = [
            self.platform,
            f"rate x{self.rate_scale:g}",
            f"{self.max_instances} inst",
            self.policy,
        ]
        if self.cold:
            parts.append("cold")
        if self.faults is not None and self.faults.active:
            parts.append("faults")
        if self.retry is not None and self.retry.active:
            parts.append("retry")
        if self.control is not None and self.control.active:
            if self.control.autoscaler is not None:
                parts.append(f"scale:{self.control.autoscaler.policy}")
            if (
                self.control.overload is not None
                and self.control.overload.active
            ):
                parts.append("shed")
        return " | ".join(parts)


@dataclass
class ScenarioResult:
    """A scenario plus its measurement series and summary statistics."""

    scenario: RackScenario
    series: SimulationSeries

    @property
    def completed_count(self) -> int:
        """Completed requests, for either series representation."""
        series = self.series
        if hasattr(series, "completed_count"):
            return int(series.completed_count)
        return len(series.completed_latency_seconds)

    @property
    def mean_latency_seconds(self) -> float:
        """Mean completed latency; NaN when the cell completed nothing."""
        return self.series.mean_latency_seconds

    def latency_percentile(self, percentile: float) -> float:
        """Completed-latency percentile; NaN when nothing completed.

        Exact over the materialized latency vector; under the streaming
        engine the series is a
        :class:`~repro.cluster.streaming.StreamedSeries`, which answers
        from its quantile sketch (bin-resolution accurate) instead.
        """
        if not 0 <= percentile <= 100:
            raise ConfigurationError(
                f"percentile out of range: {percentile}"
            )
        if self.completed_count == 0:
            return float("nan")
        series = self.series
        if hasattr(series, "latency_percentile"):
            return float(series.latency_percentile(percentile))
        return float(
            np.percentile(series.completed_latency_seconds, percentile)
        )

    @property
    def p95_latency_seconds(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency_seconds(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def peak_queue_depth(self) -> int:
        depth = self.series.queue_depth
        return int(depth.max()) if len(depth) else 0

    @property
    def dropped_requests(self) -> int:
        return self.series.dropped_requests

    @property
    def drop_fraction(self) -> float:
        total = self.series.total_requests
        return self.series.dropped_requests / total if total else 0.0

    def _availability_columns(self) -> Dict[str, object]:
        """Per-reason drop breakdown plus availability telemetry.

        Always present (zeros under a fault-free run) so every row of a
        sweep table carries the same keys whether or not the cell was
        perturbed — the report writers require rectangular tables.
        """
        breakdown = self.series.drop_breakdown()
        columns: Dict[str, object] = {
            f"dropped_{reason}": breakdown.get(reason, 0)
            for reason in DROP_REASONS
        }
        columns["availability"] = round(self.series.availability, 6)
        columns["retries"] = self.series.retries
        columns["timeouts"] = self.series.timeouts
        columns["crash_kills"] = self.series.crash_kills
        columns["hedges_launched"] = self.series.hedges_launched
        columns["hedge_wins"] = self.series.hedge_wins
        columns["scale_ups"] = self.series.scale_ups
        columns["scale_downs"] = self.series.scale_downs
        return columns

    def summary(self) -> Dict[str, object]:
        """Flat dict for tables / JSON records."""
        row = {
            "scenario": self.scenario.label(),
            "requests": self.series.total_requests,
            "mean_latency_s": round(self.mean_latency_seconds, 6),
            "p95_latency_s": round(self.p95_latency_seconds, 6),
            "p99_latency_s": round(self.p99_latency_seconds, 6),
            "peak_queue": self.peak_queue_depth,
            "dropped": self.dropped_requests,
            "wall_clock_s": round(self.series.wall_clock_seconds, 3),
        }
        row.update(self._availability_columns())
        return row

    def as_row(self) -> Dict[str, object]:
        """Structured record: scenario knobs as columns, then metrics.

        Unlike :meth:`summary` (which folds the scenario into one label
        string), this keeps each grid axis queryable — the form the
        experiment registry serialises.
        """
        scenario = self.scenario
        row = {
            "platform": scenario.platform,
            "rate_scale": scenario.rate_scale,
            "max_instances": scenario.max_instances,
            "policy": scenario.policy,
            "cold": scenario.cold,
            "requests": self.series.total_requests,
            "mean_latency_s": round(self.mean_latency_seconds, 6),
            "p95_latency_s": round(self.p95_latency_seconds, 6),
            "p99_latency_s": round(self.p99_latency_seconds, 6),
            "peak_queue": self.peak_queue_depth,
            "dropped": self.dropped_requests,
            "wall_clock_s": round(self.series.wall_clock_seconds, 3),
        }
        row.update(self._availability_columns())
        return row


def scenario_grid(
    platforms: Sequence[str],
    rate_scales: Sequence[float] = (1.0,),
    max_instances: Sequence[int] = (200,),
    policies: Sequence[str] = ("fcfs",),
    queue_depth: int = 10_000,
    cold: bool = False,
    seed: int = 13,
    faults: Optional[FaultSchedule] = None,
    retry: Optional[RetryPolicy] = None,
    control: Optional[ControlPlane] = None,
) -> List[RackScenario]:
    """The full cross product, ordered platform-major for cache locality."""
    return [
        RackScenario(
            platform=platform,
            rate_scale=float(rate_scale),
            max_instances=int(instances),
            policy=policy,
            queue_depth=queue_depth,
            cold=cold,
            seed=seed,
            faults=faults,
            retry=retry,
            control=control,
        )
        for platform in platforms
        for rate_scale in rate_scales
        for instances in max_instances
        for policy in policies
    ]


class RackSweep:
    """Runs scenario grids over one suite context with shared inputs."""

    def __init__(
        self,
        context,
        rate_envelope: Sequence[float] = DEFAULT_RATE_ENVELOPE,
        segment_seconds: float = 60.0,
        sample_interval_seconds: float = 1.0,
        engine: str = "auto",
        reuse_service_samples: bool = True,
        priorities: Optional[Dict[str, int]] = None,
        chunk_requests: Optional[int] = None,
    ) -> None:
        if chunk_requests is not None and engine != "streaming":
            raise ConfigurationError(
                "chunk_requests only applies to engine='streaming'; "
                f"got engine={engine!r}"
            )
        self._context = context
        self._envelope = tuple(float(rate) for rate in rate_envelope)
        self._segment_seconds = segment_seconds
        self._sample_interval = sample_interval_seconds
        self._engine = engine
        self._chunk_requests = chunk_requests
        self._caches: Optional[Dict[str, ServiceSampleCache]] = (
            {} if reuse_service_samples else None
        )
        self._traces: Dict[Tuple[int, float], RequestTrace] = {}
        self._estimates: Dict[str, Dict[str, float]] = {}
        self._priorities = dict(priorities) if priorities else None

    # ------------------------------------------------------------------
    def trace_for(self, seed: int, rate_scale: float) -> RequestTrace:
        """The (cached) trace realisation for one ``(seed, rate_scale)``."""
        key = (int(seed), float(rate_scale))
        trace = self._traces.get(key)
        if trace is None:
            envelope = tuple(rate * rate_scale for rate in self._envelope)
            generator = TraceGenerator(
                self._context.app_names,
                rate_envelope=envelope,
                segment_seconds=self._segment_seconds,
            )
            trace = generator.generate(np.random.default_rng(seed))
            self._traces[key] = trace
        return trace

    def _service_estimates(self, platform: str) -> Dict[str, float]:
        """Memoised :func:`service_estimates_for` per platform."""
        estimates = self._estimates.get(platform)
        if estimates is None:
            estimates = service_estimates_for(self._context, platform)
            self._estimates[platform] = estimates
        return estimates

    def _criticality_priorities(self) -> Dict[str, int]:
        """Explicit ``priorities`` or the deterministic default ranking."""
        if self._priorities is not None:
            return self._priorities
        return default_criticality_priorities(self._context)

    def _policy_factory(
        self, scenario: RackScenario
    ) -> Optional[PolicyFactory]:
        name = scenario.policy
        if name == "fcfs":
            return None
        if name == "sjf":
            return PolicyFactory(
                "sjf",
                service_estimates=self._service_estimates(scenario.platform),
            )
        if name == "criticality":
            return PolicyFactory(
                "criticality", priorities=self._criticality_priorities()
            )
        if name == "dag":
            return PolicyFactory(
                "dag", applications=self._context.applications
            )
        raise ConfigurationError(
            f"unknown scheduling policy {name!r}; expected one of "
            f"{POLICY_NAMES}"
        )

    # ------------------------------------------------------------------
    def run_one(
        self, scenario: RackScenario, trace: Optional[RequestTrace] = None
    ) -> ScenarioResult:
        """Run a single grid cell (bit-identical to a standalone run)."""
        model = self._context.models.get(scenario.platform)
        if model is None:
            raise ConfigurationError(
                f"unknown platform {scenario.platform!r}; context has "
                f"{list(self._context.models)}"
            )
        cache = None
        if self._caches is not None:
            cache = self._caches.setdefault(
                scenario.platform, ServiceSampleCache()
            )
        simulation = RackSimulation(
            model,
            self._context.applications,
            max_instances=scenario.max_instances,
            queue_depth=scenario.queue_depth,
            seed=scenario.seed,
            policy=self._policy_factory(scenario),
            cold=scenario.cold,
            sample_cache=cache,
            faults=scenario.faults,
            retry=scenario.retry,
            control=scenario.control,
        )
        if trace is None:
            trace = self.trace_for(scenario.seed, scenario.rate_scale)
        if self._engine == "streaming":
            series = simulation.run(
                trace, self._sample_interval, engine=self._engine,
                chunk_requests=self._chunk_requests,
            )
        else:
            series = simulation.run(
                trace, self._sample_interval, engine=self._engine
            )
        return ScenarioResult(scenario=scenario, series=series)

    def run(
        self,
        scenarios: Iterable[RackScenario],
        trace: Optional[RequestTrace] = None,
    ) -> List[ScenarioResult]:
        """Run every scenario; pass ``trace`` to override trace lookup."""
        return [self.run_one(scenario, trace=trace) for scenario in scenarios]

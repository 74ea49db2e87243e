"""Evaluates design points and extracts Pareto frontiers (Figs. 7/8).

Each candidate is evaluated by compiling a set of evaluation models and
cycle-simulating them; throughput is the average frames/sec across the
set, dynamic power is the simulated energy over runtime, and area comes
from the analytical model.  Feasibility enforces the storage drive's power
budget after scaling to the deployment technology node.

Sweep-scale performance comes from three layers:

- the vectorized packed execution engine (bit-identical to the scalar
  interpreter, which remains the oracle);
- a cross-sweep :class:`~repro.compiler.executable.ProgramCache` keyed by
  ``(graph fingerprint, tiling-relevant config fields)`` — the three
  memory technologies at each array/buffer geometry share one compile;
- an optional process pool: ``sweep(configs, workers=N)`` fans candidates
  out across processes while preserving the input ordering, so results
  are deterministic regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.accelerator.area import AreaModel
from repro.accelerator.config import (
    ACCELERATOR_POWER_SHARE,
    DSAConfig,
    SMARTSSD_POWER_BUDGET_WATTS,
)
from repro.accelerator.power import PowerModel
from repro.accelerator.scaling import scale_power
from repro.analysis.pareto import DesignPoint2D, pareto_front_points
from repro.accelerator.simulator import CycleSimulator
from repro.compiler.executable import ProgramCache, compile_graph_uncached
from repro.errors import ConfigurationError
from repro.models.graph import Graph


def _default_eval_models() -> List[Graph]:
    """A light but representative model set (CNN + transformer)."""
    from repro.models.zoo import resnet50, vit

    return [resnet50(), vit(dim=384, layers=12, heads=6)]


@dataclass(frozen=True)
class DesignPointResult:
    """Evaluation outcome for one DSA configuration."""

    config: DSAConfig
    throughput_fps: float
    dynamic_power_watts: float
    total_power_watts: float
    area_mm2: float
    feasible: bool

    @property
    def label(self) -> str:
        return self.config.label

    def as_row(self) -> Dict[str, object]:
        """Flat record for result tables (Figs. 7/8 CLI/JSON output)."""
        return {
            "config": self.label,
            "fps": round(self.throughput_fps, 2),
            "dynamic_power_w": round(self.dynamic_power_watts, 3),
            "total_power_w": round(self.total_power_watts, 3),
            "area_mm2": round(self.area_mm2, 2),
            "feasible": self.feasible,
        }


class DSEExplorer:
    """Runs the §4.2 exploration over a set of candidate configs."""

    def __init__(
        self,
        eval_models: Optional[Sequence[Graph]] = None,
        deployment_node_nm: int = 45,
        power_budget_watts: float = SMARTSSD_POWER_BUDGET_WATTS
        * ACCELERATOR_POWER_SHARE,
        engine: str = "packed",
    ) -> None:
        """``deployment_node_nm`` defaults to the 45 nm synthesis node —
        the conservative budget check under which the paper's Dim128
        point is the largest feasible array.  Pass 14 to budget against
        the scaled deployment silicon instead.  ``engine`` selects the
        simulation path (``"packed"`` fast engine or the ``"scalar"``
        reference oracle, which compiles every point cold; both are
        bit-identical)."""
        if power_budget_watts <= 0:
            raise ConfigurationError("non-positive power budget")
        if engine not in ("packed", "scalar"):
            raise ConfigurationError(f"unknown simulation engine {engine!r}")
        self._models = list(eval_models) if eval_models else _default_eval_models()
        self._deployment_node_nm = deployment_node_nm
        self._power_budget_watts = power_budget_watts
        self._engine = engine
        # Keyed by the (frozen, hashable) config itself — labels do not
        # encode frequency or tech node, so they can alias design points.
        self._cache: Dict[DSAConfig, DesignPointResult] = {}
        self._programs = ProgramCache()

    def __getstate__(self):
        # Sweep workers receive a lean copy: result/program caches are
        # per-process (and re-shipping compiled programs would dwarf the
        # configs being evaluated).
        state = dict(self.__dict__)
        state["_cache"] = {}
        state["_programs"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self._programs is None:
            self._programs = ProgramCache()

    @property
    def eval_models(self) -> List[Graph]:
        return list(self._models)

    def evaluate(self, config: DSAConfig) -> DesignPointResult:
        """Cycle-simulate the eval set on ``config``."""
        if config in self._cache:
            return self._cache[config]

        total_latency = 0.0
        dynamic_j = 0.0
        fps_values = []
        power_model = PowerModel(config)
        simulator = CycleSimulator(config)
        for graph in self._models:
            if self._engine == "packed":
                # Fast path: direct graph -> columns lowering (no Python
                # instruction objects), shared across configs via tiling key.
                packed = self._programs.get_packed(graph, config)
                report = simulator.run_packed(packed)
            else:
                executable = compile_graph_uncached(graph, config)
                report = executable.simulate(engine="scalar")
            total_latency += report.latency_s
            dynamic_j += report.energy.total_j - report.energy.leakage_j
            fps_values.append(1.0 / report.latency_s)
        throughput = sum(fps_values) / len(fps_values)
        dynamic_power = dynamic_j / total_latency if total_latency > 0 else 0.0
        total_power = dynamic_power + power_model.leakage_watts()

        if config.tech_node_nm == 45:
            deployed_power = scale_power(total_power, self._deployment_node_nm)
        else:
            deployed_power = total_power
        # The DRAM interface PHY does not scale with the logic node and
        # draws from the same drive budget.
        deployed_power += config.memory.interface_power_watts
        feasible = deployed_power <= self._power_budget_watts

        result = DesignPointResult(
            config=config,
            throughput_fps=throughput,
            dynamic_power_watts=dynamic_power,
            total_power_watts=total_power,
            area_mm2=AreaModel(config).total_mm2(),
            feasible=feasible,
        )
        self._cache[config] = result
        return result

    def sweep(
        self, configs: Sequence[DSAConfig], workers: Optional[int] = None
    ) -> List[DesignPointResult]:
        """Evaluate every candidate configuration.

        ``workers`` > 1 fans the sweep out over a process pool.  Results
        come back in input order and each evaluation is deterministic, so
        the output is identical to the serial sweep — only faster on
        multi-core hosts.  Worker results are folded back into this
        explorer's cache.
        """
        if not configs:
            raise ConfigurationError("empty candidate list")
        if workers is not None and workers < 1:
            raise ConfigurationError(f"non-positive worker count: {workers}")
        if workers is None or workers == 1 or len(configs) == 1:
            return [self.evaluate(config) for config in configs]

        pending = []
        queued = set()
        for config in configs:
            if config not in self._cache and config not in queued:
                queued.add(config)
                pending.append(config)
        if pending:
            chunk = max(1, len(pending) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                evaluated = list(
                    pool.map(self.evaluate, pending, chunksize=chunk)
                )
            for result in evaluated:
                self._cache[result.config] = result
        return [self._cache[config] for config in configs]

    @staticmethod
    def power_pareto(results: Sequence[DesignPointResult]) -> List[DesignPointResult]:
        """Power-performance frontier (Fig. 7)."""
        points = [
            DesignPoint2D(r.label, r.throughput_fps, r.dynamic_power_watts)
            for r in results
        ]
        front_labels = {p.label for p in pareto_front_points(points)}
        return [r for r in results if r.label in front_labels]

    @staticmethod
    def area_pareto(results: Sequence[DesignPointResult]) -> List[DesignPointResult]:
        """Area-performance frontier (Fig. 8)."""
        points = [
            DesignPoint2D(r.label, r.throughput_fps, r.area_mm2) for r in results
        ]
        front_labels = {p.label for p in pareto_front_points(points)}
        return [r for r in results if r.label in front_labels]

    def best_feasible(
        self, results: Sequence[DesignPointResult]
    ) -> DesignPointResult:
        """Highest-throughput point inside the power budget.

        This is how the paper lands on Dim128-4MB-DDR5.
        """
        feasible = [r for r in results if r.feasible]
        if not feasible:
            raise ConfigurationError("no feasible design point under the budget")
        # Max throughput; near-ties (within 5%) resolve to the smaller die,
        # since area is the paper's proxy for fabrication cost.
        best_fps = max(r.throughput_fps for r in feasible)
        contenders = [
            r for r in feasible if r.throughput_fps >= 0.95 * best_fps
        ]
        return min(contenders, key=lambda r: r.area_mm2)

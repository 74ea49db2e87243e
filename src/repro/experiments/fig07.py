"""Fig. 7: power-performance Pareto frontier of the DSA design space (45 nm).

Sweeps the §4.2 search space, evaluates throughput (avg fps over the eval
models) and dynamic power at 45 nm, and extracts the Pareto frontier.  The
paper's chosen point, Dim128-4MB on DDR5, sits on the frontier and is the
best feasible point under the 25 W storage budget after 14 nm scaling.

Registered twice: as ``fig07`` (``--space square|full``) and as the legacy
``dse`` command (``--full`` flag), both thin wrappers over the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.accelerator.config import DSAConfig
from repro.dse.explorer import DesignPointResult, DSEExplorer
from repro.dse.space import design_space
from repro.experiments.registry import REGISTRY, Param


@dataclass
class ParetoStudy:
    """All evaluated points plus the extracted frontier."""

    results: List[DesignPointResult]
    frontier: List[DesignPointResult]
    best_feasible: DesignPointResult

    @property
    def num_points(self) -> int:
        return len(self.results)

    def frontier_labels(self) -> List[str]:
        return [r.label for r in self.frontier]


def pareto_rows(study: ParetoStudy) -> List[Dict[str, object]]:
    """Flat rows for either Pareto study (Fig. 7 or Fig. 8)."""
    frontier = set(study.frontier_labels())
    rows = []
    for result in study.results:
        row = result.as_row()
        row["on_frontier"] = result.label in frontier
        rows.append(row)
    return rows


def _best_feasible_headline(study: ParetoStudy) -> str:
    return f"best feasible point: {study.best_feasible.label}"


def sweep_study(
    space: str = "square",
    max_configs: int = 0,
    frontier: str = "power",
    configs: Optional[Sequence[DSAConfig]] = None,
    explorer: Optional[DSEExplorer] = None,
    workers: Optional[int] = None,
) -> ParetoStudy:
    """The shared Fig. 7/8 sweep: evaluate candidates, extract a frontier.

    ``max_configs`` > 0 truncates the candidate list — the ``fast``
    fidelity profile's knob for smoke runs; 0 means no limit.
    """
    from repro.errors import ConfigurationError

    if space not in ("square", "full"):
        raise ConfigurationError(
            f"unknown design space {space!r}; expected 'square' or 'full'"
        )
    if max_configs < 0:
        raise ConfigurationError(
            f"max_configs must be >= 0 (0 = no limit), got {max_configs}"
        )
    explorer = explorer or DSEExplorer()
    candidates = (
        list(configs)
        if configs
        else design_space(square_only=(space != "full"))
    )
    if max_configs:
        candidates = candidates[:max_configs]
    results = explorer.sweep(candidates, workers=workers)
    if frontier == "area":
        front = explorer.area_pareto(results)
    else:
        front = explorer.power_pareto(results)
    best = explorer.best_feasible(results)
    return ParetoStudy(results=results, frontier=front, best_feasible=best)


_SWEEP_PARAMS = (
    Param("space", "str", "square", "candidate space: 'square' or 'full'"),
    Param("max_configs", "int", 0, "truncate the sweep (0 = no limit)"),
    Param("workers", "int", None, "process-pool size (default: serial)"),
    Param("configs", "object", None, cli=False),
    Param("explorer", "object", None, cli=False),
)

_SWEEP_PROFILES = {
    "fast": {"space": "square", "max_configs": 12},
    "paper": {"space": "full", "max_configs": 0},
}


@REGISTRY.experiment(
    name="fig07",
    description="Fig. 7: power-performance Pareto frontier of the DSA space",
    params=_SWEEP_PARAMS,
    profiles=_SWEEP_PROFILES,
    tags=("figure", "dse"),
    headline=_best_feasible_headline,
)
def _experiment(ctx, space, max_configs, workers=None, configs=None, explorer=None):
    study = sweep_study(
        space=space,
        max_configs=max_configs,
        frontier="power",
        configs=configs,
        explorer=explorer,
        workers=workers,
    )
    return pareto_rows(study), study


@REGISTRY.experiment(
    name="dse",
    description="Design-space sweep (Fig. 7 form; --full for the >650-point space)",
    params=(
        Param("full", "bool", False, "sweep the full >650-point space"),
        Param("max_configs", "int", 0, "truncate the sweep (0 = no limit)"),
        Param("workers", "int", None, "process-pool size (default: serial)"),
        Param("configs", "object", None, cli=False),
        Param("explorer", "object", None, cli=False),
    ),
    profiles={"fast": {"max_configs": 12}, "paper": {"max_configs": 0}},
    tags=("dse",),
    headline=_best_feasible_headline,
)
def _dse_experiment(ctx, full, max_configs, workers=None, configs=None, explorer=None):
    study = sweep_study(
        space="full" if full else "square",
        max_configs=max_configs,
        frontier="power",
        configs=configs,
        explorer=explorer,
        workers=workers,
    )
    return pareto_rows(study), study


def run(
    square_only: bool = True,
    configs: Optional[Sequence[DSAConfig]] = None,
    explorer: Optional[DSEExplorer] = None,
    workers: Optional[int] = None,
) -> ParetoStudy:
    """Regenerate the power-performance study.

    ``square_only=True`` sweeps the coarse (square-array) subset for quick
    runs; pass ``square_only=False`` for the full >650-point space.
    ``workers`` > 1 fans the sweep over a process pool (results are
    deterministic and ordering-independent of the worker count).
    """
    return REGISTRY.run(
        "fig07",
        space="square" if square_only else "full",
        configs=configs,
        explorer=explorer,
        workers=workers,
    ).study

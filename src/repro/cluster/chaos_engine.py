"""Fault/retry runs on the materialized path: the inert-plane entry.

A fault/retry run is a control run whose plane does nothing, so it has
no kernel of its own: :func:`run_chaos_vectorized` runs
:func:`~repro.cluster.control_engine.control_kernel` with an inert
``ControlPlane()``, which fires no decision ticks and records no control
telemetry, over one whole-trace chunk into a retaining sink.  The fault
and retry semantics, the same-timestamp rank rule and the oracle
(:func:`~repro.cluster.control_engine.run_control_event` with an inert
plane, also where ``engine="event"`` and unsorted traces send such runs)
are documented in :mod:`repro.cluster.control_engine`.

``tests/test_fault_equivalence.py`` proves this entry bit-identical to
the oracle — series, per-reason drops, chaos counters, RNG end state —
and that a zero-fault timeline reproduces the runs with nothing active
exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.control import ControlPlane
from repro.cluster.control_engine import control_kernel
from repro.cluster.faults import FaultTimeline, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace


def run_chaos_vectorized(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
    timeline: FaultTimeline,
    retry: RetryPolicy,
) -> "SimulationSeries":
    """Simulate a fault/retry run: the control kernel with an inert
    plane over one whole-trace chunk into a retaining sink."""
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return control_kernel(
        sim, policy, trace, sink, max(len(trace), 1),
        timeline, retry, ControlPlane(),
    )

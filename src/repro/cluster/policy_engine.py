"""Keyed policies on the materialized path: the keyed entry.

A keyed policy (SJF, criticality, DAG-aware — any
:class:`~repro.cluster.schedulers.KeyedPolicy` other than plain FCFS)
has no kernel of its own: :func:`run_keyed` runs
:func:`~repro.cluster.control_engine.control_kernel`, the one rack
kernel, with nothing active (an empty fault timeline, ``RetryPolicy()``
and ``ControlPlane()``) over one whole-trace chunk into a retaining
sink.  The kernel reads the policy through its key: a rack whose apps'
keys all tie is a FIFO rack and takes the FCFS recurrence, any other
rack the key-heap dispatch (see :mod:`repro.cluster.control_engine`).

``tests/test_policy_equivalence.py`` proves this entry bit-identical to
the event-driven oracle — same drops, same latencies, same series, same
RNG end state, same service-pool state — and that tied-key racks take
the FIFO branch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.control_engine import control_kernel, quiet_dynamics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.cluster.schedulers import KeyedPolicy
    from repro.cluster.simulation import RackSimulation, SimulationSeries
    from repro.cluster.trace import RequestTrace


def run_keyed(
    sim: "RackSimulation",
    policy: "KeyedPolicy",
    trace: "RequestTrace",
    sample_interval_seconds: float,
) -> "SimulationSeries":
    """Simulate ``trace`` under ``policy`` with nothing active: the
    control kernel over one whole-trace chunk into a retaining sink."""
    from repro.cluster.simulation import SeriesSink

    sink = SeriesSink(trace, sample_interval_seconds)
    return control_kernel(
        sim, policy, trace, sink, max(len(trace), 1), *quiet_dynamics(sim)
    )

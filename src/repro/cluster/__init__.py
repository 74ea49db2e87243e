"""At-scale datacenter simulation (paper §6.1, §6.2.2, Fig. 13).

A rack of up to 200 function instances fed by a bursty Poisson request
trace for 20 minutes, with a pluggable scheduler holding up to 10,000
queued requests.  Produces the arrival/queue-depth/latency time series
of Fig. 13 and the wall-clock comparison of §6.2.2.  Every scheduling
policy is a :class:`~repro.cluster.policy_keys.PolicyKey` (static
per-app key vector + sequence tie-break), and every one — FCFS, SJF,
criticality, DAG-aware — runs on one rack kernel
(:func:`~repro.cluster.control_engine.control_kernel`), enforced
bit-identical against the event-driven oracles;
:mod:`repro.cluster.sweep` fans scenario grids out over shared traces
and service samples.

Fault injection rides on top: a seeded
:class:`~repro.cluster.faults.FaultSchedule` (instance crashes,
correlated node outages, slowdown spikes) and a
:class:`~repro.cluster.faults.RetryPolicy` (queue timeouts, bounded
retries with backoff + jitter, hedged dispatch) perturb any simulation
deterministically, and change nothing when inert.

A closed-loop control plane (:mod:`repro.cluster.control`) sits above
both: a deterministic controller observes per-tick telemetry and
actuates reactive autoscaling (target-utilization or queue-depth
scaling with warmup delays and graceful scale-downs, composing with
fault timelines as ``min(autoscaled, surviving)``) and overload
protection (token-bucket admission, CoDel-style queue-delay shedding,
brownout by criticality, per-app circuit breakers) — again through an
oracle and the same kernel, proven bit-identical
(:mod:`repro.cluster.control_engine`), with every shed recorded under
the terminal ``shed`` drop reason.  Control subsumes chaos, and chaos
the fault-free rack: a fault/retry run is a control run with an inert
``ControlPlane()``, and a run with nothing active one with an empty
fault timeline and ``RetryPolicy()`` too, which the kernel serves
without its event walk.  :mod:`repro.cluster.fast_engine`,
:mod:`repro.cluster.policy_engine` and :mod:`repro.cluster.chaos_engine`
hold only materialized entries into it, named for the benchmark's
probes.

Rack engines, in all: two event oracles (the fault-free one inside
:class:`~repro.cluster.simulation.RackSimulation` and
:func:`~repro.cluster.control_engine.run_control_event`) and one
kernel, run either materialized — one
whole-trace chunk folded into a retaining
:class:`~repro.cluster.simulation.SeriesSink` — or streamed — bounded
chunks folded into a :class:`~repro.cluster.streaming.StreamedSeries`
(:mod:`repro.cluster.streaming`).  All of them draw service times
through one :mod:`repro.cluster.service_pools` per rack, under one
rule: serial, windowed, read-ahead and bounded draws all consume the
RNG in one order.

The fleet layer (:mod:`repro.cluster.fleet`) scales all of the above to
a multi-rack datacenter: a :class:`~repro.cluster.fleet.FleetTopology`
of independently-seeded racks under a deterministic
:class:`~repro.cluster.fleet.GlobalLoadBalancer` (round-robin /
weighted / hash-affinity) that shards one fleet-level trace *before*
fan-out, so the sharded :class:`~repro.cluster.fleet_engine.FleetRunner`
(process-pool) stitches bit-identically to a serial oracle — per-rack
check hashes plus a merged fleet hash — and fleet tail latency comes
from mergeable :class:`~repro.sim.stats.QuantileSketch` accumulators.
Every rack run — sweep cell, fig13 platform or fleet shard — goes
through :meth:`~repro.cluster.sweep.RackSweep.simulate`.
"""

from repro.cluster.control import (
    SCALING_POLICIES,
    AutoscalerPolicy,
    ControlPlane,
    OverloadPolicy,
    observer_plane,
    warmup_from_coldstart,
)
from repro.cluster.faults import (
    DROP_REASONS,
    FaultSchedule,
    FaultTimeline,
    RetryPolicy,
)
from repro.cluster.fleet import (
    LB_POLICIES,
    FleetTopology,
    GlobalLoadBalancer,
    RackSpec,
    derive_rack_seed,
)
from repro.cluster.fleet_engine import (
    FleetResult,
    FleetRunner,
    RackShardResult,
    series_check_hash,
)
from repro.cluster.policy_keys import (
    KeyedQueue,
    PolicyKey,
    criticality_key,
    dag_key,
    fcfs_key,
    sjf_key,
)
from repro.cluster.schedulers import (
    CriticalityPolicy,
    DAGAwarePolicy,
    FCFSPolicy,
    KeyedPolicy,
    PolicyFactory,
    QueuedRequest,
    ShortestJobFirstPolicy,
)
from repro.cluster.simulation import (
    RackSimulation,
    ServiceSampleCache,
    SimulationSeries,
)
from repro.cluster.sweep import (
    RackScenario,
    RackSweep,
    ScenarioResult,
    scenario_grid,
)
from repro.cluster.trace import RequestTrace, TraceGenerator

__all__ = [
    "AutoscalerPolicy",
    "ControlPlane",
    "CriticalityPolicy",
    "DAGAwarePolicy",
    "DROP_REASONS",
    "FCFSPolicy",
    "OverloadPolicy",
    "SCALING_POLICIES",
    "FaultSchedule",
    "FaultTimeline",
    "FleetResult",
    "FleetRunner",
    "FleetTopology",
    "GlobalLoadBalancer",
    "LB_POLICIES",
    "RackShardResult",
    "RackSpec",
    "RetryPolicy",
    "derive_rack_seed",
    "series_check_hash",
    "KeyedPolicy",
    "KeyedQueue",
    "PolicyFactory",
    "PolicyKey",
    "QueuedRequest",
    "RackScenario",
    "RackSimulation",
    "RackSweep",
    "RequestTrace",
    "ScenarioResult",
    "ServiceSampleCache",
    "ShortestJobFirstPolicy",
    "SimulationSeries",
    "TraceGenerator",
    "criticality_key",
    "dag_key",
    "fcfs_key",
    "observer_plane",
    "scenario_grid",
    "sjf_key",
    "warmup_from_coldstart",
]

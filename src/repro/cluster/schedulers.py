"""Pluggable request-scheduling policies for the rack simulator.

The paper's deployed system uses FCFS (§5.3) and explicitly calls out
optimized scheduling as future work: *"scheduling functions based on their
criticality and importance can enhance the performance ... Likewise,
scheduling policies that consider the whole serverless application DAG"*.
This module implements that future work as alternative policies:

- :class:`FCFSPolicy` — the paper's baseline: strict arrival order.
- :class:`ShortestJobFirstPolicy` — picks the queued request with the
  smallest expected service time (from per-application latency estimates).
- :class:`CriticalityPolicy` — priority classes with FCFS inside a class;
  long-running/critical applications can be boosted.
- :class:`DAGAwarePolicy` — prefers applications with many acceleratable
  functions (deep pipelines gain the most from DSCS, Fig. 16), breaking
  ties by arrival.

Every policy is a :class:`KeyedPolicy`: a declarative
:class:`~repro.cluster.policy_keys.PolicyKey` (static per-app key vector,
sequence tie-break) driving a heap-backed
:class:`~repro.cluster.policy_keys.KeyedQueue` — O(log queue) per
dispatch where the old imperative implementations paid a linear ``min``
+ ``list.remove``.  The same key object also drives the rack kernel
(:func:`~repro.cluster.control_engine.control_kernel`), so the two
backends cannot drift apart on what a policy *means*.  It is the one
policy contract: every engine rejects anything else, and shows a
policy's coverage hook the trace's application catalog once, when the
run starts.

Policies only reorder the queue; admission (queue depth) and the
run-to-completion execution model stay exactly as in the paper.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.cluster.policy_keys import (
    DEFAULT_CRITICALITY,
    KeyedQueue,
    PolicyKey,
    criticality_key,
    dag_key,
    fcfs_key,
    sjf_key,
)
from repro.errors import SchedulingError
from repro.serverless.application import Application

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QueuedRequest:
    """A request waiting in the scheduler queue."""

    arrival: float
    app_name: str
    sequence: int  # admission order, for stable tie-breaking


class KeyedPolicy:
    """A scheduling policy defined entirely by its :class:`PolicyKey`.

    ``pop`` returns the queued request minimizing
    ``(*key.key_for(app), sequence)`` — the declarative core every
    concrete policy shares.  Subclasses configure the key and may
    override the coverage hook for coverage accounting.
    """

    def __init__(self, key: PolicyKey) -> None:
        self.key = key
        self._queue = KeyedQueue()

    def sort_key(self, request: QueuedRequest) -> Tuple:
        return (*self.key.key_for(request.app_name), request.sequence)

    def observe_app(self, app_name: str) -> None:
        """Coverage hook; the base policy has nothing to record.

        When a run starts,
        :meth:`~repro.cluster.simulation.RackSimulation.run` calls it
        once per application the trace's catalog names, in catalog
        order, on every engine and before any service draw — whether or
        not any of the app's requests is admitted.  Nothing else calls
        it (``push`` does not), and it must not touch the queue or the
        key.
        """

    def push(self, request: QueuedRequest) -> None:
        self._queue.push(self.sort_key(request), request)

    def pop(self) -> QueuedRequest:
        if not self._queue:
            raise SchedulingError(
                f"pop from empty {self.key.name} queue"
            )
        return self._queue.pop()

    def __len__(self) -> int:
        return len(self._queue)


class FCFSPolicy(KeyedPolicy):
    """First-come-first-serve — the paper's deployed policy (§5.3).

    Its key is the empty vector, so ``(sequence,)`` order alone decides
    — which a deque realises in O(1) per operation instead of the
    general heap's O(log queue).  Pop order is identical either way.
    """

    def __init__(self) -> None:
        super().__init__(fcfs_key())
        self._fifo: Deque[QueuedRequest] = deque()

    def push(self, request: QueuedRequest) -> None:
        self._fifo.append(request)

    def pop(self) -> QueuedRequest:
        if not self._fifo:
            raise SchedulingError("pop from empty fcfs queue")
        return self._fifo.popleft()

    def __len__(self) -> int:
        return len(self._fifo)


class ShortestJobFirstPolicy(KeyedPolicy):
    """Serve the queued request with the smallest expected service time.

    ``service_estimates`` maps application name to an expected latency
    (seconds); unknown applications sort last.  Ties break by admission
    order so the policy is deterministic and starvation-bounded for equal
    estimates.

    Applications the trace names without an estimate are logged once
    and collected in :attr:`unknown_apps` when the run starts (the
    coverage hook sees the trace's catalog), so sweeps can assert their
    estimate tables actually cover the trace — whether the fleet
    congests or not, and whatever became of the app's requests.
    """

    def __init__(self, service_estimates: Dict[str, float]) -> None:
        super().__init__(sjf_key(service_estimates))
        self._unknown: set = set()

    def observe_app(self, app_name: str) -> None:
        if app_name not in self._unknown and not self.key.knows(app_name):
            self._unknown.add(app_name)
            logger.warning(
                "SJF has no service estimate for %r; it will sort last",
                app_name,
            )

    @property
    def unknown_apps(self) -> Tuple[str, ...]:
        """Observed apps without an estimate, in sorted order."""
        return tuple(sorted(self._unknown))


class CriticalityPolicy(KeyedPolicy):
    """Priority classes (lower number = more critical), FCFS within class.

    Implements the paper's "criticality and importance" suggestion: e.g.
    wildfire Remote Sensing can pre-empt queue position over batch-style
    Credit Risk scoring (never pre-empting *running* functions — execution
    stays run-to-completion as in the paper).  The priority map must be
    non-empty with integer values; an empty map would silently degenerate
    to FCFS.
    """

    def __init__(
        self,
        priorities: Dict[str, int],
        default_priority: int = DEFAULT_CRITICALITY,
    ) -> None:
        super().__init__(criticality_key(priorities, default_priority))

    def priority_of(self, app_name: str) -> int:
        return int(self.key.key_for(app_name)[0])


class DAGAwarePolicy(KeyedPolicy):
    """Prefer applications whose DAGs have more acceleratable functions.

    Deep pipelines benefit most from DSCS (paper Fig. 16), so running them
    on the accelerated fleet first maximises fleet-level gain.
    """

    def __init__(self, applications: Dict[str, Application]) -> None:
        super().__init__(dag_key(applications))

    def accelerated_functions(self, app_name: str) -> int:
        return -int(self.key.key_for(app_name)[0])


@dataclass
class PolicyFactory:
    """Builds a fresh policy instance per simulation run."""

    name: str = "fcfs"
    service_estimates: Optional[Dict[str, float]] = None
    priorities: Optional[Dict[str, int]] = None
    applications: Optional[Dict[str, Application]] = field(default=None)

    def build(self) -> KeyedPolicy:
        if self.name == "fcfs":
            return FCFSPolicy()
        if self.name == "sjf":
            if self.service_estimates is None:
                raise SchedulingError("sjf policy requires service_estimates")
            return ShortestJobFirstPolicy(self.service_estimates)
        if self.name == "criticality":
            if not self.priorities:
                raise SchedulingError(
                    "criticality policy requires a non-empty priorities map"
                )
            return CriticalityPolicy(self.priorities)
        if self.name == "dag":
            if self.applications is None:
                raise SchedulingError("dag policy requires applications")
            return DAGAwarePolicy(self.applications)
        raise SchedulingError(f"unknown scheduling policy {self.name!r}")

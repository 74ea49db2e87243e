"""FROZEN: the pre-priority-key scheduling policies, kept as oracles.

These are the imperative policy implementations the priority-key
refactor (``cluster/policy_keys.py`` / ``cluster/schedulers.py``)
retired: an append-only list with a linear ``min`` + ``list.remove``
pop — O(queue) per dispatch, quadratic under saturation.  They are kept
**verbatim** as reference oracles: ``tests/test_policy_property.py``
replays randomized push/pop streams through them and the heap-backed
policies, asserting identical pop order.  They have push/pop/len only,
so a :class:`~repro.cluster.simulation.RackSimulation` rejects them.

Do not modernise, optimise, or otherwise change the behaviour of this
module — its whole value is staying exactly what the seed shipped.  New
policies belong in :mod:`repro.cluster.policy_keys`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.schedulers import QueuedRequest
from repro.errors import SchedulingError
from repro.serverless.application import Application


class LinearFCFSPolicy:
    """First-come-first-serve over a plain deque-less list."""

    def __init__(self) -> None:
        self._queue: List[QueuedRequest] = []

    def push(self, request: QueuedRequest) -> None:
        self._queue.append(request)

    def pop(self) -> QueuedRequest:
        if not self._queue:
            raise SchedulingError("pop from empty FCFS queue")
        return self._queue.pop(0)

    def __len__(self) -> int:
        return len(self._queue)


class LinearShortestJobFirstPolicy:
    """SJF with a linear ``min`` + ``list.remove`` pop."""

    def __init__(self, service_estimates: Dict[str, float]) -> None:
        if not service_estimates:
            raise SchedulingError("SJF needs at least one service estimate")
        for app, estimate in service_estimates.items():
            if estimate <= 0:
                raise SchedulingError(
                    f"non-positive service estimate for {app!r}: {estimate}"
                )
        self._estimates = dict(service_estimates)
        self._queue: List[QueuedRequest] = []

    def _key(self, request: QueuedRequest):
        estimate = self._estimates.get(request.app_name, float("inf"))
        return (estimate, request.sequence)

    def push(self, request: QueuedRequest) -> None:
        self._queue.append(request)

    def pop(self) -> QueuedRequest:
        if not self._queue:
            raise SchedulingError("pop from empty SJF queue")
        best = min(self._queue, key=self._key)
        self._queue.remove(best)
        return best

    def __len__(self) -> int:
        return len(self._queue)


class LinearCriticalityPolicy:
    """Priority classes with a linear scan, FCFS within a class."""

    def __init__(
        self, priorities: Dict[str, int], default_priority: int = 10
    ) -> None:
        self._priorities = dict(priorities)
        self._default = default_priority
        self._queue: List[QueuedRequest] = []

    def priority_of(self, app_name: str) -> int:
        return self._priorities.get(app_name, self._default)

    def push(self, request: QueuedRequest) -> None:
        self._queue.append(request)

    def pop(self) -> QueuedRequest:
        if not self._queue:
            raise SchedulingError("pop from empty criticality queue")
        best = min(
            self._queue,
            key=lambda r: (self.priority_of(r.app_name), r.sequence),
        )
        self._queue.remove(best)
        return best

    def __len__(self) -> int:
        return len(self._queue)


class LinearDAGAwarePolicy:
    """DAG-aware preference with a linear scan."""

    def __init__(self, applications: Dict[str, Application]) -> None:
        if not applications:
            raise SchedulingError("DAG-aware policy needs the application set")
        self._accelerated_counts = {
            name: len(app.accelerated_functions)
            for name, app in applications.items()
        }
        self._queue: List[QueuedRequest] = []

    def accelerated_functions(self, app_name: str) -> int:
        return self._accelerated_counts.get(app_name, 0)

    def push(self, request: QueuedRequest) -> None:
        self._queue.append(request)

    def pop(self) -> QueuedRequest:
        if not self._queue:
            raise SchedulingError("pop from empty DAG-aware queue")
        best = min(
            self._queue,
            key=lambda r: (-self.accelerated_functions(r.app_name), r.sequence),
        )
        self._queue.remove(best)
        return best

    def __len__(self) -> int:
        return len(self._queue)

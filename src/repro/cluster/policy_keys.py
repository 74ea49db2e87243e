"""The priority-key core behind every scheduling policy.

Each of the rack scheduler's policies — FCFS (the paper's deployed
baseline, §5.3), shortest-job-first, criticality classes, DAG-aware —
is secretly the same algorithm: serve the queued request with the
smallest *static per-application key vector*, breaking ties by admission
sequence.  This module makes that structure explicit:

- :class:`PolicyKey` — a declarative policy description: a name, a
  per-application key vector (validated at construction), and a default
  vector for applications the policy was not configured with.  The full
  sort key of a queued request is ``(*key_for(app), sequence)``, a
  strict total order.
- :func:`fcfs_key` / :func:`sjf_key` / :func:`criticality_key` /
  :func:`dag_key` — the four concrete keys, each owning its own input
  validation.
- :class:`KeyedQueue` — a heap-backed priority queue with lazy deletion
  (the :class:`~repro.sim.event_queue.EventQueue` pattern generalized to
  arbitrary sort keys), turning the O(queue) linear ``min`` +
  ``list.remove`` pop of the old imperative policies into O(log queue).

Two backends consume a :class:`PolicyKey`: the event-driven simulator
(via :mod:`repro.cluster.schedulers`, whose policy classes are now thin
wrappers over ``KeyedQueue``) and the rack kernel,
:func:`~repro.cluster.control_engine.control_kernel`, which serves
congested stretches in the same ``(*key, sequence)`` order: on a
primitive heap, or by the FCFS recurrence when every key of the trace
ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import SchedulingError

# Priority class assigned to applications absent from a criticality map.
DEFAULT_CRITICALITY = 10


@dataclass(frozen=True)
class PolicyKey:
    """A scheduling policy as data: static per-app key vectors.

    ``app_keys`` maps application name to its key vector; applications
    not in the map key to ``default_key``.  Lower vectors are served
    first; equal vectors fall back to admission sequence, so the induced
    order over queued requests is strict and deterministic.
    """

    name: str
    app_keys: Mapping[str, Tuple[float, ...]]
    default_key: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("policy key needs a non-empty name")
        object.__setattr__(self, "app_keys", dict(self.app_keys))
        object.__setattr__(
            self, "default_key", tuple(self.default_key)
        )
        width = len(self.default_key)
        for component in self.default_key:
            if math.isnan(component):
                raise SchedulingError(
                    f"{self.name}: NaN default-key component "
                    "(NaN breaks the total order)"
                )
        for app, vector in self.app_keys.items():
            if len(vector) != width:
                raise SchedulingError(
                    f"{self.name}: key vector for {app!r} has width "
                    f"{len(vector)}, expected {width}"
                )
            for component in vector:
                if math.isnan(component):
                    raise SchedulingError(
                        f"{self.name}: NaN key component for {app!r} "
                        "(NaN breaks the total order)"
                    )

    @property
    def width(self) -> int:
        """Number of components in every key vector."""
        return len(self.default_key)

    def key_for(self, app_name: str) -> Tuple[float, ...]:
        """The static key vector for one application."""
        return self.app_keys.get(app_name, self.default_key)

    def knows(self, app_name: str) -> bool:
        """Whether the policy was configured with this application."""
        return app_name in self.app_keys


def fcfs_key() -> PolicyKey:
    """FCFS as a key: the empty vector — sequence order decides alone."""
    return PolicyKey(name="fcfs", app_keys={}, default_key=())


def sjf_key(service_estimates: Mapping[str, float]) -> PolicyKey:
    """Shortest-job-first: key by expected service time.

    Unknown applications key to ``+inf`` and therefore sort last.
    """
    if not service_estimates:
        raise SchedulingError("SJF needs at least one service estimate")
    app_keys: Dict[str, Tuple[float, ...]] = {}
    for app, estimate in service_estimates.items():
        estimate = float(estimate)
        if estimate <= 0:
            raise SchedulingError(
                f"non-positive service estimate for {app!r}: {estimate}"
            )
        app_keys[app] = (estimate,)
    return PolicyKey(
        name="sjf", app_keys=app_keys, default_key=(float("inf"),)
    )


def criticality_key(
    priorities: Mapping[str, int],
    default_priority: int = DEFAULT_CRITICALITY,
) -> PolicyKey:
    """Criticality classes: key by priority (lower = more critical).

    A criticality policy with no priorities is FCFS with extra steps —
    almost certainly a configuration mistake — so an empty map is
    rejected, as are non-integer priority values.
    """
    if not priorities:
        raise SchedulingError(
            "criticality policy requires a non-empty priority map "
            "(an empty one degenerates to FCFS)"
        )
    app_keys: Dict[str, Tuple[float, ...]] = {}
    for app, priority in priorities.items():
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise SchedulingError(
                f"non-integer priority for {app!r}: {priority!r}"
            )
        app_keys[app] = (float(priority),)
    if isinstance(default_priority, bool) or not isinstance(
        default_priority, int
    ):
        raise SchedulingError(
            f"non-integer default priority: {default_priority!r}"
        )
    return PolicyKey(
        name="criticality",
        app_keys=app_keys,
        default_key=(float(default_priority),),
    )


def dag_key(applications: Mapping[str, Any]) -> PolicyKey:
    """DAG-aware: key by negated acceleratable-function count.

    Deep pipelines gain the most from DSCS (paper Fig. 16), so more
    acceleratable functions means a smaller key, i.e. served earlier.
    """
    if not applications:
        raise SchedulingError("DAG-aware policy needs the application set")
    app_keys = {
        name: (-float(len(app.accelerated_functions)),)
        for name, app in applications.items()
    }
    return PolicyKey(name="dag", app_keys=app_keys, default_key=(0.0,))


# Entries are plain lists (not dataclasses) so ``heapq`` sifts compare
# raw sort-key tuples — the hot path of every event-driven dispatch.
# Layout: [sort_key, item, cancelled].
_SORT, _ITEM, _CANCELLED = 0, 1, 2


@dataclass
class KeyedHandle:
    """An opaque handle for :meth:`KeyedQueue.cancel` (lazy deletion)."""

    _entry: list = field(repr=False)

    @property
    def cancelled(self) -> bool:
        return self._entry[_CANCELLED]


class KeyedQueue:
    """Min-heap over caller-supplied sort keys, with lazy deletion.

    The generalization of :class:`~repro.sim.event_queue.EventQueue`
    from ``(time, insertion order)`` to arbitrary totally ordered keys:
    callers push ``(sort_key, item)`` pairs where ``sort_key`` must be
    unique per entry (policies append the admission sequence, which is).
    ``cancel`` marks an entry dead in O(1); dead entries are skipped on
    ``pop``/``peek``, so a cancelled request costs nothing until its key
    surfaces.
    """

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, sort_key: Tuple, item: Any) -> KeyedHandle:
        """Insert ``item`` under ``sort_key``; returns a cancel handle."""
        entry = [sort_key, item, False]
        heappush(self._heap, entry)
        self._live += 1
        return KeyedHandle(entry)

    def cancel(self, handle: KeyedHandle) -> None:
        """Mark a previously pushed entry as removed (lazy deletion)."""
        entry = handle._entry
        if not entry[_CANCELLED]:
            entry[_CANCELLED] = True
            self._live -= 1

    def pop(self) -> Any:
        """Remove and return the live item with the smallest sort key."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if not entry[_CANCELLED]:
                self._live -= 1
                return entry[_ITEM]
        raise SchedulingError("pop from empty keyed queue")

    def peek(self) -> Optional[Any]:
        """The live item with the smallest sort key, or ``None``."""
        heap = self._heap
        while heap and heap[0][_CANCELLED]:
            heappop(heap)
        if not heap:
            return None
        return heap[0][_ITEM]

"""Model graph: an ordered chain of operators with aggregate accounting.

The benchmarks in Table 1 are all feed-forward inference pipelines, so the
graph is a validated linear chain (each op consumes the previous op's
output).  Residual/branchy structures (ResNet blocks, attention) are modeled
by their constituent ops in execution order — what matters to the simulator
is the per-op work and tensor traffic, not the wiring of skip connections,
whose extra elementwise adds *are* represented explicitly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.errors import ShapeError
from repro.models.ops import Op
from repro.models.tensor import TensorSpec


@dataclass(frozen=True)
class GraphStats:
    """Aggregate work/footprint numbers for a model graph."""

    num_ops: int
    num_matrix_ops: int
    num_vector_ops: int
    total_macs: int
    total_flops: int
    total_vector_elements: int
    weight_bytes: int
    input_bytes: int
    output_bytes: int
    peak_activation_bytes: int

    @property
    def parameters(self) -> int:
        """Approximate parameter count assuming int8 storage."""
        return self.weight_bytes


class Graph:
    """A named, validated chain of operators."""

    def __init__(self, name: str, ops: Sequence[Op]) -> None:
        if not name:
            raise ShapeError("graph must have a non-empty name")
        if not ops:
            raise ShapeError(f"graph {name!r} must contain at least one op")
        self.name = name
        self._ops: List[Op] = list(ops)
        self._validate()

    def _validate(self) -> None:
        names = set()
        for op in self._ops:
            if op.name in names:
                raise ShapeError(
                    f"graph {self.name!r} has duplicate op name {op.name!r}"
                )
            names.add(op.name)
        for prev, nxt in zip(self._ops, self._ops[1:]):
            produced = prev.infer_output()
            consumed = nxt.input
            if produced.shape != consumed.shape:
                raise ShapeError(
                    f"graph {self.name!r}: op {nxt.name!r} consumes shape "
                    f"{consumed.shape} but {prev.name!r} produces {produced.shape}"
                )
            if produced.dtype != consumed.dtype:
                raise ShapeError(
                    f"graph {self.name!r}: dtype mismatch between "
                    f"{prev.name!r} ({produced.dtype.label}) and "
                    f"{nxt.name!r} ({consumed.dtype.label})"
                )

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops)

    @property
    def ops(self) -> List[Op]:
        """The operators in execution order (copy)."""
        return list(self._ops)

    def fingerprint(self) -> str:
        """Stable content hash of the graph (name + ordered op fields).

        Ops are frozen dataclasses with deterministic ``repr``, so hashing
        their reprs identifies the compilation input exactly.  Used as the
        graph half of the cross-sweep compiled-program cache key; stable
        across processes (unlike ``hash``), so process-pool sweep workers
        agree on it.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            digest = hashlib.sha1(self.name.encode())
            for op in self._ops:
                digest.update(repr(op).encode())
            cached = digest.hexdigest()
            self._fingerprint = cached
        return cached

    @property
    def input(self) -> TensorSpec:
        """The graph's external input tensor."""
        return self._ops[0].input

    @property
    def output(self) -> TensorSpec:
        """The graph's final output tensor."""
        return self._ops[-1].infer_output()

    def stats(self) -> GraphStats:
        """Aggregate statistics over the whole graph.

        Graphs are immutable, so the statistics are computed once and
        memoized like :meth:`fingerprint`.
        """
        cached = getattr(self, "_stats", None)
        if cached is None:
            cached = self._compute_stats()
            self._stats = cached
        return cached

    def _compute_stats(self) -> GraphStats:
        total_macs = 0
        total_flops = 0
        total_vec = 0
        weight_bytes = 0
        peak_act = self.input.size_bytes
        n_matrix = 0
        for op in self._ops:
            total_macs += op.macs()
            total_flops += op.flops()
            total_vec += op.vector_elements()
            weight_bytes += op.weight_bytes()
            out = op.infer_output()
            live = op.input.size_bytes + out.size_bytes
            peak_act = max(peak_act, live)
            if op.is_matrix_op:
                n_matrix += 1
        return GraphStats(
            num_ops=len(self._ops),
            num_matrix_ops=n_matrix,
            num_vector_ops=len(self._ops) - n_matrix,
            total_macs=total_macs,
            total_flops=total_flops,
            total_vector_elements=total_vec,
            weight_bytes=weight_bytes,
            input_bytes=self.input.size_bytes,
            output_bytes=self.output.size_bytes,
            peak_activation_bytes=peak_act,
        )

    def with_batch(self, batch: int) -> "Graph":
        """Return a copy of this graph with the leading dim scaled by ``batch``.

        Used by the batch-size sensitivity study (Fig. 14).  Ops whose input
        rank carries an explicit batch dimension get it multiplied; weight
        footprints are unchanged, which is precisely the weight-reuse effect
        the paper exploits.
        """
        if batch <= 0:
            raise ShapeError(f"batch must be positive, got {batch}")
        if batch == 1:
            return self
        import dataclasses

        new_ops: List[Op] = []
        for op in self._ops:
            old_shape = op.input.shape
            new_shape = (old_shape[0] * batch,) + old_shape[1:]
            new_input = op.input.with_shape(new_shape)
            changes = {"input": new_input}
            if hasattr(op, "target_shape"):
                old_target = op.target_shape  # type: ignore[attr-defined]
                changes["target_shape"] = (old_target[0] * batch,) + old_target[1:]
            new_ops.append(dataclasses.replace(op, **changes))
        return Graph(f"{self.name}@b{batch}", new_ops)

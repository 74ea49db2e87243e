"""Columnar (packed) program representation and vectorized timing kernels.

The scalar :meth:`~repro.accelerator.simulator.CycleSimulator.run` walks one
Python instruction object at a time; for design-space sweeps that interpreter
loop dominates wall-clock.  This module lowers a
:class:`~repro.accelerator.isa.Program` into numpy columns once — opcode,
DMA bytes, tile dims, element counts, fused flags — and evaluates the
DMA/compute interleave for any design point with vectorized kernels.

The interleave recurrence tracked by the scalar simulator is a pair of
clocks ``(dma_done, compute_done)`` updated per instruction with ``+`` and
``max``.  Every instruction is therefore a linear operator in the
(max, +) semiring acting on that clock pair:

====================  =======================================
LoadTile              ``D' = D + d``
StoreTile             ``D' = max(D, C) + d``
GemmTile / VectorOp   ``C' = max(C, D) + c`` (unfused)
VectorOp (fused)      ``C' = C + c``
Sync                  ``D' = C' = max(D, C)``
====================  =======================================

Max-plus matrix products are associative, so the final clock pair is the
ordered product of per-instruction 2x2 matrices.  Only stores and syncs
let the DMA clock read the compute clock, so the product is not formed per
instruction: the stores and syncs cut the stream into stretches, each
stretch's product has a closed form in prefix sums of the cycle columns
(see :func:`interleave_cycles`), and only the ``#stores + #syncs + 1``
stretch matrices go through a vectorized pairwise tree reduction: O(n)
work in a fixed number of whole-column numpy passes plus O(log k) passes
over the k stretches, with no per-instruction Python.  Costs are integers
well below 2**53, so float64 max/add arithmetic is exact and the result is
bit-identical to the scalar interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.accelerator.config import DSAConfig
from repro.accelerator.isa import (
    GemmTile,
    Halt,
    LoadTile,
    Program,
    StoreTile,
    Sync,
    VectorOp,
)
from repro.accelerator.vpu import PASS_OVERHEAD_CYCLES
from repro.errors import SimulationError

# Opcodes of the packed stream.  Halt is not represented: packing truncates
# at the first Halt, exactly where the scalar interpreter stops.
OP_LOAD = 0
OP_STORE = 1
OP_GEMM = 2
OP_VOP = 3
OP_SYNC = 4

_NEG = -np.inf


@dataclass(frozen=True)
class PackedProgram:
    """A :class:`Program` lowered to design-point-independent numpy columns.

    Columns hold one row per instruction (Halt excluded); the per-opcode
    columns (DMA bytes, tile dims, element counts) are zero on the rows of
    other opcodes.  Everything that depends on the design point — DMA
    cycles, systolic pass cycles, SIMD pass cycles — is derived per config
    by :func:`cycle_prefix_sums`, so a single packing is reusable across
    every config that shares the tiling (the cross-sweep program cache
    exploits exactly that).
    """

    model_name: str
    opcodes: np.ndarray  # uint8, one of OP_*
    op_ids: np.ndarray  # int32 index into op_names (-1 for Sync)
    num_bytes: np.ndarray  # int64 DMA payload (loads/stores)
    gemm_m: np.ndarray  # int64 logical tile dims (gemms)
    gemm_n: np.ndarray
    gemm_k: np.ndarray
    macs: np.ndarray  # int64 m*n*k (gemms)
    element_ops: np.ndarray  # int64 elements*cost (vector ops)
    fused: np.ndarray  # bool (vector ops)
    sram_bytes: np.ndarray  # int64 scratchpad traffic per instruction
    op_names: Tuple[str, ...]  # first-charge order, mirrors scalar dict order

    def __len__(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def num_sync_segments(self) -> int:
        """Number of barrier-delimited segments in the stream."""
        return int(np.count_nonzero(self.opcodes == OP_SYNC)) + 1

    @property
    def dram_bytes(self) -> int:
        """Total DMA traffic (loads + stores)."""
        return int(self.num_bytes.sum())

    @property
    def total_macs(self) -> int:
        return int(self.macs.sum())

    @property
    def total_element_ops(self) -> int:
        return int(self.element_ops.sum())

    @property
    def total_sram_bytes(self) -> int:
        return int(self.sram_bytes.sum())


def pack_program(program: Program) -> PackedProgram:
    """Lower ``program`` into columnar form (validating it first)."""
    program.validate()

    opcodes: List[int] = []
    op_ids: List[int] = []
    num_bytes: List[int] = []
    gemm_m: List[int] = []
    gemm_n: List[int] = []
    gemm_k: List[int] = []
    macs: List[int] = []
    element_ops: List[int] = []
    fused: List[bool] = []
    sram: List[int] = []
    name_index: Dict[str, int] = {}

    def op_id(name: str) -> int:
        index = name_index.get(name)
        if index is None:
            index = len(name_index)
            name_index[name] = index
        return index

    for instruction in program:
        if isinstance(instruction, LoadTile):
            opcodes.append(OP_LOAD)
            op_ids.append(op_id(instruction.op_name))
            num_bytes.append(instruction.num_bytes)
            gemm_m.append(0)
            gemm_n.append(0)
            gemm_k.append(0)
            macs.append(0)
            element_ops.append(0)
            fused.append(False)
            sram.append(instruction.num_bytes)
        elif isinstance(instruction, StoreTile):
            opcodes.append(OP_STORE)
            op_ids.append(op_id(instruction.op_name))
            num_bytes.append(instruction.num_bytes)
            gemm_m.append(0)
            gemm_n.append(0)
            gemm_k.append(0)
            macs.append(0)
            element_ops.append(0)
            fused.append(False)
            sram.append(instruction.num_bytes)
        elif isinstance(instruction, GemmTile):
            opcodes.append(OP_GEMM)
            op_ids.append(op_id(instruction.op_name))
            num_bytes.append(0)
            gemm_m.append(instruction.m)
            gemm_n.append(instruction.n)
            gemm_k.append(instruction.k)
            macs.append(instruction.macs)
            element_ops.append(0)
            fused.append(False)
            sram.append(
                instruction.m * instruction.k
                + instruction.k * instruction.n
                + instruction.m * instruction.n * 4
            )
        elif isinstance(instruction, VectorOp):
            opcodes.append(OP_VOP)
            op_ids.append(op_id(instruction.op_name))
            num_bytes.append(0)
            gemm_m.append(0)
            gemm_n.append(0)
            gemm_k.append(0)
            macs.append(0)
            element_ops.append(instruction.elements * instruction.cost_per_element)
            fused.append(instruction.fused)
            sram.append(instruction.elements * 2)
        elif isinstance(instruction, Sync):
            opcodes.append(OP_SYNC)
            op_ids.append(-1)
            num_bytes.append(0)
            gemm_m.append(0)
            gemm_n.append(0)
            gemm_k.append(0)
            macs.append(0)
            element_ops.append(0)
            fused.append(False)
            sram.append(0)
        elif isinstance(instruction, Halt):
            break
        else:  # pragma: no cover - defensive, mirrors the scalar path
            raise SimulationError(f"unknown instruction {instruction!r}")

    return PackedProgram(
        model_name=program.model_name,
        opcodes=np.asarray(opcodes, dtype=np.uint8),
        op_ids=np.asarray(op_ids, dtype=np.int32),
        num_bytes=np.asarray(num_bytes, dtype=np.int64),
        gemm_m=np.asarray(gemm_m, dtype=np.int64),
        gemm_n=np.asarray(gemm_n, dtype=np.int64),
        gemm_k=np.asarray(gemm_k, dtype=np.int64),
        macs=np.asarray(macs, dtype=np.int64),
        element_ops=np.asarray(element_ops, dtype=np.int64),
        fused=np.asarray(fused, dtype=bool),
        sram_bytes=np.asarray(sram, dtype=np.int64),
        op_names=tuple(name_index),
    )


def cycle_prefix_sums(
    packed: PackedProgram, config: DSAConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Exclusive prefix sums ``(dma_before, compute_before)`` of the
    per-instruction cycles for ``config``.

    ``dma_before[i]`` is the DMA cycles of rows ``< i``; both arrays have
    ``len(packed) + 1`` entries, so the last one is the busy total.  The
    per-instruction costs replicate the scalar models exactly:
    ``ceil(bytes / bytes_per_cycle)`` for DMA (same float64 division/ceil
    as ``math.ceil`` on floats), ``k + m + pe_rows + pe_cols`` for a
    systolic pass, and ``overhead + ceil(element_ops / lanes)`` for a SIMD
    pass.  A column is zero on the rows of the other opcodes, so the costs
    come from whole-column arithmetic; the sums stay integers below 2**53,
    where float64 addition is exact.
    """
    bytes_per_cycle = config.memory.bytes_per_cycle(config.frequency_hz)
    if bytes_per_cycle <= 0:
        raise SimulationError("memory bandwidth yields zero bytes/cycle")

    bad = (packed.opcodes == OP_GEMM) & (
        (packed.gemm_k > config.pe_rows) | (packed.gemm_n > config.pe_cols)
    )
    if bad.any():
        first = int(np.argmax(bad))
        raise SimulationError(
            f"tile k={int(packed.gemm_k[first])} n={int(packed.gemm_n[first])} "
            f"exceeds array {config.pe_rows}x{config.pe_cols}"
        )

    n = len(packed)
    # Each column is built in place behind a leading zero, then summed.
    dma_before = np.zeros(n + 1)
    dma = dma_before[1:]
    np.divide(packed.num_bytes, bytes_per_cycle, out=dma)
    np.ceil(dma, out=dma)
    np.cumsum(dma, out=dma)

    # Fixed cycles per opcode: a systolic pass fills and drains the array,
    # a SIMD pass pays its issue overhead.
    fixed = np.zeros(OP_SYNC + 1)
    fixed[OP_GEMM] = config.pe_rows + config.pe_cols
    fixed[OP_VOP] = PASS_OVERHEAD_CYCLES
    compute_before = np.zeros(n + 1)
    compute = compute_before[1:]
    np.divide(packed.element_ops, config.lanes, out=compute)
    np.ceil(compute, out=compute)
    compute += packed.gemm_k
    compute += packed.gemm_m
    compute += fixed.take(packed.opcodes)
    np.cumsum(compute, out=compute)
    return dma_before, compute_before


def _maxplus_product(
    a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]
) -> Tuple[np.ndarray, ...]:
    """Elementwise max-plus product ``a @ b`` of stacked 2x2 matrices."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        np.maximum(a00 + b00, a01 + b10),
        np.maximum(a00 + b01, a01 + b11),
        np.maximum(a10 + b00, a11 + b10),
        np.maximum(a10 + b01, a11 + b11),
    )


def interleave_cycles(
    packed: PackedProgram, dma_before: np.ndarray, compute_before: np.ndarray
) -> Tuple[int, int]:
    """Final ``(dma_done, compute_done)`` clocks of the interleaved stream.

    Takes the exclusive cycle prefix sums of :func:`cycle_prefix_sums`.
    Stores and syncs cut the stream into *stretches* of loads and
    computes.  Inside a stretch starting from ``(D, C)`` the loads only add
    to ``D`` and the computes only add to ``C``; a coupled compute (gemm
    or unfused vector op) at row ``j`` first lifts ``C`` to the DMA clock,
    which by then is ``D + L_j`` with ``L_j`` the stretch's load cycles
    before ``j``.  Multiplying the stretch's per-instruction matrices out
    therefore gives, with no approximation, the single matrix

    ``[[L, -inf], [max over coupled j of (L_j + C_j), C]]``

    where ``L``/``C`` are the stretch's load/compute totals and ``C_j`` its
    compute cycles from ``j`` on.  ``L_j + C_j`` is a difference of prefix
    sums, so one segmented max yields every stretch's lower-left entry
    (``-inf`` when a stretch has no coupled compute).  Each stretch is
    folded elementwise with the store or sync that ends it, and the
    ``#stores + #syncs + 1`` matrices are reduced with a pairwise tree
    (padding odd levels with the max-plus identity).
    """
    n = len(packed)
    if n == 0:
        return 0, 0

    opcodes = packed.opcodes
    events = np.flatnonzero((opcodes == OP_STORE) | (opcodes == OP_SYNC))
    starts = np.append(0, events + 1)  # first row of each stretch
    ends = np.append(events, n)  # one past its last row
    dma_start, dma_end = dma_before[starts], dma_before[ends]
    compute_end = compute_before[ends]
    loads = dma_end - dma_start
    computes = compute_end - compute_before[starts]

    # For a coupled row j of a stretch [a, b):
    # L_j + C_j = (dma_before[j] - compute_before[j])
    #             - dma_before[a] + compute_before[b]
    coupled = (opcodes == OP_GEMM) | ((opcodes == OP_VOP) & ~packed.fused)
    lead = np.where(coupled, dma_before[:-1] - compute_before[:-1], _NEG)
    # Reduceat segment s is stretch s plus the event before it, which is
    # never coupled; when the stream opens with an event, segment 0 is
    # that event alone and the empty first stretch gets -inf.
    lead_max = np.maximum.reduceat(lead, np.append(0, events))
    waits = lead_max - dma_start + compute_end

    # Fold each stretch with the event that ends it (the last stretch has
    # none): a store D' = max(D, C) + d keeps C, a sync D' = C' = max(D, C).
    event_dma = dma_start[1:] - dma_end[:-1]
    drained = np.maximum(loads[:-1], waits[:-1])
    is_sync = opcodes[events] == OP_SYNC
    mats = (
        np.append(event_dma + drained, loads[-1]),
        np.append(event_dma + computes[:-1], _NEG),
        np.append(np.where(is_sync, drained, waits[:-1]), waits[-1]),
        computes,
    )
    while mats[0].shape[0] > 1:
        count = mats[0].shape[0]
        if count % 2:
            identity = (
                np.array([0.0]),
                np.array([_NEG]),
                np.array([_NEG]),
                np.array([0.0]),
            )
            mats = tuple(
                np.concatenate([m, i]) for m, i in zip(mats, identity)
            )
        later = tuple(m[1::2] for m in mats)
        earlier = tuple(m[0::2] for m in mats)
        mats = _maxplus_product(later, earlier)

    m00, m01, m10, m11 = (float(m[0]) for m in mats)
    # Initial state is (0, 0), so the final clocks are the row maxima.
    dma_done = max(m00, m01)
    compute_done = max(m10, m11)
    return int(dma_done), int(compute_done)


def per_op_cycles(
    packed: PackedProgram, compute_before: np.ndarray
) -> Dict[str, int]:
    """Per-op charged cycles, in first-charge order like the scalar dict.

    Takes the exclusive compute prefix sums of :func:`cycle_prefix_sums`.
    Loads and stores charge zero cycles (they still surface their op in the
    breakdown); gemm and vector instructions charge their compute cost.
    Rows of one op come in runs, and a run charges the prefix difference
    across it; syncs (op id -1) land in a dropped bin.
    """
    if not packed.op_names:
        return {}
    op_ids = packed.op_ids
    cuts = np.flatnonzero(op_ids[1:] != op_ids[:-1]) + 1
    run_starts = np.append(0, cuts)
    run_ends = np.append(cuts, len(op_ids))
    totals = np.bincount(
        op_ids[run_starts] + 1,
        weights=compute_before[run_ends] - compute_before[run_starts],
        minlength=len(packed.op_names) + 1,
    )
    return {name: int(totals[i + 1]) for i, name in enumerate(packed.op_names)}

"""Cycle-level simulator for compiled DSA programs.

Two resources advance in parallel, exactly as in the paper's design:

- the **DMA engine**, which streams tiles between DRAM and the on-chip
  buffers, and
- the **compute pipeline** (MPU systolic passes and VPU SIMD passes).

The compiler emits tile loads ahead of the compute that consumes them; the
simulator lets the DMA run ahead (double buffering) so steady-state time is
``max(sum(dma), sum(compute))`` with the first tile's load exposed.  A
:class:`~repro.accelerator.isa.Sync` forces both streams to drain — the
compiler emits one wherever double buffering is infeasible (tile working
set too large for the scratchpad), which is precisely how oversized arrays
lose throughput in the paper's DSE (§4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Union

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
from repro.accelerator.packed import (
    PackedProgram,
    cycle_prefix_sums,
    interleave_cycles,
    pack_program,
    per_op_cycles,
)
from repro.accelerator.mpu import MatrixProcessingUnit
from repro.accelerator.power import EnergyBreakdown, PowerModel
from repro.accelerator.vpu import VectorProcessingUnit
from repro.errors import SimulationError


@dataclass(frozen=True)
class ExecutionReport:
    """Result of simulating one program on one design point."""

    model_name: str
    config_label: str
    cycles: int
    latency_s: float
    compute_cycles: int
    dma_cycles: int
    total_macs: int
    total_vector_ops: int
    dram_bytes: int
    energy: EnergyBreakdown
    per_op_cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    # The design point's peak MAC throughput, required so utilisation can
    # never silently default to a wrong denominator.
    _peak_macs_per_cycle: int = field(kw_only=True)

    @property
    def mpu_utilization(self) -> float:
        """Achieved MACs over peak MACs for the whole execution."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / (self.cycles * self._peak_macs_per_cycle)


class CycleSimulator:
    """Executes :class:`Program` streams against a :class:`DSAConfig`.

    Two engines produce bit-identical :class:`ExecutionReport`\\ s:

    - :meth:`run` — the scalar reference interpreter (one Python
      instruction at a time), kept as the correctness oracle;
    - :meth:`run_packed` — the vectorized engine over a
      :class:`~repro.accelerator.packed.PackedProgram`, used by the DSE
      sweeps and the serverless platforms for speed.
    """

    def __init__(self, config: DSAConfig) -> None:
        self._config = config
        self._mpu = MatrixProcessingUnit(config)
        self._vpu = VectorProcessingUnit(config)
        self._power = PowerModel(config)

    @property
    def config(self) -> DSAConfig:
        return self._config

    def _dma_cycles(self, num_bytes: int) -> int:
        bytes_per_cycle = self._config.memory.bytes_per_cycle(
            self._config.frequency_hz
        )
        if bytes_per_cycle <= 0:
            raise SimulationError("memory bandwidth yields zero bytes/cycle")
        return math.ceil(num_bytes / bytes_per_cycle)

    def run(self, program: Program) -> ExecutionReport:
        """Simulate ``program`` and return its execution report."""
        program.validate()

        dma_done = 0  # cycle at which the DMA engine is free
        compute_done = 0  # cycle at which the compute pipeline is free
        compute_busy = 0  # total cycles compute actually worked
        dma_busy = 0
        total_macs = 0
        total_vector_ops = 0
        dram_bytes = 0
        sram_bytes = 0
        per_op: Dict[str, int] = {}

        def charge(op_name: str, cycles: int) -> None:
            per_op[op_name] = per_op.get(op_name, 0) + cycles

        for instruction in program:
            if isinstance(instruction, LoadTile):
                cycles = self._dma_cycles(instruction.num_bytes)
                dma_done += cycles
                dma_busy += cycles
                dram_bytes += instruction.num_bytes
                sram_bytes += instruction.num_bytes
                charge(instruction.op_name, 0)
            elif isinstance(instruction, StoreTile):
                cycles = self._dma_cycles(instruction.num_bytes)
                # A store cannot begin until the data has been produced.
                dma_done = max(dma_done, compute_done) + cycles
                dma_busy += cycles
                dram_bytes += instruction.num_bytes
                sram_bytes += instruction.num_bytes
                charge(instruction.op_name, 0)
            elif isinstance(instruction, GemmTile):
                cycles = self._mpu.tile_cycles(instruction)
                # Compute waits for its operands, which were queued on the
                # DMA engine before this instruction.
                start = max(compute_done, dma_done)
                compute_done = start + cycles
                compute_busy += cycles
                total_macs += instruction.macs
                # Operand/result scratchpad traffic for the systolic pass.
                sram_bytes += (
                    instruction.m * instruction.k
                    + instruction.k * instruction.n
                    + instruction.m * instruction.n * 4
                )
                charge(instruction.op_name, cycles)
            elif isinstance(instruction, VectorOp):
                cycles = self._vpu.op_cycles(instruction)
                if instruction.fused:
                    # Reads the MPU's results from the shared output buffer.
                    start = compute_done
                else:
                    start = max(compute_done, dma_done)
                compute_done = start + cycles
                compute_busy += cycles
                element_ops = instruction.elements * instruction.cost_per_element
                total_vector_ops += element_ops
                sram_bytes += instruction.elements * 2
                charge(instruction.op_name, cycles)
            elif isinstance(instruction, Sync):
                barrier = max(dma_done, compute_done)
                dma_done = barrier
                compute_done = barrier
            elif isinstance(instruction, Halt):
                break
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown instruction {instruction!r}")

        return self._build_report(
            model_name=program.model_name,
            total_cycles=max(dma_done, compute_done),
            compute_busy=compute_busy,
            dma_busy=dma_busy,
            total_macs=total_macs,
            total_vector_ops=total_vector_ops,
            dram_bytes=dram_bytes,
            sram_bytes=sram_bytes,
            per_op=per_op,
        )

    def run_packed(
        self, program: Union[Program, PackedProgram]
    ) -> ExecutionReport:
        """Vectorized execution: bit-identical to :meth:`run`, no per-
        instruction Python loop.

        Accepts either a :class:`Program` (packed on the fly) or an
        already-packed :class:`PackedProgram` — the latter is what the
        cross-sweep program cache hands out, so configs that share tiling
        skip both compilation and packing.
        """
        packed = (
            program
            if isinstance(program, PackedProgram)
            else pack_program(program)
        )
        dma_before, compute_before = cycle_prefix_sums(packed, self._config)
        dma_done, compute_done = interleave_cycles(
            packed, dma_before, compute_before
        )
        return self._build_report(
            model_name=packed.model_name,
            total_cycles=max(dma_done, compute_done),
            compute_busy=int(compute_before[-1]),
            dma_busy=int(dma_before[-1]),
            total_macs=packed.total_macs,
            total_vector_ops=packed.total_element_ops,
            dram_bytes=packed.dram_bytes,
            sram_bytes=packed.total_sram_bytes,
            per_op=per_op_cycles(packed, compute_before),
        )

    def _build_report(
        self,
        model_name: str,
        total_cycles: int,
        compute_busy: int,
        dma_busy: int,
        total_macs: int,
        total_vector_ops: int,
        dram_bytes: int,
        sram_bytes: int,
        per_op: Dict[str, int],
    ) -> ExecutionReport:
        latency_s = self._config.cycles_to_seconds(total_cycles)
        energy = self._power.execution_energy(
            macs=total_macs,
            vector_element_ops=total_vector_ops,
            dram_bytes=dram_bytes,
            sram_bytes=sram_bytes,
            latency_s=latency_s,
        )
        return ExecutionReport(
            model_name=model_name,
            config_label=self._config.label,
            cycles=total_cycles,
            latency_s=latency_s,
            compute_cycles=compute_busy,
            dma_cycles=dma_busy,
            total_macs=total_macs,
            total_vector_ops=total_vector_ops,
            dram_bytes=dram_bytes,
            energy=energy,
            per_op_cycles=per_op,
            _peak_macs_per_cycle=self._config.peak_macs_per_cycle,
        )

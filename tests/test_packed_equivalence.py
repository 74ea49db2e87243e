"""Scalar ↔ packed execution-engine equivalence.

The packed engine must be *bit-identical* to the scalar reference
interpreter: same cycles, same energy, same per-op breakdown — across the
whole model zoo on multiple design points, and on randomized instruction
streams that exercise the Sync/Halt/fused/zero-size edge cases.
"""

import numpy as np
import pytest

from repro.accelerator.config import DDR4, DDR5, HBM2, DSAConfig
from repro.accelerator.isa import (
    GemmTile,
    Halt,
    LoadTile,
    Program,
    StoreTile,
    Sync,
    VectorOp,
)
from repro.accelerator.packed import PackedProgram, pack_program
from repro.accelerator.simulator import CycleSimulator
from repro.compiler.codegen import generate
from repro.errors import SimulationError
from repro.models import zoo
from repro.units import KB, MB

# The full Table 1 model zoo.
ZOO_BUILDERS = {
    "bert_encoder": lambda: zoo.bert_encoder(),
    "dlrm": lambda: zoo.dlrm(),
    "frame_stack_cnn": lambda: zoo.frame_stack_cnn(),
    "gpt2_decoder": lambda: zoo.gpt2_decoder(),
    "image_preprocess": lambda: zoo.image_preprocess(224),
    "inception_v3": lambda: zoo.inception_v3(),
    "logistic_regression": lambda: zoo.logistic_regression(),
    "mlp": lambda: zoo.mlp(),
    "resnet50": lambda: zoo.resnet50(),
    "tabular_preprocess": lambda: zoo.tabular_preprocess(4096, 64),
    "text_preprocess": lambda: zoo.text_preprocess(128),
    "transformer_seq2seq": lambda: zoo.transformer_seq2seq(),
    "unet": lambda: zoo.unet(),
    "vit": lambda: zoo.vit(),
    "yolo_detector": lambda: zoo.yolo_detector(),
}

# Three design points spanning the sweep's behaviours: the paper's chosen
# point (double-buffered), a tiny-scratchpad point that forces the serial
# Sync-per-tile path, and a huge HBM2 array (DMA-rich, few tiles).
DESIGN_POINTS = [
    DSAConfig(),
    DSAConfig(pe_rows=256, pe_cols=256, buffer_bytes=64 * KB, memory=DDR5),
    DSAConfig(pe_rows=512, pe_cols=512, buffer_bytes=32 * MB, memory=HBM2),
]


def assert_reports_identical(scalar, packed):
    assert scalar.cycles == packed.cycles
    assert scalar.latency_s == packed.latency_s
    assert scalar.compute_cycles == packed.compute_cycles
    assert scalar.dma_cycles == packed.dma_cycles
    assert scalar.total_macs == packed.total_macs
    assert scalar.total_vector_ops == packed.total_vector_ops
    assert scalar.dram_bytes == packed.dram_bytes
    assert scalar.energy == packed.energy
    assert scalar.per_op_cycles == packed.per_op_cycles
    assert scalar.mpu_utilization == packed.mpu_utilization
    assert scalar == packed


@pytest.mark.parametrize("model_name", sorted(ZOO_BUILDERS))
@pytest.mark.parametrize(
    "config", DESIGN_POINTS, ids=[c.label for c in DESIGN_POINTS]
)
def test_zoo_equivalence(model_name, config):
    graph = ZOO_BUILDERS[model_name]()
    program = generate(graph, config)
    simulator = CycleSimulator(config)
    assert_reports_identical(
        simulator.run(program), simulator.run_packed(program)
    )


def test_run_packed_accepts_prepacked_program():
    config = DSAConfig()
    program = generate(zoo.mlp(), config)
    packed = pack_program(program)
    assert isinstance(packed, PackedProgram)
    simulator = CycleSimulator(config)
    assert simulator.run_packed(packed) == simulator.run_packed(program)


def test_report_fields_are_plain_ints():
    config = DSAConfig()
    program = generate(zoo.mlp(), config)
    report = CycleSimulator(config).run_packed(program)
    assert type(report.cycles) is int
    assert type(report.compute_cycles) is int
    assert type(report.dma_cycles) is int
    assert all(type(v) is int for v in report.per_op_cycles.values())


def test_oversized_tile_rejected_like_scalar():
    config = DSAConfig(pe_rows=8, pe_cols=8)
    program = Program(
        "bad", [GemmTile("op", m=4, n=16, k=4), Halt("end")]
    )
    simulator = CycleSimulator(config)
    with pytest.raises(SimulationError):
        simulator.run(program)
    with pytest.raises(SimulationError):
        simulator.run_packed(program)


def _random_program(rng: np.random.Generator, config: DSAConfig) -> Program:
    """A random but valid instruction stream with edge cases mixed in."""
    length = int(rng.integers(1, 120))
    instructions = []
    for index in range(length):
        kind = rng.choice(["load", "store", "gemm", "vop", "sync"])
        name = f"op{int(rng.integers(0, 6))}"
        if kind == "load":
            # Zero-byte loads are legal and cost zero DMA cycles.
            num_bytes = int(rng.choice([0, 1, 37, 4096, 1_000_000]))
            instructions.append(LoadTile(name, num_bytes=num_bytes))
        elif kind == "store":
            num_bytes = int(rng.choice([0, 16, 10_000]))
            instructions.append(StoreTile(name, num_bytes=num_bytes))
        elif kind == "gemm":
            # Include boundary tiles that exactly fill the array.
            m = int(rng.choice([1, 7, 64, 500]))
            n = int(rng.choice([1, 3, config.pe_cols]))
            k = int(rng.choice([1, 5, config.pe_rows]))
            instructions.append(GemmTile(name, m=m, n=n, k=k))
        elif kind == "vop":
            elements = int(rng.choice([0, 1, 100, 65_536]))
            cost = int(rng.integers(1, 6))
            fused = bool(rng.integers(0, 2))
            instructions.append(
                VectorOp(
                    name, elements=elements, cost_per_element=cost, fused=fused
                )
            )
        else:
            # Leading, trailing, and repeated Syncs are all legal.
            instructions.append(Sync("barrier"))
    instructions.append(Halt("end"))
    return Program("randomized", instructions)


def _event(rng: np.random.Generator, name: str):
    if rng.integers(0, 2):
        return Sync("barrier")
    num_bytes = int(rng.choice([0, 16, 10_000, 2_000_000]))
    return StoreTile(name, num_bytes=num_bytes)


def _stretch(
    rng: np.random.Generator, config: DSAConfig, name: str, coupled: bool
) -> list:
    """Loads, gemms and vector ops with no store or sync among them.

    Without ``coupled`` it holds only loads and fused vector ops, so no
    compute reads the DMA clock.  The load sizes are capped per stretch,
    so some stretches are DMA-bound and others compute-bound.
    """
    length = int(rng.integers(300, 1500))
    weights = [0.5, 0.3, 0.05, 0.15] if coupled else [0.6, 0, 0, 0.4]
    kinds = rng.choice(4, size=length, p=weights)
    load_sizes = [0, 37, 4096, 65_536, 1_000_000][: int(rng.integers(2, 6))]
    instructions = []
    for kind in kinds:
        if kind == 0:
            num_bytes = int(rng.choice(load_sizes))
            instructions.append(LoadTile(name, num_bytes=num_bytes))
        elif kind == 1:
            m = int(rng.choice([1, 64, 500]))
            n = int(rng.integers(1, config.pe_cols + 1))
            k = int(rng.integers(1, config.pe_rows + 1))
            instructions.append(GemmTile(name, m=m, n=n, k=k))
        else:
            elements = int(rng.choice([0, 100, 65_536]))
            instructions.append(
                VectorOp(name, elements=elements, fused=kind == 3)
            )
    return instructions


def _long_stretch_program(
    rng: np.random.Generator, config: DSAConfig
) -> Program:
    """A DSE-shaped stream: thousands of loads and computes, rare events.

    Compiled sweep programs have at most ~0.15 stores or syncs per row.
    Every draw has leading, trailing and back-to-back events and one
    stretch with no coupled compute.
    """
    stretches = int(rng.integers(3, 6))
    uncoupled = int(rng.integers(0, stretches))
    paired = int(rng.integers(0, stretches + 1))
    instructions = []
    for index in range(stretches + 1):
        name = f"op{index}"
        # Event runs of one to three: the first leads, the last trails.
        events = int(rng.integers(2 if index == paired else 1, 4))
        instructions.extend(_event(rng, name) for _ in range(events))
        if index < stretches:
            instructions.extend(
                _stretch(rng, config, name, coupled=index != uncoupled)
            )
    instructions.append(Halt("end"))
    return Program("long_stretches", instructions)


@pytest.mark.parametrize(
    "draw, seed",
    [pytest.param(_random_program, seed, id=str(seed)) for seed in range(25)]
    + [
        pytest.param(_long_stretch_program, seed, id=f"long-stretch-{seed}")
        for seed in range(12)
    ],
)
def test_randomized_stream_equivalence(draw, seed):
    rng = np.random.default_rng(seed)
    config = DSAConfig(
        pe_rows=int(rng.choice([8, 32, 128])),
        pe_cols=int(rng.choice([8, 64, 128])),
        buffer_bytes=int(rng.choice([64 * KB, 4 * MB])),
        memory=rng.choice([DDR4, DDR5, HBM2]),
    )
    program = draw(rng, config)
    simulator = CycleSimulator(config)
    assert_reports_identical(
        simulator.run(program), simulator.run_packed(program)
    )


def test_single_sync_program():
    config = DSAConfig()
    program = Program("sync_only", [Sync("s"), Halt("end")])
    simulator = CycleSimulator(config)
    assert_reports_identical(
        simulator.run(program), simulator.run_packed(program)
    )
    assert simulator.run_packed(program).cycles == 0


def test_halt_truncates_consistently():
    # run() stops at the Halt; packing truncates there too.
    config = DSAConfig()
    program = Program(
        "p", [LoadTile("op", num_bytes=100), Halt("end")]
    )
    packed = pack_program(program)
    assert len(packed) == 1
    simulator = CycleSimulator(config)
    assert_reports_identical(
        simulator.run(program), simulator.run_packed(packed)
    )


def test_packed_segments_counted():
    config = DSAConfig()
    program = Program(
        "p",
        [
            LoadTile("op", num_bytes=10),
            Sync("s"),
            GemmTile("op", m=1, n=1, k=1),
            Sync("s2"),
            Halt("end"),
        ],
    )
    packed = pack_program(program)
    assert packed.num_sync_segments == 3


@pytest.mark.parametrize("model_name", sorted(ZOO_BUILDERS))
@pytest.mark.parametrize(
    "config", DESIGN_POINTS, ids=[c.label for c in DESIGN_POINTS]
)
def test_direct_lowering_matches_codegen(model_name, config):
    """lower_packed must be column-identical to pack_program(generate())."""
    from repro.compiler.packed_codegen import lower_packed

    graph = ZOO_BUILDERS[model_name]()
    reference = pack_program(generate(graph, config))
    direct = lower_packed(graph, config)
    assert reference.model_name == direct.model_name
    assert reference.op_names == direct.op_names
    for column in (
        "opcodes",
        "op_ids",
        "num_bytes",
        "gemm_m",
        "gemm_n",
        "gemm_k",
        "macs",
        "element_ops",
        "fused",
        "sram_bytes",
    ):
        assert np.array_equal(
            getattr(reference, column), getattr(direct, column)
        ), column

"""Tests for the kernel registry, kernel programs and the synthetic generator."""

import hashlib
from dataclasses import replace

import pytest

from repro.functional.interpreter import run_program
from repro.isa.instructions import InstructionClass
from repro.workloads import KERNEL_NAMES, build_kernel
from repro.workloads.registry import _SPECS
from repro.workloads.synthetic import SyntheticStreamConfig, SyntheticWorkloadGenerator
from repro.workloads.table2_reference import PAPER_TABLE2


EXPECTED_NAMES = {
    "a2time", "aifftr", "aifirf", "aiifft", "basefp", "bitmnp", "cacheb",
    "canrdr", "idctrn", "iirflt", "matrix", "pntrch", "puwmod", "rspeed",
    "tblook", "ttsprk",
}


class TestRegistry:
    def test_all_sixteen_eembc_names_present(self):
        assert set(KERNEL_NAMES) == EXPECTED_NAMES
        assert len(KERNEL_NAMES) == 16

    def test_specs_align_with_paper_table2(self):
        assert set(PAPER_TABLE2) == EXPECTED_NAMES

    def test_laec_unfriendly_flags(self):
        unfriendly = {spec.name for spec in _SPECS.values() if spec.laec_unfriendly}
        assert unfriendly == {"aifftr", "aiifft", "bitmnp", "matrix"}

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            build_kernel("quicksort")

    @pytest.mark.parametrize("scale", [0, -1, float("nan")])
    def test_non_positive_scale_rejected(self, scale):
        # The builders clamp iteration counts: without the check every
        # such scale ran the smallest kernel under a spec of its own.
        with pytest.raises(ValueError, match="kernel scale must be positive"):
            build_kernel("matrix", scale=scale)

    def test_kernel_source_is_assembly_text(self):
        source = _SPECS["matrix"].source(0.1)
        assert ".text" in source and "ld [" in source


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_every_kernel_assembles_and_halts(name):
    program = build_kernel(name, scale=0.05)
    assert len(program.instructions) > 10
    trace = run_program(program, max_instructions=400_000)
    assert trace.halted
    assert len(trace) > 50
    # Every kernel must exercise loads, stores, ALU work and branches.
    assert trace.load_count > 0
    assert trace.count_class(InstructionClass.STORE) > 0
    assert trace.count_class(InstructionClass.BRANCH) > 0


def test_scale_changes_dynamic_length():
    short = run_program(build_kernel("puwmod", scale=0.05))
    long = run_program(build_kernel("puwmod", scale=0.3))
    assert len(long) > len(short)


def test_kernels_are_deterministic():
    a = run_program(build_kernel("tblook", scale=0.05))
    b = run_program(build_kernel("tblook", scale=0.05))
    assert len(a) == len(b)
    assert a.addresses == b.addresses


class TestSyntheticGenerator:
    def _trace(self, **overrides):
        config = SyntheticStreamConfig(instructions=4000, seed=7, **overrides)
        return SyntheticWorkloadGenerator(config).generate()

    def test_length_close_to_requested(self):
        trace = self._trace()
        assert abs(len(trace) - 4000) <= 2

    def test_static_instructions_are_shared_per_shape(self):
        trace = self._trace()
        shapes = {id(instr) for instr in trace.instructions}
        assert len(shapes) == len(set(trace.instructions)) < len(trace) // 10
        assert trace.pcs == [trace.pcs[0] + 4 * i for i in range(len(trace))]

    def test_load_fraction_close_to_target(self):
        trace = self._trace(load_fraction=0.3)
        assert trace.load_fraction == pytest.approx(0.3, abs=0.07)

    def test_dependent_fraction_controllable(self):
        from repro.core.hazards import consumer_distance
        from repro.functional.reference import reference_trace

        low = self._trace(dependent_load_fraction=0.1)
        high = self._trace(dependent_load_fraction=0.9)

        def dependent_share(trace):
            records = reference_trace(trace).instructions
            loads = [d.index for d in records if d.is_load]
            if not loads:
                return 0.0
            flagged = sum(
                1 for i in loads if consumer_distance(records, i, max_distance=2) is not None
            )
            return flagged / len(loads)

        assert dependent_share(high) > dependent_share(low) + 0.4

    def test_deterministic_given_seed(self):
        a = self._trace()
        b = self._trace()
        assert a.addresses == b.addresses


def _stream_digest(trace) -> str:
    """Digest of every column of a synthetic stream: pcs, addresses,
    taken flags, which static instruction each position shares and the
    shape (mnemonic, text, operands) of each static instruction."""
    first_seen = {}
    positions = [first_seen.setdefault(id(instr), len(first_seen)) for instr in trace.instructions]
    statics = list({id(instr): instr for instr in trace.instructions}.values())
    shapes = [
        (i.mnemonic.value, i.text, i.rd, i.rs1, i.rs2, i.imm, i.uses_imm) for i in statics
    ]
    digest = hashlib.sha256()
    for column in (trace.pcs, trace.addresses, list(trace.taken), positions, shapes):
        digest.update(repr(column).encode())
        digest.update(b"|")
    return digest.hexdigest()[:16]


#: Ablation A2's nine streams (``ablation_sensitivity.run`` at the
#: artefact's 8000 instructions) and the TestSyntheticGenerator configs,
#: with the digests of the streams the committed artefacts came from.
#: The generator emits the consumer of a dependent load when its index
#: comes up.  A consumer is never emitted when an earlier load already
#: claimed its index, or when its index falls on the load of a
#: two-instruction (address-producing instruction + load) step.  At the
#: default config that drops 70 of 2 406 scheduled consumers (2.9 %):
#: 37 collisions and 33 skipped indices.  Emitting them would change
#: ``ablation_sensitivity.txt``.
_A2 = SyntheticStreamConfig(instructions=8000)
_GENERATOR = SyntheticStreamConfig(instructions=4000, seed=7)
PINNED_STREAMS = [
    (replace(_A2, load_fraction=0.15), "fc5c6adb64c845ab"),
    (replace(_A2, load_fraction=0.25), "ca4cc7d85e119f18"),
    (replace(_A2, load_fraction=0.35), "3a7c1b29adf491ca"),
    (replace(_A2, dependent_load_fraction=0.2), "7116d933f27e8ba2"),
    (replace(_A2, dependent_load_fraction=0.6), "ca4cc7d85e119f18"),
    (replace(_A2, dependent_load_fraction=0.9), "eb73bf082eeeb3c6"),
    (replace(_A2, address_from_previous_fraction=0.0), "60741d4109e98aa7"),
    (replace(_A2, address_from_previous_fraction=0.3), "ca4cc7d85e119f18"),
    (replace(_A2, address_from_previous_fraction=0.8), "2ce5313294cfa3a2"),
    (_GENERATOR, "c80adba40b9bc332"),
    (replace(_GENERATOR, load_fraction=0.3), "9b22af8ea8c2f71f"),
    (replace(_GENERATOR, dependent_load_fraction=0.1), "ed4d239172642275"),
    (replace(_GENERATOR, dependent_load_fraction=0.9), "56adef7aef83c979"),
    # Calibrated to the paper's Table II row of puwmod.
    (
        SyntheticStreamConfig(
            instructions=2000,
            load_fraction=PAPER_TABLE2["puwmod"].pct_loads / 100.0,
            dependent_load_fraction=PAPER_TABLE2["puwmod"].pct_dependent_loads / 100.0,
            load_hit_rate=PAPER_TABLE2["puwmod"].pct_hit_loads / 100.0,
        ),
        "b747709b08aced8a",
    ),
    (SyntheticStreamConfig(), "28ccdae2bb49727c"),
]


@pytest.mark.parametrize("config, expected", PINNED_STREAMS)
def test_synthetic_streams_are_pinned(config, expected):
    trace = SyntheticWorkloadGenerator(config).generate()
    assert _stream_digest(trace) == expected

"""Tests for the kernel registry, kernel programs and the synthetic generator."""

import pytest

from repro.functional import run_program
from repro.isa.instructions import InstructionClass
from repro.workloads import (
    KERNEL_NAMES,
    PAPER_TABLE2,
    SyntheticStreamConfig,
    SyntheticWorkloadGenerator,
    build_kernel,
    kernel_source,
    kernel_specs,
)


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
        unfriendly = {spec.name for spec in kernel_specs() if spec.laec_unfriendly}
        assert unfriendly == {"aifftr", "aiifft", "bitmnp", "matrix"}

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            build_kernel("quicksort")

    def test_kernel_source_is_assembly_text(self):
        source = kernel_source("matrix", scale=0.1)
        assert ".text" in source and "ld [" in source


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_every_kernel_assembles_and_halts(name):
    program = build_kernel(name, scale=0.05)
    assert program.static_instruction_count() > 10
    trace = run_program(program, max_instructions=400_000)
    assert trace.halted
    assert trace.dynamic_count > 50
    # Every kernel must exercise loads, stores, ALU work and branches.
    assert trace.load_count > 0
    assert trace.store_count > 0
    assert trace.count_class(InstructionClass.BRANCH) > 0


def test_scale_changes_dynamic_length():
    short = run_program(build_kernel("puwmod", scale=0.05))
    long = run_program(build_kernel("puwmod", scale=0.3))
    assert long.dynamic_count > short.dynamic_count


def test_kernels_are_deterministic():
    a = run_program(build_kernel("tblook", scale=0.05))
    b = run_program(build_kernel("tblook", scale=0.05))
    assert a.dynamic_count == b.dynamic_count
    assert a.memory_addresses() == b.memory_addresses()


class TestSyntheticGenerator:
    def _trace(self, **overrides):
        config = SyntheticStreamConfig(instructions=4000, seed=7, **overrides)
        return SyntheticWorkloadGenerator(config).generate()

    def test_length_close_to_requested(self):
        trace = self._trace()
        assert abs(trace.dynamic_count - 4000) <= 2

    def test_static_instructions_are_shared_per_shape(self):
        trace = self._trace()
        shapes = {id(instr) for instr in trace.instructions}
        assert len(shapes) == len(set(trace.instructions)) < len(trace) // 10
        assert trace.pcs == [trace.pcs[0] + 4 * i for i in range(len(trace))]

    def test_load_fraction_close_to_target(self):
        trace = self._trace(load_fraction=0.3)
        assert trace.load_fraction == pytest.approx(0.3, abs=0.07)

    def test_dependent_fraction_controllable(self):
        from repro.core.hazards import is_dependent_load
        from repro.functional.reference import reference_trace

        low = self._trace(dependent_load_fraction=0.1)
        high = self._trace(dependent_load_fraction=0.9)

        def dependent_share(trace):
            records = reference_trace(trace).instructions
            loads = [d.index for d in records if d.is_load]
            if not loads:
                return 0.0
            flagged = sum(1 for i in loads if is_dependent_load(records, i))
            return flagged / len(loads)

        assert dependent_share(high) > dependent_share(low) + 0.4

    def test_from_table2_row(self):
        row = PAPER_TABLE2["puwmod"]
        config = SyntheticStreamConfig.from_table2_row(row, instructions=2000)
        assert config.load_fraction == pytest.approx(row.pct_loads / 100)
        assert config.load_hit_rate == pytest.approx(row.pct_hit_loads / 100)
        trace = SyntheticWorkloadGenerator(config).generate()
        assert trace.dynamic_count >= 2000

    def test_deterministic_given_seed(self):
        a = self._trace()
        b = self._trace()
        assert a.memory_addresses() == b.memory_addresses()

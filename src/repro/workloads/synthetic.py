"""Synthetic dynamic-instruction-stream generator.

The generator fills the columns of a
:class:`~repro.functional.interpreter.FunctionalTrace` directly — no
assembly, no functional execution — with first-order statistics dialled
in by configuration:

* fraction of loads and stores,
* fraction of loads whose value is consumed at distance 1 or 2,
* fraction of loads whose *address register* is produced by the
  immediately preceding instruction (the LAEC data hazard),
* target DL1 hit rate (via a hot working set that fits in the cache
  versus streaming cold addresses),
* fraction of (taken) branches.

This is the tool the sensitivity ablations use to sweep Table II-style
parameters continuously, including pinning them to the paper's exact
per-benchmark values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.functional.interpreter import FunctionalTrace
from repro.isa.instructions import Instruction, Mnemonic

_DATA_BASE = 0x4020_0000
_COLD_BASE = 0x4100_0000
_TEXT_BASE = 0x4000_0000


@dataclass(frozen=True)
class SyntheticStreamConfig:
    """Target statistics for a synthetic stream."""

    instructions: int = 20_000
    load_fraction: float = 0.25
    store_fraction: float = 0.08
    branch_fraction: float = 0.12
    taken_branch_fraction: float = 0.6
    dependent_load_fraction: float = 0.60
    dependent_distance_1_fraction: float = 0.7
    address_from_previous_fraction: float = 0.30
    load_hit_rate: float = 0.89
    hot_lines: int = 128
    line_bytes: int = 32
    seed: int = 2019


class SyntheticWorkloadGenerator:
    """Generates synthetic traces according to a :class:`SyntheticStreamConfig`."""

    def __init__(self, config: SyntheticStreamConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    def generate(self, *, name: str = "synthetic") -> FunctionalTrace:
        cfg = self.config
        rng = random.Random(cfg.seed)
        trace = FunctionalTrace(program_name=name)
        shapes: Dict[tuple, Instruction] = {}
        emitted = 0

        def emit(mnemonic, text, *, address=None, taken=False, **operands) -> None:
            """Append one instruction at the next pc; each distinct shape
            is one shared static instruction, as in a program."""
            nonlocal emitted
            key = (mnemonic, text, *sorted(operands.items()))
            instr = shapes.get(key)
            if instr is None:
                instr = shapes[key] = Instruction(mnemonic=mnemonic, text=text, **operands)
            trace.append(_TEXT_BASE + 4 * emitted, instr, address, taken)
            emitted += 1

        hot_addresses = [
            _DATA_BASE + line * cfg.line_bytes for line in range(cfg.hot_lines)
        ]
        cold_cursor = _COLD_BASE
        #: Registers reserved: r1-r4 address bases, r10-r19 data values,
        #: r20-r24 scratch for fillers.
        #: Emission index -> value register of the load whose consumer is
        #: due there.  The first load to claim an index wins; a later one
        #: due at the same index is dropped, and so is a consumer whose
        #: index falls on the load of a two-instruction (address-producing
        #: instruction + load) step.  Both are part of the streams the A2
        #: artefact was generated from.
        pending_consumers: Dict[int, int] = {}

        def alu_filler(dest: int, srcs: tuple) -> None:
            emit(
                Mnemonic.ADD,
                "synthetic-alu",
                rd=dest,
                rs1=srcs[0] if srcs else 20,
                rs2=srcs[1] if len(srcs) > 1 else 0,
                uses_imm=len(srcs) < 2,
                imm=1 if len(srcs) < 2 else 0,
            )

        while emitted < cfg.instructions:
            # Emit any scheduled consumer of an earlier load first so the
            # dependent-load distances come out as configured.
            consumer = pending_consumers.pop(emitted, None)
            if consumer is not None:
                alu_filler(20 + rng.randrange(5), (consumer,))
                continue

            draw = rng.random()
            if draw < cfg.load_fraction:
                cold_cursor = self._emit_load(
                    rng, emit, emitted, hot_addresses, cold_cursor, pending_consumers
                )
            elif draw < cfg.load_fraction + cfg.store_fraction:
                address = rng.choice(hot_addresses)
                emit(
                    Mnemonic.ST,
                    "synthetic-store",
                    address=address,
                    rd=10 + rng.randrange(10),
                    rs1=1,
                    imm=address - _DATA_BASE,
                )
            elif draw < cfg.load_fraction + cfg.store_fraction + cfg.branch_fraction:
                taken = rng.random() < cfg.taken_branch_fraction
                emit(Mnemonic.BNE, "synthetic-branch", taken=taken, imm=-64 if taken else 8)
            else:
                dest = 20 + rng.randrange(5)
                alu_filler(dest, (20 + rng.randrange(5),))
        trace.halted = True
        return trace

    # ------------------------------------------------------------------ #
    def _emit_load(
        self,
        rng: random.Random,
        emit,
        index: int,
        hot_addresses: List[int],
        cold_cursor: int,
        pending_consumers: Dict[int, int],
    ) -> int:
        cfg = self.config
        base_register = 1
        value_register = 10 + rng.randrange(10)

        # Optionally emit an address-producing instruction right before the
        # load (the LAEC data hazard pattern).
        if rng.random() < cfg.address_from_previous_fraction:
            address_register = 5
            emit(
                Mnemonic.ADD,
                "synthetic-addrgen",
                rd=address_register,
                rs1=base_register,
                imm=rng.randrange(0, 64) * 4,
            )
            index += 1
            load_rs1 = address_register
        else:
            load_rs1 = base_register

        if rng.random() < cfg.load_hit_rate:
            address = rng.choice(hot_addresses)
        else:
            address = cold_cursor
            cold_cursor += cfg.line_bytes

        emit(Mnemonic.LD, "synthetic-load", address=address, rd=value_register, rs1=load_rs1)

        if rng.random() < cfg.dependent_load_fraction:
            distance = 1 if rng.random() < cfg.dependent_distance_1_fraction else 2
            pending_consumers.setdefault(index + distance, value_register)
        return cold_cursor

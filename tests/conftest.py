"""Shared fixtures for the test suite.

Kernel simulations are comparatively slow (tens of thousands of dynamic
instructions), so fixtures that need them use small scales and are
session-scoped to be computed once.
"""

from __future__ import annotations

import pytest

from repro.functional.interpreter import run_program
from repro.isa.assembler import assemble
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec
from repro.workloads import build_kernel


#: A tiny program exercising loads, stores, ALU ops and a loop.
TINY_LOOP_SOURCE = """
.data
numbers:
    .word 5, 7, 11, 13, 17, 19, 23, 29
total:
    .word 0

.text
main:
    set numbers, r1
    set total, r5
    set 0, r10
    set 8, r24
loop:
    ld [r1], r11
    add r10, r11, r10
    st r10, [r5]
    add r1, 4, r1
    subcc r24, 1, r24
    bg loop
    halt
"""


@pytest.fixture(scope="session")
def tiny_program():
    return assemble(TINY_LOOP_SOURCE, name="tiny-loop")


@pytest.fixture(scope="session")
def tiny_trace(tiny_program):
    return run_program(tiny_program)


@pytest.fixture(scope="session")
def small_kernel_results():
    """matrix + puwmod at a small scale under all four Figure 8 policies."""
    results = {}
    for name in ("matrix", "puwmod"):
        program = build_kernel(name, scale=0.15)
        trace = run_program(program)
        per_policy = {}
        for policy in ("no-ecc", "extra-cycle", "extra-stage", "laec"):
            per_policy[policy] = simulate_spec(
                SimulationSpec(policy=policy), program=program, trace=trace
            )
        results[name] = per_policy
    return results

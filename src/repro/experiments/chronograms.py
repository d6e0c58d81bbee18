"""Figures 2-5 and 7: pipeline chronograms of the paper's micro-sequences.

The paper explains each scheme with a two/three-instruction example:

* Figure 2 — baseline (no ECC): ``r3 = load(r1+r2); r5 = r3 + r4``; the
  dependent add stalls one extra cycle in Execute.
* Figure 3 — Extra Cache Cycle: the same pair; the add stalls two cycles.
* Figure 4 — Extra Stage: the same pair; two stall cycles, but the ECC
  stage is pipelined.
* Figure 5 — Extra Stage without a data dependence: no stall at all.
* Figure 7a — LAEC with a successful look-ahead: back to one stall.
* Figure 7b — LAEC blocked by a data hazard (the previous instruction
  produces ``r1``): behaves like Extra Stage.

Each micro-sequence is wrapped in a two-iteration loop and the *second*
iteration is rendered, so the instruction and data lines are warm and
the chronogram shows the steady-state behaviour the paper's figures
depict (rather than cold-start miss latencies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.policies import EccPolicyKind
from repro.isa.assembler import assemble
from repro.pipeline.chronogram import Chronogram
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import Stage
from repro.scenarios.spec import SimulationSpec
from repro.simulation import simulate_spec

#: Loop harness: {body} is substituted with the figure's instructions.
#: ``r4`` holds the array base so Figure 7b's address-producing add
#: regenerates a valid address each iteration.
_TEMPLATE = """
.data
values:
    .word 11, 22, 33, 44, 55, 66, 77, 88

.text
main:
    set values, r1
    set 8, r2
    set values, r4
    set 0, r6
    set 2, r20
loop:
{body}
    subcc r20, 1, r20
    bg loop
    halt
"""

_DEPENDENT_PAIR = """    ld [r1+r2], r3              ; r3 = load(r1+r2)
    add r3, r4, r5              ; r5 = r3 + r4     (dependent)"""

_INDEPENDENT_PAIR = """    ld [r1+r2], r3              ; r3 = load(r1+r2)
    add r6, r4, r5              ; r5 = r6 + r4     (independent)"""

_HAZARD_TRIPLE = """    add r4, r6, r1              ; r1 = r4 + r6     (produces the address)
    ld [r1+r2], r3              ; r3 = load(r1+r2) (cannot be anticipated)
    add r3, r4, r5              ; r5 = r3 + r4     (dependent)"""

_PREAMBLE_LENGTH = 5  # set x5
_LOOP_OVERHEAD = 2    # subcc + bg per iteration


def _second_iteration_window(body_length: int) -> Tuple[int, int]:
    """Dynamic-index window of the second iteration's body instructions."""
    first = _PREAMBLE_LENGTH + body_length + _LOOP_OVERHEAD
    return first, first + body_length - 1


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure: instruction sequence + policy."""

    figure: str
    description: str
    body: str
    body_length: int
    policy: EccPolicyKind
    #: Execute-stage occupancy (cycles) the paper's figure shows for the
    #: dependent consumer (the last shown instruction).
    expected_consumer_execute_cycles: int


FIGURES: Dict[str, FigureSpec] = {
    spec.figure: spec
    for spec in [
        FigureSpec(
            "figure2",
            "data-dependency stall on the baseline NGMP (no ECC)",
            _DEPENDENT_PAIR,
            2,
            EccPolicyKind.NO_ECC,
            2,
        ),
        FigureSpec(
            "figure3",
            "data-dependency stall with Extra Cache Cycle",
            _DEPENDENT_PAIR,
            2,
            EccPolicyKind.EXTRA_CYCLE,
            3,
        ),
        FigureSpec(
            "figure4",
            "data-dependency stall with Extra Stage",
            _DEPENDENT_PAIR,
            2,
            EccPolicyKind.EXTRA_STAGE,
            3,
        ),
        FigureSpec(
            "figure5",
            "no data dependency with Extra Stage (no stall)",
            _INDEPENDENT_PAIR,
            2,
            EccPolicyKind.EXTRA_STAGE,
            1,
        ),
        FigureSpec(
            "figure7a",
            "LAEC with a successful look-ahead",
            _DEPENDENT_PAIR,
            2,
            EccPolicyKind.LAEC,
            2,
        ),
        FigureSpec(
            "figure7b",
            "LAEC blocked by a data hazard (normal execution)",
            _HAZARD_TRIPLE,
            3,
            EccPolicyKind.LAEC,
            3,
        ),
    ]
}


@dataclass
class ChronogramResult:
    """Chronogram for one figure plus the stall count of the consumer."""

    spec: FigureSpec
    chronogram: Chronogram
    consumer_execute_cycles: int

    @property
    def matches_paper(self) -> bool:
        return (
            self.consumer_execute_cycles
            == self.spec.expected_consumer_execute_cycles
        )


def run_figure(figure: str) -> ChronogramResult:
    """Simulate one figure's micro-sequence and return its chronogram."""
    spec = FIGURES[figure]
    source = _TEMPLATE.format(body=spec.body)
    program = assemble(source, name=figure)
    window = _second_iteration_window(spec.body_length)
    timed = SimulationSpec(
        policy=spec.policy, pipeline=PipelineConfig(chronogram_window=window[1] + 1)
    )
    result = simulate_spec(timed, program=program)
    shown = result.chronogram.window(*window)
    consumer_entry = shown.entries[-1]
    return ChronogramResult(
        spec=spec,
        chronogram=shown,
        consumer_execute_cycles=consumer_entry.cycles_in(Stage.EXECUTE),
    )


def run(figures: Optional[List[str]] = None) -> Dict[str, ChronogramResult]:
    """Run all (or the selected) figures."""
    names = figures if figures is not None else sorted(FIGURES)
    return {name: run_figure(name) for name in names}


def render(results: Dict[str, ChronogramResult]) -> str:
    """Render every chronogram with its figure caption."""
    blocks: List[str] = []
    for name in sorted(results):
        result = results[name]
        blocks.append(
            f"{name}: {result.spec.description} [policy={result.spec.policy.value}]"
        )
        blocks.append(result.chronogram.render())
        verdict = "matches" if result.matches_paper else "DIFFERS FROM"
        blocks.append(
            f"(consumer occupies Execute for {result.consumer_execute_cycles} "
            f"cycle(s); {verdict} the paper's figure, which shows "
            f"{result.spec.expected_consumer_execute_cycles})"
        )
        blocks.append("")
    return "\n".join(blocks)

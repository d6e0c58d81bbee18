"""Table I: commercial processors and how they protect their L1 caches.

Table I of the paper is a survey, not a measurement; we carry it as
structured data so the experiment registry can regenerate it verbatim and
so tests can assert the qualitative point it makes (no surveyed LEON
part supports a write-back DL1, hence the need for schemes like LAEC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.reporting import Table


@dataclass(frozen=True)
class CommercialProcessor:
    """One row of Table I."""

    name: str
    frequency_mhz: int
    supports_wt_l1: bool
    wt_protection: str
    supports_wb_l1: bool
    wb_protection: str


TABLE1_PROCESSORS: List[CommercialProcessor] = [
    CommercialProcessor("ARM Cortex R5", 160, True, "ECC/parity", True, "ECC/parity"),
    CommercialProcessor("ARM Cortex M7", 200, True, "ECC", True, "ECC"),
    CommercialProcessor("Freescale PowerQUICC", 250, True, "Parity", True, "parity"),
    CommercialProcessor("Cobham LEON 3", 100, True, "parity", False, ""),
    CommercialProcessor("Cobham LEON 4", 150, True, "parity", False, ""),
]


def run() -> List[CommercialProcessor]:
    """Return the survey rows (kept as a callable for harness uniformity)."""
    return list(TABLE1_PROCESSORS)


def render(processors: List[CommercialProcessor] | None = None) -> str:
    """Render Table I in the paper's layout."""
    processors = processors if processors is not None else run()
    table = Table(
        title="Table I: Commercial processors and their characteristics",
        columns=["Processor", "Frequency", "L1 WT", "L1 WB"],
    )
    for cpu in processors:
        table.add_row(
            Processor=cpu.name,
            Frequency=f"{cpu.frequency_mhz}MHz",
            **{
                "L1 WT": f"Yes, {cpu.wt_protection}" if cpu.supports_wt_l1 else "No",
                "L1 WB": f"Yes, {cpu.wb_protection}" if cpu.supports_wb_l1 else "No",
            },
        )
    return table.render()

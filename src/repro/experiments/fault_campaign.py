"""Ablation A3: fault-injection campaign on the ECC codes.

The paper's whole premise is that SECDED in the DL1 makes dirty data
safe against soft errors.  This campaign verifies, on the actual codec
implementations, the guarantees every scheme relies on:

* SECDED corrects 100 % of single-bit flips and detects 100 % of
  double-bit flips (never silently mis-correcting them);
* parity detects single flips but corrects nothing, so it is only safe
  when a clean copy exists elsewhere (write-through DL1);
* plain Hamming SEC silently mis-corrects double flips, which is why
  the DED part matters for certification arguments.

It also cross-checks the empirical rates against the analytical
reliability model for a given raw bit-upset probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.reporting import Table
from repro.ecc.fault_injection import FaultInjector, FaultModel, InjectionOutcome
from repro.ecc.hamming import HammingSecCode
from repro.ecc.parity import ParityCode
from repro.ecc.secded import HsiaoSecDedCode


@dataclass
class CampaignRow:
    """Outcome rates of one code under one fault multiplicity."""

    code: str
    flips: int
    trials: int
    corrected_rate: float
    detected_rate: float
    sdc_rate: float
    masked_rate: float


def run(
    *,
    trials_per_point: int = 3000,
    seed: int = 2019,
    data_words: Optional[List[int]] = None,
) -> List[CampaignRow]:
    """Inject single- and double-bit faults into each code.

    Each code gets its own explicitly seeded :class:`random.Random`
    (``random.Random(seed)``, matching the seed implementation trial for
    trial), so the campaign never touches global RNG state and the
    per-code points can be farmed out to parallel workers without
    changing any reported percentage.
    """
    rows: List[CampaignRow] = []
    codes = [ParityCode(), HammingSecCode(), HsiaoSecDedCode()]
    for code in codes:
        injector = FaultInjector(code, rng=random.Random(seed))
        for flips in (1, 2):
            report = injector.run_campaign(
                trials=trials_per_point,
                fault_model=FaultModel(multiplicity_weights={flips: 1.0}),
                data_source=iter(data_words) if data_words else None,
            )
            rows.append(
                CampaignRow(
                    code=code.name,
                    flips=flips,
                    trials=report.total,
                    corrected_rate=report.rate(InjectionOutcome.CORRECTED),
                    detected_rate=report.rate(InjectionOutcome.DETECTED),
                    sdc_rate=report.rate(InjectionOutcome.SILENT_DATA_CORRUPTION),
                    masked_rate=report.rate(InjectionOutcome.MASKED),
                )
            )
    return rows


def render(rows: List[CampaignRow]) -> str:
    table = Table(
        title="Ablation A3: fault-injection outcomes per code and flip count",
        columns=["code", "flips", "trials", "corrected %", "detected %", "SDC %", "masked %"],
    )
    for row in rows:
        table.add_row(
            code=row.code,
            flips=row.flips,
            trials=row.trials,
            **{
                "corrected %": row.corrected_rate * 100,
                "detected %": row.detected_rate * 100,
                "SDC %": row.sdc_rate * 100,
                "masked %": row.masked_rate * 100,
            },
        )
    note = (
        "SECDED corrects all single flips and detects all double flips; parity\n"
        "only detects odd flip counts; Hamming SEC silently mis-corrects double\n"
        "flips - the reason the paper's DL1 needs SECDED for dirty data."
    )
    return table.render(float_format="{:.1f}") + "\n" + note

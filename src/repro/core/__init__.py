"""The paper's contribution: ECC deployment policies for the DL1.

Four deployment schemes are modelled (Section II-B and III of the paper):

* :class:`~repro.core.policies.NoEccPolicy` — ideal unprotected
  write-back DL1 (the baseline every overhead is measured against).
* :class:`~repro.core.policies.WriteThroughParityPolicy` — the classic
  LEON-style configuration: write-through DL1 with a parity bit,
  SECDED only in the L2.
* :class:`~repro.core.policies.ExtraCacheCyclePolicy` — the Memory stage
  spans two cycles on DL1 load hits so the SECDED check fits.
* :class:`~repro.core.policies.ExtraStagePolicy` — a dedicated ECC
  pipeline stage is appended after Memory.
* :class:`~repro.core.policies.LaecPolicy` — the paper's Look-Ahead
  Error Correction: address generation, DL1 access and ECC check are
  anticipated by one cycle whenever the
  :class:`~repro.core.lookahead.LookaheadUnit` finds no data or resource
  hazard with the immediately preceding instruction.
"""

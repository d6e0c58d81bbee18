"""Pipeline stage identifiers.

The baseline NGMP pipeline (paper Figure 1) has seven stages; the Extra
Stage and LAEC policies add a dedicated ECC stage between Memory and
Exception (Figures 4-7).
"""

from __future__ import annotations

import enum


class Stage(enum.Enum):
    """Stages of the modelled pipeline, in program order."""

    FETCH = "F"
    DECODE = "D"
    REGISTER_ACCESS = "RA"
    EXECUTE = "Exe"
    MEMORY = "M"
    ECC = "ECC"
    EXCEPTION = "Exc"
    WRITE_BACK = "WB"

    @property
    def short(self) -> str:
        return self.value

"""The architectural outcome taxonomy of one injected fault.

Kept apart from :mod:`repro.campaign.replay`, which classifies points,
so the campaign engine can count and render outcomes without importing
the replay stack: a fully stored resume replays nothing.
"""

from __future__ import annotations

import enum


class ArchOutcome(enum.Enum):
    """Architectural classification of one injected fault."""

    MASKED = "masked"
    CORRECTED = "corrected"
    DETECTED = "detected"
    SILENT_DATA_CORRUPTION = "sdc"
    TIMING_DEVIATION = "timing"


#: Outcome value strings, in taxonomy order (a stratum's count keys).
OUTCOME_KEYS = tuple(outcome.value for outcome in ArchOutcome)

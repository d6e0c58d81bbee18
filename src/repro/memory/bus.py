"""Bus contention: the other cores' charge per bus transaction.

The NGMP connects the four cores' private L1 caches to the shared L2
through a bus.  For single-core timing runs the bus only contributes its
fixed request/transfer latencies (charged by
:func:`repro.pipeline.timing.memory_tape`), but for the WCET experiments
the other cores are modelled as *contenders* that can delay every
transaction:

* ``none`` — private bus behaviour (no interference);
* ``average`` — each transaction waits half of the worst-case round of
  competing transactions (an expected-case model);
* ``worst`` — each transaction waits a full round of competing
  transactions, which is the bound WCET analyses assume for a
  round-robin arbiter [Dasari 2011, reference [14] of the paper].

Each mode is one fixed charge per transaction,
:meth:`ContentionModel.delay`, independent of the cycle the transaction
is issued in.
"""

from __future__ import annotations

from dataclasses import dataclass


#: The interference accountings :class:`ContentionModel` understands.
CONTENTION_MODES = ("none", "average", "worst")


@dataclass
class ContentionModel:
    """Interference added by other bus masters to each transaction."""

    contenders: int = 0
    slot_cycles: int = 6
    mode: str = "none"  # "none" | "average" | "worst"

    def __post_init__(self) -> None:
        # Validate eagerly: delay() used to accept any mode whenever
        # contenders <= 0, so a typo like mode="wrost" was silently a
        # no-contention model on isolation configs.
        if self.mode not in CONTENTION_MODES:
            raise ValueError(
                f"unknown contention mode {self.mode!r}; "
                f"expected one of {CONTENTION_MODES}"
            )

    def delay(self) -> int:
        """Cycles of interference charged to one transaction."""
        if self.mode == "none" or self.contenders <= 0:
            return 0
        full_round = self.contenders * self.slot_cycles
        if self.mode == "worst":
            return full_round
        if self.mode == "average":
            return full_round // 2
        raise ValueError(f"unknown contention mode {self.mode!r}")

"""Fault injection for ECC-protected storage.

The paper targets *soft errors* (radiation-induced single-event upsets) in
the DL1 data array.  We model them as bit flips in stored codewords and
classify the outcome by comparing the decoded word with the ground truth:

* ``MASKED`` — the flip(s) hit bits that do not change the decoded data
  and the decoder saw nothing (only possible for parity with even flips).
* ``CORRECTED`` — the decoder returned the original data and flagged a
  correction.
* ``DETECTED`` — the decoder flagged an uncorrectable error (the cache
  controller would then raise a fault / refetch / trigger recovery).
* ``SILENT_DATA_CORRUPTION`` — the decoder returned wrong data without
  any error indication.  This is the failure mode safety standards such
  as ISO 26262 care about.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.ecc.codec import DecodeStatus, EccCode


class InjectionOutcome(enum.Enum):
    """Classification of one injection experiment against ground truth."""

    MASKED = "masked"
    CORRECTED = "corrected"
    DETECTED = "detected"
    SILENT_DATA_CORRUPTION = "sdc"


@dataclass(frozen=True)
class FaultModel:
    """Describes how many bits to flip per injected fault.

    ``multiplicity_weights`` maps the number of simultaneously flipped
    bits to its relative probability.  The paper assumes MBU (multi-bit
    upset) rates are negligible for the targeted technologies, so the
    default model is single-bit flips only; the reliability ablation uses
    a mixed model to show what SECDED buys over plain Hamming.
    """

    multiplicity_weights: Dict[int, float] = field(
        default_factory=lambda: {1: 1.0}
    )

    def __post_init__(self) -> None:
        # The weight table is immutable, so the sum/sort that the seed
        # implementation redid on every draw is hoisted here.  The
        # arithmetic (summation order, cumulative walk) is kept identical
        # so a seeded campaign draws the exact same multiplicities.
        items = sorted(self.multiplicity_weights.items())
        object.__setattr__(self, "_weight_items", items)
        object.__setattr__(
            self, "_weight_total", sum(self.multiplicity_weights.values())
        )
        object.__setattr__(
            self, "_single_multiplicity", items[0][0] if len(items) == 1 else None
        )

    def sample_multiplicity(self, rng: random.Random) -> int:
        pick = rng.random() * self._weight_total
        single = self._single_multiplicity
        if single is not None:
            # One entry: the cumulative walk always stops at it (``pick``
            # is strictly below the total); the draw above keeps the RNG
            # stream identical to the general case.
            return single
        cumulative = 0.0
        for multiplicity, weight in self._weight_items:
            cumulative += weight
            if pick <= cumulative:
                return multiplicity
        return max(self.multiplicity_weights)


@dataclass
class InjectionRecord:
    """One injection: where the flips landed and what the decoder did."""

    data: int
    flipped_bits: Sequence[int]
    status: DecodeStatus
    outcome: InjectionOutcome


@dataclass
class InjectionReport:
    """Aggregated results of an injection campaign."""

    code_name: str
    records: List[InjectionRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def count(self, outcome: InjectionOutcome) -> int:
        return sum(1 for record in self.records if record.outcome is outcome)

    def rate(self, outcome: InjectionOutcome) -> float:
        if not self.records:
            return 0.0
        return self.count(outcome) / self.total

    def summary(self) -> Dict[str, float]:
        return {outcome.value: self.rate(outcome) for outcome in InjectionOutcome}


class FaultInjector:
    """Runs bit-flip campaigns against an :class:`EccCode`.

    Randomness is *never* drawn from the global :mod:`random` state: each
    injector owns (or is handed) an explicit :class:`random.Random`, so
    campaigns are reproducible under a fixed seed and independent
    injectors can safely run in parallel worker processes without
    perturbing each other's trial streams.
    """

    def __init__(
        self,
        code: EccCode,
        *,
        seed: int = 2019,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.code = code
        #: The private RNG driving trial generation.  Pass ``rng=`` to
        #: share/sequence generators explicitly; ``seed=`` is then ignored.
        self.rng = rng if rng is not None else random.Random(seed)

    # ------------------------------------------------------------------ #
    def run_campaign(
        self,
        *,
        trials: int,
        fault_model: Optional[FaultModel] = None,
        data_source: Optional[Iterable[int]] = None,
    ) -> InjectionReport:
        """Inject ``trials`` random faults and return the aggregated report.

        ``data_source`` optionally supplies the words to protect (e.g.
        values captured from a workload run); otherwise uniform random
        32-bit words are used.
        """
        model = fault_model or FaultModel()
        rng = self.rng
        code = self.code
        data_bits = code.data_bits
        total_bits = code.total_bits
        data_mask = (1 << data_bits) - 1
        position_range = range(total_bits)

        # Phase 1: draw every trial up front.  The RNG call sequence is
        # exactly the per-trial sequence the reference implementation
        # used (data word, multiplicity, positions), so a fixed seed
        # reproduces the seed campaign byte for byte.
        trial_plan: List[tuple] = []
        plan_append = trial_plan.append
        rng_getrandbits = rng.getrandbits
        rng_sample = rng.sample
        sample_multiplicity = model.sample_multiplicity
        data_iterator = iter(data_source) if data_source is not None else None
        for _ in range(trials):
            if data_iterator is not None:
                try:
                    data = next(data_iterator) & data_mask
                except StopIteration:
                    data_iterator = None
                    data = rng_getrandbits(data_bits)
            else:
                data = rng_getrandbits(data_bits)
            multiplicity = sample_multiplicity(rng)
            if multiplicity > total_bits:
                multiplicity = total_bits
            plan_append((data, tuple(rng_sample(position_range, multiplicity))))

        # Phase 2: batch encode/corrupt/decode through the table-driven
        # codec (positions come from ``rng.sample`` over the valid
        # range, so no per-flip validation is needed).
        codewords = code.encode_many([data for data, _ in trial_plan])
        corrupted: List[int] = []
        for codeword, (_, positions) in zip(codewords, trial_plan):
            flip_mask = 0
            for position in positions:
                flip_mask |= 1 << position
            corrupted.append(codeword ^ flip_mask)
        decoded = code.decode_many(corrupted)

        report = InjectionReport(code_name=code.name)
        records_append = report.records.append
        # Outcome classification inlined from _classify: MISCORRECTED is
        # never emitted by a decoder, so anything that is neither CLEAN
        # nor CORRECTED is a detected-uncorrectable.
        clean = DecodeStatus.CLEAN
        corrected = DecodeStatus.CORRECTED
        masked = InjectionOutcome.MASKED
        outcome_corrected = InjectionOutcome.CORRECTED
        detected = InjectionOutcome.DETECTED
        sdc = InjectionOutcome.SILENT_DATA_CORRUPTION
        for (data, positions), result in zip(trial_plan, decoded):
            status = result.status
            if status is clean:
                outcome = masked if result.data == data else sdc
            elif status is corrected:
                outcome = outcome_corrected if result.data == data else sdc
            else:
                outcome = detected
            records_append(
                InjectionRecord(
                    data=data,
                    flipped_bits=positions,
                    status=status,
                    outcome=outcome,
                )
            )
        return report

    # ------------------------------------------------------------------ #
    def _classify(
        self,
        original: int,
        flipped_bits: Sequence[int],
        decoded: int,
        status: DecodeStatus,
    ) -> InjectionOutcome:
        data_intact = decoded == original
        if status is DecodeStatus.CLEAN:
            if data_intact:
                return InjectionOutcome.MASKED
            return InjectionOutcome.SILENT_DATA_CORRUPTION
        if status is DecodeStatus.CORRECTED:
            if data_intact:
                return InjectionOutcome.CORRECTED
            return InjectionOutcome.SILENT_DATA_CORRUPTION
        # Detected-uncorrectable: the controller is informed, so even if
        # the data image is wrong this is not silent.
        return InjectionOutcome.DETECTED

"""Analytical reliability model for ECC-protected arrays.

Critical systems must show that residual failure rates stay below the
thresholds set by safety standards (e.g. ISO 26262 ASIL levels).  This
module provides the small amount of combinatorics needed to turn a raw
bit upset probability into per-word and per-array outcome probabilities
for each code, which the fault-injection experiments then cross-check
empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.ecc.codec import EccCode
from repro.ecc.hamming import HammingSecCode
from repro.ecc.parity import ParityCode
from repro.ecc.secded import HsiaoSecDedCode


def _binomial_pmf(n: int, k: int, p: float) -> float:
    """Probability of exactly ``k`` successes in ``n`` Bernoulli trials."""
    if not 0 <= k <= n:
        return 0.0
    return math.comb(n, k) * (p ** k) * ((1.0 - p) ** (n - k))


def word_outcome_probabilities(code: EccCode, bit_upset_probability: float) -> Dict[str, float]:
    """Per-word probabilities of clean / corrected / detected / SDC outcomes.

    Errors are assumed independent and uniform over the codeword bits
    (the standard soft-error assumption for SRAM arrays).  Guarantees by
    construction:

    * parity: corrects nothing, detects odd flip counts, is silent on
      even non-zero flip counts;
    * Hamming SEC: corrects exactly one flip, anything more is (almost
      always) silent mis-correction — we conservatively count all
      multiplicities >= 2 as SDC;
    * Hsiao SECDED: corrects one flip, detects two, multiplicities >= 3
      are conservatively counted as SDC.
    """
    n = code.total_bits
    p = bit_upset_probability
    p_clean = _binomial_pmf(n, 0, p)
    p_one = _binomial_pmf(n, 1, p)
    p_two = _binomial_pmf(n, 2, p)
    p_three_plus = max(0.0, 1.0 - p_clean - p_one - p_two)

    if isinstance(code, ParityCode):
        p_odd = sum(_binomial_pmf(n, k, p) for k in range(1, n + 1, 2))
        p_even_nonzero = max(0.0, 1.0 - p_clean - p_odd)
        return {
            "clean": p_clean,
            "corrected": 0.0,
            "detected": p_odd,
            "sdc": p_even_nonzero,
        }
    if isinstance(code, HsiaoSecDedCode):
        return {
            "clean": p_clean,
            "corrected": p_one,
            "detected": p_two,
            "sdc": p_three_plus,
        }
    if isinstance(code, HammingSecCode):
        return {
            "clean": p_clean,
            "corrected": p_one,
            "detected": 0.0,
            "sdc": p_two + p_three_plus,
        }
    # Unknown code: be conservative — only the zero-flip case is safe.
    return {
        "clean": p_clean,
        "corrected": 0.0,
        "detected": 0.0,
        "sdc": 1.0 - p_clean,
    }


@dataclass
class ReliabilityModel:
    """Array-level reliability: many protected words observed over time.

    Parameters
    ----------
    words:
        Number of independently protected words in the array (e.g. a
        16 KiB DL1 protected per 32-bit word holds 4096 words).
    bit_upset_rate_per_hour:
        Raw upsets per bit per hour of operation (technology dependent;
        the absolute value only scales the results).
    scrub_interval_hours:
        Interval after which accumulated errors are assumed to be
        cleaned (by scrubbing or by natural eviction/refill); errors
        accumulate within a window, which is what makes double errors
        possible at all.
    """

    words: int
    bit_upset_rate_per_hour: float
    scrub_interval_hours: float = 1.0

    def bit_upset_probability(self) -> float:
        """Probability that a given bit is flipped within one scrub window."""
        rate = self.bit_upset_rate_per_hour * self.scrub_interval_hours
        return 1.0 - math.exp(-rate)

    def word_outcomes(self, code: EccCode) -> Dict[str, float]:
        return word_outcome_probabilities(code, self.bit_upset_probability())

    def array_failure_probability(self, code: EccCode) -> float:
        """Probability that at least one word suffers an unsafe outcome.

        "Unsafe" means silent data corruption, plus — for codes without
        correction used on dirty write-back data — detected-but-
        uncorrectable errors (the dirty copy is the only copy, so
        detection alone cannot restore it).
        """
        outcomes = self.word_outcomes(code)
        unsafe = outcomes["sdc"]
        if isinstance(code, ParityCode):
            unsafe += outcomes["detected"]
        per_word_safe = 1.0 - unsafe
        return 1.0 - per_word_safe ** self.words

    def failures_in_time(self, code: EccCode, *, hours: float = 1e9) -> float:
        """Expected unsafe failures per ``hours`` device-hours (FIT-like)."""
        windows = hours / self.scrub_interval_hours
        return self.array_failure_probability(code) * windows

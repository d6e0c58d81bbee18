"""Hamming single-error-correction (SEC) code.

Included as a reference point for the reliability analysis: plain Hamming
corrects any single-bit error but has no double-error detection — a
double error produces a syndrome that usually points at a third, innocent
bit and gets silently "corrected" into garbage.  The paper (and our cache
model) uses Hsiao SECDED instead; see :mod:`repro.ecc.secded`.

Layout: the classic 1-indexed Hamming arrangement where check bits sit at
power-of-two positions (1, 2, 4, ...) and data bits fill the remaining
positions.  The public ``encode``/``decode`` interface still exchanges
plain ``data_bits``-wide integers; the positional shuffling is internal.

This is the fast-path implementation.  Instead of spreading the word into
a positional bit array and walking it once per check bit, the
constructor flattens the construction into lookup structures over the
*public* codeword layout:

* ``_check_masks[k]`` — mask of public codeword bits covered by check
  ``k`` (its own stored check bit included), so each syndrome bit is one
  ``(codeword & mask).bit_count() & 1``;
* ``_data_masks[k]`` — the data-word part of the same coverage, used by
  ``encode``;
* ``_syndrome_flip[s]`` — for every in-range positional syndrome ``s``,
  the data-word XOR mask that undoes the indicated single-bit error
  (zero when ``s`` names a check-bit position).

The original loop implementation lives on as
:class:`oracles.ecc.ReferenceHammingSecCode` and the equivalence
tests hold the two bit-identical over clean words and all flips.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.ecc.codec import DecodeResult, DecodeStatus, EccCode


def _required_check_bits(data_bits: int) -> int:
    """Smallest r with 2**r >= data_bits + r + 1."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


class HammingSecCode(EccCode):
    """Hamming SEC over ``data_bits`` bits (6 check bits for 32)."""

    name = "hamming"

    def __init__(self, data_bits: int = 32) -> None:
        self.data_bits = data_bits
        self.check_bits = _required_check_bits(data_bits)
        # 1-indexed codeword positions of the data bits (every position
        # that is not a power of two).
        self._data_positions: List[int] = []
        position = 1
        while len(self._data_positions) < data_bits:
            if position & (position - 1):  # not a power of two
                self._data_positions.append(position)
            position += 1
        largest_check = 1 << (self.check_bits - 1)
        self._codeword_length = max(self._data_positions[-1], largest_check)

        # Coverage masks in the public layout (data word low, check bits
        # above).  Data bit *index* sits at positional address
        # ``_data_positions[index]``; check bit k at position ``1 << k``.
        self._data_masks: List[int] = []
        self._check_masks: List[int] = []
        for check_index in range(self.check_bits):
            parity_position = 1 << check_index
            data_mask = 0
            for index, pos in enumerate(self._data_positions):
                if pos & parity_position:
                    data_mask |= 1 << index
            self._data_masks.append(data_mask)
            self._check_masks.append(data_mask | (1 << (data_bits + check_index)))

        # Positional syndrome -> data-word correction mask (0 for check
        # positions: flipping a stored check bit never changes the data).
        # A C int array: decode indexes it once per corrected codeword.
        self._syndrome_flip: array = array("q", bytes(8 * (self._codeword_length + 1)))
        for index, pos in enumerate(self._data_positions):
            self._syndrome_flip[pos] = 1 << index

    # ------------------------------------------------------------------ #
    def encode(self, data: int) -> int:
        self._check_data_range(data)
        check = 0
        for check_index, mask in enumerate(self._data_masks):
            check |= ((data & mask).bit_count() & 1) << check_index
        return data | (check << self.data_bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword_range(codeword)
        syndrome = 0
        for check_index, mask in enumerate(self._check_masks):
            syndrome |= ((codeword & mask).bit_count() & 1) << check_index
        data = codeword & ((1 << self.data_bits) - 1)
        if syndrome == 0:
            return DecodeResult(data=data, status=DecodeStatus.CLEAN, syndrome=0)
        if syndrome <= self._codeword_length:
            return DecodeResult(
                data=data ^ self._syndrome_flip[syndrome],
                status=DecodeStatus.CORRECTED,
                syndrome=syndrome,
                corrected_bit=syndrome,
            )
        # Syndrome points outside the codeword: detectable but uncorrectable.
        return DecodeResult(
            data=data, status=DecodeStatus.DETECTED_UNCORRECTABLE, syndrome=syndrome
        )

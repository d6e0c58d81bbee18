"""Single-bit parity code.

Parity detects any odd number of flipped bits but cannot correct anything
and does not see an even number of flips.  In the paper this is the
protection used by write-through DL1 designs (LEON3/LEON4): detection is
enough because a clean copy of the data always exists in the (SECDED
protected) L2, so a detected error simply becomes a refetch.

This is the fast-path implementation: the word parity is one
``int.bit_count()`` instead of a shift-and-XOR loop over every bit.  The
original loop lives on as :class:`repro.ecc.reference.ReferenceParityCode`
and the equivalence tests hold the two bit-identical.
"""

from __future__ import annotations

from repro.ecc.codec import DecodeResult, DecodeStatus, EccCode


def _parity_of(value: int) -> int:
    """Return the XOR of all bits of ``value`` (0 or 1)."""
    return value.bit_count() & 1


class ParityCode(EccCode):
    """Even or odd parity over a ``data_bits``-wide word.

    Codeword layout: ``data`` in bits ``[0, data_bits)``, parity bit at bit
    ``data_bits``.
    """

    name = "parity"

    def __init__(self, data_bits: int = 32, *, even: bool = True) -> None:
        self.data_bits = data_bits
        self.check_bits = 1
        self.even = even

    def encode(self, data: int) -> int:
        self._check_data_range(data)
        parity = data.bit_count() & 1
        if not self.even:
            parity ^= 1
        return data | (parity << self.data_bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword_range(codeword)
        data = codeword & ((1 << self.data_bits) - 1)
        # The stored parity bit participates in the whole-codeword parity,
        # so for an even code the codeword itself must have even weight.
        syndrome = codeword.bit_count() & 1
        if not self.even:
            syndrome ^= 1
        if syndrome == 0:
            # Either clean or an even number of flips (undetectable); the
            # code cannot tell the difference, which is exactly why parity
            # alone is insufficient for dirty write-back data.
            return DecodeResult(data=data, status=DecodeStatus.CLEAN, syndrome=0)
        return DecodeResult(
            data=data, status=DecodeStatus.DETECTED_UNCORRECTABLE, syndrome=1
        )

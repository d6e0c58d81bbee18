"""Reference (bit-by-bit) codec implementations.

These are the original per-bit loop implementations of the three codes,
kept verbatim as the behavioural specification for the table-driven fast
codecs in :mod:`repro.ecc.parity`, :mod:`repro.ecc.hamming` and
:mod:`repro.ecc.secded`.  The equivalence tests assert that the fast
codecs produce bit-identical codewords and :class:`DecodeResult`\\ s for
clean words, every single-bit flip and sampled double-bit flips.

They deliberately trade speed for obviousness: every parity is computed
by walking the codeword positions exactly the way the textbook
constructions describe them.  Nothing in the experiment pipeline should
import these classes on a hot path — use the registered fast codecs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ecc.codec import DecodeResult, DecodeStatus, EccCode
from repro.ecc.secded import build_hsiao_columns


def _popcount(value: int) -> int:
    return bin(value).count("1")


def _parity_of(value: int) -> int:
    """Return the XOR of all bits of ``value`` (0 or 1)."""
    parity = 0
    while value:
        parity ^= value & 1
        value >>= 1
    return parity


def _required_check_bits(data_bits: int) -> int:
    """Smallest r with 2**r >= data_bits + r + 1."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


class ReferenceParityCode(EccCode):
    """Bit-loop even/odd parity over a ``data_bits``-wide word."""

    name = "parity"

    def __init__(self, data_bits: int = 32, *, even: bool = True) -> None:
        self.data_bits = data_bits
        self.check_bits = 1
        self.even = even

    def encode(self, data: int) -> int:
        self._check_data_range(data)
        parity = _parity_of(data)
        if not self.even:
            parity ^= 1
        return data | (parity << self.data_bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword_range(codeword)
        data = codeword & ((1 << self.data_bits) - 1)
        stored_parity = (codeword >> self.data_bits) & 1
        expected = _parity_of(data)
        if not self.even:
            expected ^= 1
        syndrome = stored_parity ^ expected
        if syndrome == 0:
            return DecodeResult(data=data, status=DecodeStatus.CLEAN, syndrome=0)
        return DecodeResult(
            data=data, status=DecodeStatus.DETECTED_UNCORRECTABLE, syndrome=1
        )


class ReferenceHammingSecCode(EccCode):
    """Bit-loop Hamming SEC over ``data_bits`` bits (6 check bits for 32)."""

    name = "hamming"

    def __init__(self, data_bits: int = 32) -> None:
        self.data_bits = data_bits
        self.check_bits = _required_check_bits(data_bits)
        # Precompute the 1-indexed codeword positions of the data bits
        # (every position that is not a power of two).
        self._data_positions: List[int] = []
        position = 1
        while len(self._data_positions) < data_bits:
            if position & (position - 1):  # not a power of two
                self._data_positions.append(position)
            position += 1
        # The true codeword length is the largest used position.
        largest_check = 1 << (self.check_bits - 1)
        self._codeword_length = max(self._data_positions[-1], largest_check)

    # ------------------------------------------------------------------ #
    def _spread(self, data: int) -> List[int]:
        """Place data bits into their codeword positions (1-indexed array)."""
        bits = [0] * (self._codeword_length + 1)
        for index, position in enumerate(self._data_positions):
            bits[position] = (data >> index) & 1
        return bits

    def _compute_checks(self, bits: List[int]) -> None:
        for check_index in range(self.check_bits):
            parity_position = 1 << check_index
            parity = 0
            for position in range(1, self._codeword_length + 1):
                if position & parity_position and position != parity_position:
                    parity ^= bits[position]
            bits[parity_position] = parity

    def _collect(self, bits: List[int]) -> int:
        """Pack the positional bit array into the public codeword layout."""
        data = 0
        for index, position in enumerate(self._data_positions):
            data |= bits[position] << index
        check = 0
        for check_index in range(self.check_bits):
            check |= bits[1 << check_index] << check_index
        return data | (check << self.data_bits)

    def _unpack(self, codeword: int) -> List[int]:
        data = codeword & ((1 << self.data_bits) - 1)
        check = codeword >> self.data_bits
        bits = [0] * (self._codeword_length + 1)
        for index, position in enumerate(self._data_positions):
            bits[position] = (data >> index) & 1
        for check_index in range(self.check_bits):
            bits[1 << check_index] = (check >> check_index) & 1
        return bits

    # ------------------------------------------------------------------ #
    def encode(self, data: int) -> int:
        self._check_data_range(data)
        bits = self._spread(data)
        self._compute_checks(bits)
        return self._collect(bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword_range(codeword)
        bits = self._unpack(codeword)
        syndrome = 0
        for check_index in range(self.check_bits):
            parity_position = 1 << check_index
            parity = 0
            for position in range(1, self._codeword_length + 1):
                if position & parity_position:
                    parity ^= bits[position]
            if parity:
                syndrome |= parity_position
        if syndrome == 0:
            data = self._extract_data(bits)
            return DecodeResult(data=data, status=DecodeStatus.CLEAN, syndrome=0)
        if syndrome <= self._codeword_length:
            bits[syndrome] ^= 1
            data = self._extract_data(bits)
            return DecodeResult(
                data=data,
                status=DecodeStatus.CORRECTED,
                syndrome=syndrome,
                corrected_bit=syndrome,
            )
        # Syndrome points outside the codeword: detectable but uncorrectable.
        data = self._extract_data(bits)
        return DecodeResult(
            data=data, status=DecodeStatus.DETECTED_UNCORRECTABLE, syndrome=syndrome
        )

    def _extract_data(self, bits: List[int]) -> int:
        data = 0
        for index, position in enumerate(self._data_positions):
            data |= bits[position] << index
        return data


class ReferenceHsiaoSecDedCode(EccCode):
    """Bit-loop Hsiao odd-weight-column SECDED over ``data_bits`` bits."""

    name = "secded"

    def __init__(self, data_bits: int = 32, check_bits: Optional[int] = None) -> None:
        self.data_bits = data_bits
        if check_bits is None:
            # Smallest r such that the number of available odd-weight
            # columns (2**(r-1)) covers data bits + the r unit columns.
            check_bits = 1
            while (1 << (check_bits - 1)) < data_bits + check_bits + 1:
                check_bits += 1
        self.check_bits = check_bits
        self._data_columns: List[int] = build_hsiao_columns(data_bits, check_bits)
        # Map syndrome -> erroneous bit position in the public layout.
        self._syndrome_to_position: Dict[int, int] = {}
        for position, column in enumerate(self._data_columns):
            self._syndrome_to_position[column] = position
        for check_index in range(check_bits):
            self._syndrome_to_position[1 << check_index] = data_bits + check_index

    def _compute_check(self, data: int) -> int:
        check = 0
        remaining = data
        position = 0
        while remaining:
            if remaining & 1:
                check ^= self._data_columns[position]
            remaining >>= 1
            position += 1
        return check

    def encode(self, data: int) -> int:
        self._check_data_range(data)
        return data | (self._compute_check(data) << self.data_bits)

    def decode(self, codeword: int) -> DecodeResult:
        self._check_codeword_range(codeword)
        data = codeword & ((1 << self.data_bits) - 1)
        stored_check = codeword >> self.data_bits
        syndrome = self._compute_check(data) ^ stored_check
        if syndrome == 0:
            return DecodeResult(data=data, status=DecodeStatus.CLEAN, syndrome=0)
        if _popcount(syndrome) % 2 == 1:
            position = self._syndrome_to_position.get(syndrome)
            if position is None:
                # Odd-weight syndrome not matching any column: at least a
                # triple error; report it as uncorrectable.
                return DecodeResult(
                    data=data,
                    status=DecodeStatus.DETECTED_UNCORRECTABLE,
                    syndrome=syndrome,
                )
            if position < self.data_bits:
                data ^= 1 << position
            return DecodeResult(
                data=data,
                status=DecodeStatus.CORRECTED,
                syndrome=syndrome,
                corrected_bit=position,
            )
        # Non-zero even-weight syndrome: double error detected.
        return DecodeResult(
            data=data,
            status=DecodeStatus.DETECTED_UNCORRECTABLE,
            syndrome=syndrome,
        )


#: Fast-codec class name -> reference implementation, used by the
#: equivalence tests.
REFERENCE_CODES = {
    "parity": ReferenceParityCode,
    "hamming": ReferenceHammingSecCode,
    "secded": ReferenceHsiaoSecDedCode,
}

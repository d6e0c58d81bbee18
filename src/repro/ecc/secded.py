"""Hsiao SECDED code: single-error correction, double-error detection.

This is the code the paper assumes for the write-back DL1 (and for the
shared L2).  The Hsiao construction [Hsiao 1970, also summarised in
Chen & Hsiao 1984, reference [10] of the paper] uses a parity-check
matrix whose columns all have *odd* weight:

* check-bit columns are the 7 weight-1 unit vectors;
* data-bit columns are 32 distinct weight-3 vectors chosen from the
  C(7,3)=35 available ones (balanced so each check bit covers a similar
  number of data bits, which equalises the XOR-tree depth in hardware).

With odd-weight columns, any single-bit error produces an odd-weight
syndrome and any double-bit error produces a non-zero *even*-weight
syndrome, which cleanly separates "correct" from "detect, do not touch".

Codeword layout (public interface): data word in bits ``[0, 32)``, check
bits in ``[32, 39)``.

This is the fast-path implementation.  The H matrix (built by
:func:`build_hsiao_columns`, which the reference codec imports from here,
so both use the same matrix) is flattened into two lookup structures:

* per-byte XOR tables — ``check = T0[b0] ^ T1[b1] ^ ...`` replaces the
  walk over every set data bit;
* a dense syndrome table of size ``2**check_bits`` mapping each
  odd-weight syndrome directly to the erroneous public-layout bit
  position (or -1 for "no matching column": a detected triple error).

The original bit-loop implementation lives on as
:class:`repro.ecc.reference.ReferenceHsiaoSecDedCode` and the
equivalence tests hold the two bit-identical.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.ecc.codec import DecodeResult, DecodeStatus, EccCode


#: Construction products per (data_bits, check_bits): building the H
#: matrix, byte XOR tables and the dense syndrome table costs a few
#: milliseconds — noticeable when spec canonicalisation instantiates a
#: code per point (the warm-resume hot path) — and the products are
#: immutable once built, so every instance of a given shape shares them.
_CONSTRUCTION_CACHE: Dict[Tuple[int, int], Tuple[List[int], Dict[int, int], list, object]] = {}


def build_hsiao_columns(data_bits: int, check_bits: int) -> List[int]:
    """Choose ``data_bits`` odd-weight columns of ``check_bits`` bits.

    Columns are drawn first from weight-3 vectors (balanced across check
    bits), then weight-5, and so on, following Hsiao's minimum-odd-weight
    construction.  The selection is deterministic so encodings are stable
    across runs and machines.  Shared by the reference and the fast
    SECDED codec so both use the *same* H matrix.
    """
    columns: List[int] = []
    usage = [0] * check_bits  # how many selected columns cover each check bit
    weight = 3
    while len(columns) < data_bits:
        if weight > check_bits:
            raise ValueError(
                f"cannot build Hsiao code: {data_bits} data bits, "
                f"{check_bits} check bits"
            )
        candidates = [
            sum(1 << bit for bit in combo)
            for combo in combinations(range(check_bits), weight)
        ]
        # Greedy balanced pick: repeatedly take the candidate whose check
        # bits are currently least used.
        remaining = list(candidates)
        while remaining and len(columns) < data_bits:
            remaining.sort(
                key=lambda col: (
                    sum(usage[b] for b in range(check_bits) if col >> b & 1),
                    col,
                )
            )
            chosen = remaining.pop(0)
            columns.append(chosen)
            for bit in range(check_bits):
                if chosen >> bit & 1:
                    usage[bit] += 1
        weight += 2
    return columns


class HsiaoSecDedCode(EccCode):
    """Hsiao odd-weight-column SECDED over ``data_bits`` bits (39,32 default)."""

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
        cached = _CONSTRUCTION_CACHE.get((data_bits, check_bits))
        if cached is not None:
            (
                self._data_columns,
                self._syndrome_to_position,
                self._byte_tables,
                self._syndrome_table,
            ) = cached
            return
        self._data_columns: List[int] = build_hsiao_columns(data_bits, check_bits)
        # Map syndrome -> erroneous bit position in the public layout
        # (kept as a dict for introspection; the dense list below is the
        # decode fast path).
        self._syndrome_to_position: Dict[int, int] = {}
        for position, column in enumerate(self._data_columns):
            self._syndrome_to_position[column] = position
        for check_index in range(check_bits):
            self._syndrome_to_position[1 << check_index] = data_bits + check_index

        # Per-byte XOR tables: table i maps a byte value to the XOR of the
        # H columns of data bits [8i, 8i+8).  Stored as C int arrays so
        # encode and decode index machine words, not boxed-Python lists.
        self._byte_tables: List[array] = []
        for base in range(0, data_bits, 8):
            table = array("q", bytes(8 * 256))
            width = min(8, data_bits - base)
            for byte in range(256):
                acc = 0
                bits = byte & ((1 << width) - 1)
                while bits:
                    low = bits & -bits
                    acc ^= self._data_columns[base + low.bit_length() - 1]
                    bits ^= low
                table[byte] = acc
            self._byte_tables.append(table)

        # Dense syndrome -> position table (only odd-weight syndromes are
        # ever looked up; -1 marks "no matching column").
        self._syndrome_table: array = array("q", [-1]) * (1 << check_bits)
        for syndrome, position in self._syndrome_to_position.items():
            self._syndrome_table[syndrome] = position
        _CONSTRUCTION_CACHE[(data_bits, check_bits)] = (
            self._data_columns,
            self._syndrome_to_position,
            self._byte_tables,
            self._syndrome_table,
        )

    # ------------------------------------------------------------------ #
    def _compute_check(self, data: int) -> int:
        check = 0
        for table in self._byte_tables:
            check ^= table[data & 0xFF]
            data >>= 8
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
        if syndrome.bit_count() & 1:
            position = self._syndrome_table[syndrome]
            if position < 0:
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

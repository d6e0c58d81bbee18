"""Common codec interface for all error-correcting codes.

Every code works on ``data_bits``-wide words (32 by default, matching the
DL1 word size of the LEON4) and produces a codeword of
``data_bits + check_bits`` bits.  Codewords are plain Python integers with
the data word in the low bits and the check bits above it — the layout is
an implementation convenience, not a claim about the physical array
layout, and is documented per code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional


class DecodeStatus(enum.Enum):
    """Outcome of decoding a (possibly corrupted) codeword."""

    CLEAN = "clean"                      # syndrome zero, no error observed
    CORRECTED = "corrected"              # single-bit error corrected
    DETECTED_UNCORRECTABLE = "detected"  # error detected but not correctable
    MISCORRECTED = "miscorrected"        # code applied a wrong "correction"


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding a codeword."""

    data: int
    status: DecodeStatus
    syndrome: int = 0
    corrected_bit: Optional[int] = None

    @property
    def detected(self) -> bool:
        return self.status in (
            DecodeStatus.CORRECTED,
            DecodeStatus.DETECTED_UNCORRECTABLE,
        )

    @property
    def corrected(self) -> bool:
        return self.status is DecodeStatus.CORRECTED


class EccCode:
    """Abstract base class for all codes.

    Subclasses must set :attr:`data_bits` and :attr:`check_bits` and
    implement :meth:`encode` and :meth:`decode`.
    """

    #: Short name (e.g. ``"secded"``) used in reports; set by subclasses.
    name: str = "abstract"
    data_bits: int = 32
    check_bits: int = 0

    @property
    def total_bits(self) -> int:
        return self.data_bits + self.check_bits

    def encode(self, data: int) -> int:
        """Return the codeword for ``data`` (data in the low bits)."""
        raise NotImplementedError

    def decode(self, codeword: int) -> DecodeResult:
        """Decode ``codeword``, correcting/flagging errors as supported."""
        raise NotImplementedError

    # Batch interface ---------------------------------------------------
    # One loop over the scalar paths for every code: each code's math
    # lives in its ``encode``/``decode`` alone, the pair the equivalence
    # tests pin against :mod:`repro.ecc.reference`.
    def encode_many(self, words: Iterable[int]) -> List[int]:
        """Encode a batch of data words (one codeword per input word)."""
        encode = self.encode
        return [encode(word) for word in words]

    def decode_many(self, codewords: Iterable[int]) -> List[DecodeResult]:
        """Decode a batch of codewords (one :class:`DecodeResult` each)."""
        decode = self.decode
        return [decode(codeword) for codeword in codewords]

    # Convenience helpers shared by all codes ---------------------------
    def _check_data_range(self, data: int) -> None:
        if data < 0 or data >> self.data_bits:
            raise ValueError(
                f"data word out of range for a {self.data_bits}-bit code: {data:#x}"
            )

    def _check_codeword_range(self, codeword: int) -> None:
        if codeword < 0 or codeword >> self.total_bits:
            raise ValueError(
                f"codeword out of range for a {self.total_bits}-bit code: {codeword:#x}"
            )


class RawWordCode(EccCode):
    """Identity "code" for an unprotected array (the no-ecc policy).

    32 data bits, zero check bits: every flip silently changes the data
    and the decoder never notices — exactly the behaviour the baseline
    write-back DL1 exhibits.  It is what a policy stores when it names
    no code, not a code one can choose.
    """

    name = "raw"
    data_bits = 32
    check_bits = 0

    def encode(self, data: int) -> int:
        return data & 0xFFFFFFFF

    def decode(self, codeword: int) -> DecodeResult:
        return DecodeResult(data=codeword & 0xFFFFFFFF, status=DecodeStatus.CLEAN)

"""Flat byte-addressable memory used by the functional simulator.

The functional simulator needs architectural memory semantics only; all
timing (caches, bus, DRAM) lives in :mod:`repro.memory`.  Memory is stored
sparsely in fixed-size pages so large address spaces (stack near the top
of a 2 GiB region, data at its base) do not allocate gigabytes.
"""

from __future__ import annotations

from typing import Dict, Iterable

PAGE_BITS = 12
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1


class MemoryAccessError(ValueError):
    """Raised on misaligned or malformed accesses."""


class FlatMemory:
    """Sparse little-endian byte-addressable memory."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------ #
    # byte primitives                                                    #
    # ------------------------------------------------------------------ #
    def _page_for(self, address: int, create: bool) -> bytearray:
        page_number = address >> PAGE_BITS
        page = self._pages.get(page_number)
        if page is None:
            if not create:
                return b""  # type: ignore[return-value]
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def read_byte(self, address: int) -> int:
        page = self._pages.get(address >> PAGE_BITS)
        if page is None:
            return 0
        return page[address & PAGE_MASK]

    def write_byte(self, address: int, value: int) -> None:
        page = self._page_for(address, create=True)
        page[address & PAGE_MASK] = value & 0xFF

    # ------------------------------------------------------------------ #
    # multi-byte accessors                                               #
    # ------------------------------------------------------------------ #
    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes (1, 2 or 4) little-endian, unsigned."""
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"unsupported access size {size}")
        if address % size != 0:
            raise MemoryAccessError(
                f"misaligned {size}-byte read at {address:#x}"
            )
        value = 0
        for offset in range(size):
            value |= self.read_byte(address + offset) << (8 * offset)
        return value

    def write(self, address: int, value: int, size: int) -> None:
        """Write ``size`` bytes (1, 2 or 4) little-endian."""
        if size not in (1, 2, 4):
            raise MemoryAccessError(f"unsupported access size {size}")
        if address % size != 0:
            raise MemoryAccessError(
                f"misaligned {size}-byte write at {address:#x}"
            )
        for offset in range(size):
            self.write_byte(address + offset, (value >> (8 * offset)) & 0xFF)

    def read_word(self, address: int) -> int:
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        self.write(address, value, 4)

    # ------------------------------------------------------------------ #
    # bulk initialisation                                                #
    # ------------------------------------------------------------------ #
    def load_bytes(self, base: int, payload: Iterable[int]) -> None:
        """Copy ``payload`` into memory starting at ``base``."""
        for offset, value in enumerate(payload):
            self.write_byte(base + offset, value)

    # ------------------------------------------------------------------ #
    # comparison                                                         #
    # ------------------------------------------------------------------ #
    def words(self) -> Dict[int, int]:
        """The non-zero contents as a word-address dictionary.

        An allocated-but-zero word is architecturally identical to an
        untouched one, so both are left out: the result is about
        *contents*, not allocation history.  Used by the fault-injection
        replay to diff a final memory image against the golden run's.
        """
        words: Dict[int, int] = {}
        for page_number, page in self._pages.items():
            base = page_number << PAGE_BITS
            for offset in range(0, PAGE_SIZE, 4):
                word = int.from_bytes(page[offset : offset + 4], "little")
                if word:
                    words[base + offset] = word
        return words

"""Seeded looping programs for differential tests of the timing engines.

``looping_program(seed)`` assembles a small terminating program drawn
from ``random.Random(seed)`` with the existing assembler.  It is a
counted loop whose body strings random fragments together, chosen so
that the same basic blocks are entered again and again under different
pipeline states (the state :class:`~repro.pipeline.timing.TimingPipeline`
keys its block memo on):

* a load just before the back-edge, walking a short stride, so it hits
  or misses the DL1 by iteration, and byte loads through the loaded
  value at the top of the loop;
* calls to leaf routines that load through the link register, and the
  same leaves entered by a plain branch with the link register set
  earlier (LAEC's data hazard present, then absent);
* store bursts, some longer than the write buffer, some one per line;
* a walk whose stride maps every access to one DL1 set, so it
  overflows the set;
* if/else on bits of the loop counter, both arms ending in a taken
  branch to the join (one of them to its fall-through, ``.+4``), the
  arms often ending in a load or a store burst and the join often
  loading through the arms' loaded value;
* ALU, multiply, divide and condition-code chains, sub-word loads and
  stores, and short inner loops.
"""

from __future__ import annotations

import random
from typing import List

from repro.isa.assembler import assemble
from repro.isa.program import Program

#: Registers the fragments compute with.  Loads also write the sinks,
#: which only byte loads through them (``chase``) read, so most loads
#: leave no operand wait behind.
VALUES = ["r4", "r5", "r6", "r7", "r8", "r9", "r10", "r11", "r12"]
SINKS = ["r13", "r14", "r15"]

#: Bytes between two accesses that map to one set of the default DL1
#: (16 KiB, four ways, 32-byte lines).
SAME_SET_STRIDE = 4096

ALU_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl", "addcc", "subcc", "orcc"]
LOADS = ["ld", "ld", "ld", "ldub", "ldsb", "lduh", "ldsh"]
STORES = ["st", "st", "sth", "stb"]
OFFSET_ALIGN = {"ld": 4, "st": 4, "lduh": 2, "ldsh": 2, "sth": 2, "ldub": 1, "ldsb": 1, "stb": 1}


class _Builder:
    """Accumulates the program text of one seed."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.leaves: List[List[str]] = []
        self.labels = 0

    def label(self, stem: str) -> str:
        self.labels += 1
        return f"{stem}_{self.labels}"

    def value(self) -> str:
        return self.rng.choice(VALUES)

    def offset(self, mnemonic: str, limit: int = 256) -> int:
        align = OFFSET_ALIGN[mnemonic]
        return self.rng.randrange(0, limit, align)

    # Fragments ------------------------------------------------------- #
    def alu(self) -> List[str]:
        rng = self.rng
        lines = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.12:
                lines.append(f"    smul {self.value()}, {self.value()}, {self.value()}")
            elif kind < 0.16:
                lines.append(f"    sdiv {self.value()}, {rng.randint(2, 9)}, {self.value()}")
            else:
                operand = self.value() if rng.random() < 0.5 else str(rng.randint(1, 7))
                lines.append(
                    f"    {rng.choice(ALU_OPS)} {self.value()}, {operand}, {self.value()}"
                )
        return lines

    def load(self, consumer: bool) -> List[str]:
        mnemonic = self.rng.choice(LOADS)
        target = self.value() if consumer else self.rng.choice(SINKS)
        lines = [f"    {mnemonic} [r1+{self.offset(mnemonic)}], {target}"]
        if consumer:
            lines.append(f"    add {target}, {self.value()}, {self.value()}")
        return lines

    def hazard_load(self, target: str) -> List[str]:
        """A load whose address register the previous instruction
        writes: LAEC cannot anticipate it."""
        mnemonic = self.rng.choice(LOADS)
        return [
            f"    add r1, {self.offset(mnemonic)}, r16",
            f"    {mnemonic} [r16+0], {target}",
        ]

    def store_burst(self) -> List[str]:
        """Stores off the fixed buffer (hits once warm), one per line, or
        through the walking pointers (hits and misses by iteration)."""
        rng = self.rng
        base = rng.choice(["r1", "r1", "r2", "r3"])
        per_line = rng.random() < 0.3
        lines = []
        for k in range(rng.randint(2, 9)):
            mnemonic = "st" if per_line or base != "r1" else rng.choice(STORES)
            offset = 32 * k if per_line else self.offset(mnemonic, 64 if base != "r1" else 256)
            lines.append(f"    {mnemonic} {self.value()}, [{base}+{offset}]")
        return lines

    def same_set_walk(self) -> List[str]:
        return [
            f"    ld [r3+0], {self.rng.choice(SINKS)}",
            f"    add r3, {SAME_SET_STRIDE}, r3",
        ]

    def call(self) -> List[str]:
        rng = self.rng
        if not self.leaves or rng.random() < 0.4:
            leaf = self.label("leaf")
            body = [f"{leaf}:", f"    ld [lr+{rng.randrange(0, 64, 4)}], {rng.choice(SINKS)}"]
            body += self.simple()
            body.append("    ret")
            self.leaves.append(body)
        leaf = rng.choice(self.leaves)[0][:-1]
        if rng.random() < 0.3:
            # The leaf entered by a branch: the link register was set
            # earlier, so the leaf's first load sees no data hazard.
            back = self.label("back")
            return [f"    set {back}, lr"] + self.alu() + [f"    ba {leaf}", f"{back}:"]
        return [f"    call {leaf}"]

    def chase(self, pointer: str) -> List[str]:
        """A byte load through ``pointer`` (a sink, so a loaded value):
        its LAEC look-ahead depends on when that load completed."""
        return [f"    ldub [{pointer}+0], {self.rng.choice(SINKS)}"]

    def if_else(self) -> List[str]:
        rng = self.rng
        other = self.label("else")
        join = self.label("join")
        sink = rng.choice(SINKS)
        then_arm = self.arm(sink)
        else_arm = self.arm(sink)
        lines = [f"    andcc r20, {rng.choice([1, 2, 3])}, r0", f"    be {other}"]
        lines += then_arm + [f"    ba {join}", f"{other}:"] + else_arm
        lines += [f"    ba {join}", f"{join}:"]
        join_head = rng.random()
        if join_head < 0.4:
            lines += self.chase(sink)
        elif join_head < 0.6:
            lines += self.store_burst()
        return lines

    def arm(self, sink: str) -> List[str]:
        """An if/else arm: ALU work, often ending in a load into ``sink``."""
        rng = self.rng
        lines = self.alu() if rng.random() < 0.7 else []
        choice = rng.random()
        if choice < 0.35:
            mnemonic = rng.choice(LOADS)
            lines.append(f"    {mnemonic} [r1+{self.offset(mnemonic)}], {sink}")
        elif choice < 0.6:
            lines += self.hazard_load(sink)
        elif choice < 0.75:
            lines += self.store_burst()
        elif choice < 0.9:
            # A store that misses, then a load that may wait for its
            # drain, so the arm ends with the Memory stage behind.
            lines.append(f"    st {self.value()}, [r3+0]")
            lines += [f"    add {self.value()}, 1, {self.value()}"] * rng.randint(0, 12)
            lines.append(f"    ld [r1+{self.offset('ld')}], {sink}")
        return lines

    def inner_loop(self) -> List[str]:
        top = self.label("inner")
        lines = [f"    set {self.rng.randint(2, 4)}, r21", f"{top}:"]
        lines += self.simple()
        lines += ["    subcc r21, 1, r21", f"    bg {top}"]
        return lines

    def simple(self) -> List[str]:
        """A fragment without control flow."""
        choice = self.rng.random()
        if choice < 0.3:
            return self.alu()
        if choice < 0.5:
            return self.load(consumer=self.rng.random() < 0.6)
        if choice < 0.6:
            return self.hazard_load(self.rng.choice(SINKS))
        if choice < 0.8:
            return self.store_burst()
        return self.same_set_walk()

    def fragment(self) -> List[str]:
        choice = self.rng.random()
        if choice < 0.4:
            return self.simple()
        if choice < 0.5:
            # A taken branch to the fall-through splits the block.
            label = self.label("next")
            return self.simple() + [f"    ba {label}", f"{label}:"]
        if choice < 0.65:
            return self.call()
        if choice < 0.9:
            return self.if_else()
        return self.inner_loop()

    # Whole program ---------------------------------------------------- #
    def source(self) -> str:
        rng = self.rng
        back_sink = rng.choice(SINKS)
        body: List[str] = self.chase(back_sink) if rng.random() < 0.4 else []
        for _ in range(rng.randint(3, 7)):
            body += self.fragment()
        stride = rng.choice([4, 8, 12, 20, 36])
        lines = [
            ".data",
            "buffer:",
            "    .space 1024",
            ".text",
            "main:",
            "    set buffer, r1",
            "    set buffer, r2",
            "    set 0x40000, r3",
        ]
        lines += [f"    set {rng.randint(1, 99)}, {reg}" for reg in VALUES]
        lines += [f"    set {rng.randint(4, 10)}, r20", "loop:"]
        lines += body
        lines += [
            f"    add r2, {stride}, r2",
            "    subcc r20, 1, r20",
            f"    ld [r2+0], {back_sink}",
            "    bg loop",
            "    halt",
        ]
        for leaf in self.leaves:
            lines += leaf
        return "\n".join(lines) + "\n"


def looping_source(seed: int) -> str:
    """The assembly text of seed ``seed``'s program."""
    return _Builder(random.Random(seed)).source()


def looping_program(seed: int) -> Program:
    """Seed ``seed``'s program, assembled."""
    return assemble(looping_source(seed), name=f"looping-{seed}")

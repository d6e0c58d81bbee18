"""Helpers shared by the kernel builders.

Kernels are generated as assembly source text.  The helpers here keep
the per-kernel builders focused on the algorithm: deterministic
pseudo-random data generation, ``.word`` table emission and iteration
scaling.
"""

from __future__ import annotations

import random
from typing import List, Sequence


def scaled(value: int, scale: float, *, minimum: int = 1) -> int:
    """Scale an iteration count, never dropping below ``minimum``."""
    return max(minimum, int(round(value * scale)))


def words_directive(values: Sequence[int], *, per_line: int = 8) -> str:
    """Render a list of 32-bit values as ``.word`` directives."""
    lines: List[str] = []
    for start in range(0, len(values), per_line):
        chunk = values[start : start + per_line]
        rendered = ", ".join(str(v & 0xFFFFFFFF) for v in chunk)
        lines.append(f"    .word {rendered}")
    return "\n".join(lines)


def deterministic_values(
    count: int, *, seed: int, low: int = 0, high: int = 1 << 15
) -> List[int]:
    """Deterministic pseudo-random table contents (stable across runs)."""
    rng = random.Random(seed)
    return [rng.randrange(low, high) for _ in range(count)]


def ramp(count: int, *, start: int = 0, step: int = 1) -> List[int]:
    """A monotonically increasing table (for lookup/interpolation kernels)."""
    return [start + i * step for i in range(count)]


def sine_table(count: int, *, amplitude: int = 1 << 12, seed: int = 7) -> List[int]:
    """A rough integer 'sine-like' table built without floating point.

    A triangle wave perturbed by a small deterministic noise term; good
    enough to make signal-processing kernels exercise realistic value
    ranges without needing math.sin at build time.
    """
    rng = random.Random(seed)
    values: List[int] = []
    quarter = max(1, count // 4)
    for i in range(count):
        phase = i % (4 * quarter)
        if phase < quarter:
            base = amplitude * phase // quarter
        elif phase < 2 * quarter:
            base = amplitude - amplitude * (phase - quarter) // quarter
        elif phase < 3 * quarter:
            base = -amplitude * (phase - 2 * quarter) // quarter
        else:
            base = -amplitude + amplitude * (phase - 3 * quarter) // quarter
        values.append(base + rng.randrange(-amplitude // 16, amplitude // 16 + 1))
    return values


def linked_list_nodes(
    count: int, *, node_words: int = 4, seed: int = 11, shuffle: bool = True
) -> List[int]:
    """Build the word image of a singly linked list laid out in one array.

    Each node occupies ``node_words`` 32-bit words: word 0 is the *index*
    of the next node (the kernel turns it into an address), the remaining
    words are payload.  The traversal order is shuffled so the chase does
    not degenerate into a sequential sweep.
    """
    rng = random.Random(seed)
    order = list(range(1, count))
    if shuffle:
        rng.shuffle(order)
    order.append(0)  # close the cycle back to node 0
    next_index = [0] * count
    current = 0
    for target in order:
        next_index[current] = target
        current = target
    image: List[int] = []
    for node in range(count):
        image.append(next_index[node])
        for payload in range(1, node_words):
            image.append(rng.randrange(0, 1 << 15) ^ (node * payload))
    return image

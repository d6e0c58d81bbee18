"""Stratified fault-point sampling.

A campaign samples injection points per stratum (one stratum per
kernel × policy × target × scenario × scale tuple of the sweep grid):
an injection ordinal uniform over the kernel's DL1 data accesses, a
word address drawn from the targeted array's plausible-resident
population, and a bit position uniform over the codeword width the
policy stores in that array.

Per target, the word population is:

* ``dl1`` — words the kernel has touched *before* the injection ordinal
  (the first-touch population — words it has not touched yet occupy no
  line, so flips aimed at them model upsets landing in unoccupied parts
  of the array);
* ``l2`` — every word of the golden run's working set.  The L2 (plus
  the memory behind it) holds the whole initial data image and every
  word the run ever writes back, so all touched words are L2-resident
  for the entire run, mirroring the DL1 first-touch population without
  its before-the-ordinal restriction.

Sampling is **prefix-deterministic**: the i-th point of a stratum
depends only on the campaign seed and the stratum identity, never on
batch sizes or early stopping.  That property is what makes checkpoint /
resume sound — a resumed campaign regenerates exactly the points the
killed campaign would have run, finds the finished ones in the store by
content hash, and simulates only the rest.

Each stratum also keeps a **sample cursor** (the live RNG plus its
position in the sequence), so drawing a stratum's N points in sequential
batches costs O(N) RNG draws in total instead of regenerating every
batch's prefix from index 0 (which made an N-trial stratum cost O(N²)
draws).  A window that starts before the cursor simply rebuilds the RNG
and replays the prefix — determinism never depends on the cursor cache.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.caching import lru_get, lru_put
from repro.core.policies import make_policy
from repro.scenarios.spec import FAULT_TARGETS, FaultSpec
from repro.telemetry import metrics as _metrics

#: The stratum-dimension defaults: a DL1 fault during an isolation run.
#: Strata pinned to these defaults keep the historical RNG identity, so
#: pre-existing DL1-only campaigns reproduce byte-identically.
DEFAULT_TARGET = "dl1"
ISOLATION_SCENARIO = "isolation"


@dataclass(frozen=True)
class KernelFaultSpace:
    """The sampleable population of one kernel at one scale.

    Derived from the memory-op stream of the kernel's golden run
    (:func:`repro.experiments.runner.cached_golden_run`), the same run
    batched replay classifies the sampled points against.  It is also
    the form a result store keeps (:meth:`payload`), so a resume that
    finds it there runs no kernel at all.
    """

    #: Total DL1 data accesses (loads + stores) of the golden run.
    mem_ops: int
    #: Distinct word addresses in first-touch order.
    first_touch: Tuple[int, ...]
    #: ``first_touch_ops[j]`` = 1-based ordinal of the memory operation
    #: that first touches ``first_touch[j]`` (strictly increasing).
    first_touch_ops: Tuple[int, ...]

    def population(self, ops: int) -> int:
        """Distinct words touched by the first ``ops`` memory operations."""
        return bisect_right(self.first_touch_ops, ops)

    def payload(self) -> Dict[str, object]:
        """The JSON form a result store keeps."""
        return {
            "mem_ops": self.mem_ops,
            "first_touch": list(self.first_touch),
            "first_touch_ops": list(self.first_touch_ops),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "KernelFaultSpace":
        return cls(
            mem_ops=payload["mem_ops"],
            first_touch=tuple(payload["first_touch"]),
            first_touch_ops=tuple(payload["first_touch_ops"]),
        )


_SPACE_CACHE: Dict[Tuple[str, float], KernelFaultSpace] = {}
_SPACE_CACHE_MAX = 32


def _derive_fault_space(kernel: str, scale: float) -> KernelFaultSpace:
    from repro.experiments.runner import cached_golden_run

    op_wa = cached_golden_run(kernel, scale).op_wa
    seen = set()
    first_touch: List[int] = []
    first_touch_ops: List[int] = []
    for ordinal, word in enumerate(op_wa, 1):
        if word not in seen:
            seen.add(word)
            first_touch.append(word)
            first_touch_ops.append(ordinal)
    return KernelFaultSpace(
        mem_ops=len(op_wa),
        first_touch=tuple(first_touch),
        first_touch_ops=tuple(first_touch_ops),
    )


def kernel_fault_space(kernel: str, scale: float, store=None) -> KernelFaultSpace:
    """The fault-sampling population of one kernel at one scale.

    Looked up in the in-process cache, then in ``store`` (a
    :class:`~repro.store.ResultStore`, if given), and only then derived
    from the kernel's golden run.  A space ``store`` lacks is written to
    it, so the next process resuming from that store runs no kernel.
    """
    key = (kernel, scale)
    space = lru_get(_SPACE_CACHE, key)
    store_key = None
    if store is not None:
        from repro.store import fault_space_key

        store_key = fault_space_key(kernel, scale)
    if space is None:
        stored = None if store_key is None else store.get_fault_space(store_key)
        if stored is None:
            space = _derive_fault_space(kernel, scale)
        else:
            space = KernelFaultSpace.from_payload(stored)
        source = "golden" if stored is None else "store"
        _metrics.inc("campaign_fault_spaces_total", labels={"source": source})
        lru_put(_SPACE_CACHE, key, space, _SPACE_CACHE_MAX)
        missing = stored is None
    else:
        missing = store_key is not None and not store.has_fault_space(store_key)
    if store_key is not None and missing:
        with _metrics.phase_timer("store_write"):
            store.put_fault_space(store_key, space.payload())
    return space


def target_codeword_bits(policy_value: str, target: str = DEFAULT_TARGET) -> int:
    """Codeword width of the targeted array under ``policy_value``."""
    policy = make_policy(policy_value)
    code = policy.l2_code() if target == "l2" else policy.dl1_code()
    return code.total_bits


def stratum_identity(
    seed: int,
    kernel: str,
    policy_value: str,
    *,
    target: str = DEFAULT_TARGET,
    scenario: str = ISOLATION_SCENARIO,
) -> str:
    """The RNG identity string of one stratum of the sweep grid.

    Non-default dimensions are appended as suffixes so the historical
    DL1 / isolation strata keep their original identity (and therefore
    their exact historical sample sequences), while every other stratum
    of the grid draws an independent stream.  Scale is deliberately not
    part of the identity: it enters through the fault space the draws
    are mapped onto (a different scale yields a different population and
    mem-op count, hence different points).
    """
    identity = f"campaign:{seed}:{kernel}:{policy_value}"
    if target != DEFAULT_TARGET:
        identity += f":target={target}"
    if scenario not in (None, ISOLATION_SCENARIO):
        identity += f":scenario={scenario}"
    return identity


def stratum_rng(
    seed: int,
    kernel: str,
    policy_value: str,
    *,
    target: str = DEFAULT_TARGET,
    scenario: str = ISOLATION_SCENARIO,
) -> random.Random:
    """The deterministic RNG of one stratum (independent of all others)."""
    return random.Random(
        stratum_identity(seed, kernel, policy_value, target=target, scenario=scenario)
    )


#: Stratum sample cursors: identity key -> [next_index, live RNG].  Pure
#: cache — losing an entry only costs a prefix replay, never determinism.
_CURSOR_CACHE: Dict[Tuple[str, float], List] = {}
_CURSOR_CACHE_MAX = 256

#: Total points drawn (including prefix replays) since process start or
#: the last :func:`reset_draw_count` — the O(N)-sampling regression hook.
_POINT_DRAWS = 0


def point_draw_count() -> int:
    """Number of sample points drawn from stratum RNGs so far."""
    return _POINT_DRAWS


def reset_draw_count() -> None:
    global _POINT_DRAWS
    _POINT_DRAWS = 0


def clear_sample_cursors() -> None:
    """Drop every cached stratum cursor (tests / determinism audits)."""
    _CURSOR_CACHE.clear()


def _draw_point(
    rng: random.Random, space: KernelFaultSpace, total_bits: int, target: str
) -> FaultSpec:
    """One point of a stratum's sequence (exactly one 3-draw step)."""
    global _POINT_DRAWS
    _POINT_DRAWS += 1
    at_access = rng.randint(1, space.mem_ops)
    if target == "l2":
        # The whole working set is L2-resident for the entire run.
        word = space.first_touch[rng.randrange(len(space.first_touch))]
    else:
        population = space.population(at_access - 1)
        if population:
            word = space.first_touch[rng.randrange(population)]
        else:
            # Nothing resident yet: aim at the first word the kernel
            # will touch — the flip lands in an unoccupied line and is
            # architecturally masked, modelling spatially wasted upsets.
            word = space.first_touch[0]
    bit = rng.randrange(total_bits)
    return FaultSpec(target=target, word_address=word, bit=bit, at_access=at_access)


def sample_faults(
    kernel: str,
    scale: float,
    policy_value: str,
    count: int,
    *,
    seed: int,
    start: int = 0,
    target: str = DEFAULT_TARGET,
    scenario: str = ISOLATION_SCENARIO,
) -> List[FaultSpec]:
    """Points ``start .. start+count`` of one stratum's sample sequence.

    Any ``(start, count)`` window of the same stratum always yields the
    same points — the resume invariant.  Sequential windows continue the
    stratum's cached sample cursor, so sweeping a stratum of N points in
    batches costs O(N) RNG draws total; a window behind the cursor
    rebuilds the RNG and replays the prefix, which is the only case that
    re-draws points.
    """
    if target not in FAULT_TARGETS:
        raise ValueError(
            f"unknown fault target {target!r}; expected one of {FAULT_TARGETS}"
        )
    space = kernel_fault_space(kernel, scale)
    if space.mem_ops == 0:
        return []
    total_bits = target_codeword_bits(policy_value, target)
    identity = stratum_identity(
        seed, kernel, policy_value, target=target, scenario=scenario
    )
    key = (identity, scale)
    cursor = lru_get(_CURSOR_CACHE, key)
    if cursor is None or cursor[0] > start:
        cursor = [
            0,
            stratum_rng(seed, kernel, policy_value, target=target, scenario=scenario),
        ]
    position, rng = cursor
    while position < start:
        _draw_point(rng, space, total_bits, target)
        position += 1
    points = [_draw_point(rng, space, total_bits, target) for _ in range(count)]
    cursor[0] = start + count
    cursor[1] = rng
    lru_put(_CURSOR_CACHE, key, cursor, _CURSOR_CACHE_MAX)
    return points

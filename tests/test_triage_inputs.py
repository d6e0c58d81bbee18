"""The invariant that makes analytical triage total.

``triage_dl1`` and ``triage_l2`` return a verdict for every point
because the inputs the system can build are closed: the five policies
of :mod:`repro.core.policies`, LRU caches and lines of at least one
word.  Under them each code reaches exactly one decode branch of triage
for a single-bit flip, and a write-through DL1 timeline carries no
dirty-data events.  These tests pin both halves.
"""

from __future__ import annotations

import pytest

from repro.campaign.timeline import (
    EV_END_FLUSH,
    EV_EVICT_DIRTY,
    EV_LINE_STORE,
    golden_timelines,
)
from repro.campaign.triage import geometry_for
from repro.core.policies import EccPolicyKind, make_policy
from repro.ecc.codec import DecodeStatus
from repro.experiments.runner import cached_golden_run
from repro.memory.config import WritePolicy
from repro.scenarios.spec import SimulationSpec
from repro.workloads import KERNEL_NAMES

#: A handful of data words: zero, all ones, alternating and arbitrary.
WORDS = (0x00000000, 0xFFFFFFFF, 0xAAAAAAAA, 0x55555555, 0x12345678, 0x80000001)

#: The decode status each code gives every single-bit flip.
EXPECTED = {
    "raw": DecodeStatus.CLEAN,
    "parity": DecodeStatus.DETECTED_UNCORRECTABLE,
    "secded": DecodeStatus.CORRECTED,
}


@pytest.mark.parametrize("kind", list(EccPolicyKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("target", ["dl1", "l2"])
def test_every_single_bit_flip_reaches_its_codes_branch(kind, target):
    policy = make_policy(kind)
    code = policy.dl1_code() if target == "dl1" else policy.l2_code()
    # Raw words live only in the write-back no-ecc hierarchy and parity
    # only in the write-through one: the premises of triage's branches.
    if code.name == "raw":
        assert policy.dl1_write_policy is WritePolicy.WRITE_BACK
    if code.name == "parity":
        assert target == "dl1"
        assert policy.dl1_write_policy is WritePolicy.WRITE_THROUGH
    for word in WORDS:
        codeword = code.encode(word)
        for bit in range(code.total_bits):
            decoded = code.decode(codeword ^ (1 << bit))
            assert decoded.status is EXPECTED[code.name], (code.name, word, bit)
            if code.name == "raw":
                assert decoded.data ^ word  # the flip is visible: a non-zero mask
            if code.name == "secded":
                assert decoded.data == word


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_write_through_timelines_hold_no_dirty_events(kernel):
    spec = SimulationSpec(kernel=kernel, scale=0.1, policy="wt-parity")
    geometry = geometry_for(spec.resolved_hierarchy().l1d)
    assert not geometry.write_back
    timelines = golden_timelines(cached_golden_run(kernel, 0.1), geometry)
    assert timelines
    kinds = {event[1] for events in timelines.values() for event in events}
    assert not kinds & {EV_EVICT_DIRTY, EV_END_FLUSH, EV_LINE_STORE}

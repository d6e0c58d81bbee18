"""ECC deployment policies for the DL1 cache.

A *policy* captures everything the timing pipeline must know about how a
particular ECC deployment changes instruction timing:

* whether the pipeline grows an extra ECC stage (8 stages instead of 7);
* how many cycles the Memory stage is occupied by a DL1 load hit;
* in which stage the loaded (and checked) value becomes available to
  dependent instructions;
* which DL1 write policy the scheme requires (the paper's point is that
  only correction-capable schemes can afford write-back);
* whether the LAEC look-ahead unit is active.

The concrete numbers implement Section II-B/III of the paper and are
summarised in DESIGN.md §5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.memory.config import WritePolicy

if TYPE_CHECKING:
    from repro.ecc.codec import EccCode


class EccPolicyKind(enum.Enum):
    """The five DL1 protection schemes modelled in this reproduction."""

    NO_ECC = "no-ecc"
    WT_PARITY = "wt-parity"
    EXTRA_CYCLE = "extra-cycle"
    EXTRA_STAGE = "extra-stage"
    LAEC = "laec"


class DataReadyStage(enum.Enum):
    """Pipeline stage at whose end a load hit's checked data is available."""

    MEMORY = "M"
    ECC = "ECC"


@dataclass(frozen=True)
class EccPolicy:
    """Base policy; concrete schemes are thin configurations of this."""

    kind: EccPolicyKind
    #: Human-readable name used in reports and figures.
    display_name: str
    #: True when the pipeline has a dedicated ECC stage after Memory.
    has_ecc_stage: bool
    #: DL1 write policy required/assumed by the scheme.
    dl1_write_policy: WritePolicy
    #: Cycles the Memory stage is occupied by a DL1 *load hit*.
    load_hit_memory_cycles: int
    #: Whether the LAEC look-ahead unit is present.
    supports_lookahead: bool
    #: Whether the DL1 can correct errors locally (needed for dirty data).
    corrects_errors: bool
    #: Whether the DL1 detects errors at all.
    detects_errors: bool
    #: ECC code name stored in the DL1 ("secded", "parity" or None).
    dl1_code_name: Optional[str]

    # ------------------------------------------------------------------ #
    # timing contract used by the pipeline                               #
    # ------------------------------------------------------------------ #
    def load_hit_data_ready_stage(self, lookahead_taken: bool) -> DataReadyStage:
        """Stage at whose end a dependent instruction may consume the data."""
        if not self.has_ecc_stage:
            return DataReadyStage.MEMORY
        if self.supports_lookahead and lookahead_taken:
            # Anticipated loads finish their ECC check in the Memory stage.
            return DataReadyStage.MEMORY
        return DataReadyStage.ECC

    def memory_stage_cycles(self, *, is_load: bool, hit: bool) -> int:
        """Cycles the Memory stage is occupied by this access."""
        if is_load and hit:
            return self.load_hit_memory_cycles
        return 1

    # ------------------------------------------------------------------ #
    # the codes stored in each data array                                #
    # ------------------------------------------------------------------ #
    def dl1_code(self) -> EccCode:
        """The code stored in the DL1 data array (bare words when none)."""
        from repro.ecc.codec import RawWordCode
        from repro.ecc.parity import ParityCode
        from repro.ecc.secded import HsiaoSecDedCode

        codes = {None: RawWordCode, "parity": ParityCode, "secded": HsiaoSecDedCode}
        return codes[self.dl1_code_name]()

    def l2_code(self) -> EccCode:
        """The code protecting the L2 data array.

        Every protected deployment of the paper pairs its DL1 scheme with
        a SECDED L2 (the baseline platform's L2 protection, Section
        II-A).  The ``no-ecc`` deployment is the fully unprotected
        hierarchy Figure 8 uses as its ideal baseline, so its L2 stores
        bare words and an L2 flip silently corrupts data exactly like a
        DL1 flip does.
        """
        from repro.ecc.codec import RawWordCode
        from repro.ecc.secded import HsiaoSecDedCode

        if self.kind is EccPolicyKind.NO_ECC:
            return RawWordCode()
        return HsiaoSecDedCode()



def NoEccPolicy() -> EccPolicy:
    """Ideal unprotected write-back DL1 — the baseline of Figure 8."""
    return EccPolicy(
        kind=EccPolicyKind.NO_ECC,
        display_name="No-ECC (ideal)",
        has_ecc_stage=False,
        dl1_write_policy=WritePolicy.WRITE_BACK,
        load_hit_memory_cycles=1,
        supports_lookahead=False,
        corrects_errors=False,
        detects_errors=False,
        dl1_code_name=None,
    )


def WriteThroughParityPolicy() -> EccPolicy:
    """LEON3/LEON4-style DL1: write-through with a parity bit.

    Load timing matches the baseline (parity is checked in parallel and
    a detected error simply triggers a refetch of the clean L2 copy),
    but every store must be pushed to the L2 over the shared bus, which
    is what degrades (guaranteed) performance in multicores.
    """
    return EccPolicy(
        kind=EccPolicyKind.WT_PARITY,
        display_name="Write-through + parity",
        has_ecc_stage=False,
        dl1_write_policy=WritePolicy.WRITE_THROUGH,
        load_hit_memory_cycles=1,
        supports_lookahead=False,
        corrects_errors=False,
        detects_errors=True,
        dl1_code_name="parity",
    )


def ExtraCacheCyclePolicy() -> EccPolicy:
    """SECDED checked within a two-cycle Memory stage (Section II-B.2/III-C)."""
    return EccPolicy(
        kind=EccPolicyKind.EXTRA_CYCLE,
        display_name="Extra Cache Cycle",
        has_ecc_stage=False,
        dl1_write_policy=WritePolicy.WRITE_BACK,
        load_hit_memory_cycles=2,
        supports_lookahead=False,
        corrects_errors=True,
        detects_errors=True,
        dl1_code_name="secded",
    )


def ExtraStagePolicy() -> EccPolicy:
    """SECDED checked in a dedicated pipeline stage after Memory (III-D)."""
    return EccPolicy(
        kind=EccPolicyKind.EXTRA_STAGE,
        display_name="Extra Stage",
        has_ecc_stage=True,
        dl1_write_policy=WritePolicy.WRITE_BACK,
        load_hit_memory_cycles=1,
        supports_lookahead=False,
        corrects_errors=True,
        detects_errors=True,
        dl1_code_name="secded",
    )


def LaecPolicy() -> EccPolicy:
    """The paper's Look-Ahead Error Correction scheme (Section III-E)."""
    return EccPolicy(
        kind=EccPolicyKind.LAEC,
        display_name="LAEC",
        has_ecc_stage=True,
        dl1_write_policy=WritePolicy.WRITE_BACK,
        load_hit_memory_cycles=1,
        supports_lookahead=True,
        corrects_errors=True,
        detects_errors=True,
        dl1_code_name="secded",
    )


_FACTORIES = {
    EccPolicyKind.NO_ECC: NoEccPolicy,
    EccPolicyKind.WT_PARITY: WriteThroughParityPolicy,
    EccPolicyKind.EXTRA_CYCLE: ExtraCacheCyclePolicy,
    EccPolicyKind.EXTRA_STAGE: ExtraStagePolicy,
    EccPolicyKind.LAEC: LaecPolicy,
}

_ALIASES = {
    "noecc": EccPolicyKind.NO_ECC,
    "no-ecc": EccPolicyKind.NO_ECC,
    "no_ecc": EccPolicyKind.NO_ECC,
    "baseline": EccPolicyKind.NO_ECC,
    "wt": EccPolicyKind.WT_PARITY,
    "wt-parity": EccPolicyKind.WT_PARITY,
    "wt_parity": EccPolicyKind.WT_PARITY,
    "parity": EccPolicyKind.WT_PARITY,
    "extra-cycle": EccPolicyKind.EXTRA_CYCLE,
    "extra_cycle": EccPolicyKind.EXTRA_CYCLE,
    "extracycle": EccPolicyKind.EXTRA_CYCLE,
    "extra-stage": EccPolicyKind.EXTRA_STAGE,
    "extra_stage": EccPolicyKind.EXTRA_STAGE,
    "extrastage": EccPolicyKind.EXTRA_STAGE,
    "laec": EccPolicyKind.LAEC,
}


def make_policy(kind: Union[str, EccPolicyKind, EccPolicy]) -> EccPolicy:
    """Build a policy from a kind, a name string, or pass through a policy.

    A policy instance passes through only when it equals its kind's
    factory-built policy: the result store keys a spec by the policy's
    kind alone, so a hand-modified policy would share (and be served)
    the results of the real one.
    """
    if isinstance(kind, EccPolicy):
        if kind != _FACTORIES[kind.kind]():
            raise ValueError(
                f"{kind.display_name!r} differs from the {kind.kind.value!r} policy; "
                "only the five built-in policies are supported"
            )
        return kind
    if isinstance(kind, EccPolicyKind):
        return _FACTORIES[kind]()
    key = str(kind).strip().lower()
    if key in _ALIASES:
        return _FACTORIES[_ALIASES[key]]()
    raise ValueError(
        f"unknown ECC policy {kind!r}; expected one of {sorted(_ALIASES)}"
    )



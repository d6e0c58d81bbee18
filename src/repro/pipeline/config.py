"""Pipeline configuration dataclass."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """Timing parameters of the in-order core.

    ``taken_branch_penalty`` models the bubble(s) a taken control
    transfer introduces between its Decode stage and the fetch of its
    target; LEON-class cores keep this at one cycle thanks to the
    architectural delay slot, which our ISA does not expose but whose
    timing effect we keep.  ``mul_latency``/``div_latency`` are the extra
    Execute-stage cycles of multiplications and divisions.
    """

    taken_branch_penalty: int = 1
    indirect_branch_penalty: int = 2
    mul_latency: int = 2
    div_latency: int = 18
    write_buffer_entries: int = 4
    #: Record per-instruction chronograms for at most this many dynamic
    #: instructions (0 disables recording; keeps memory bounded).
    chronogram_window: int = 0

    def __post_init__(self) -> None:
        if self.taken_branch_penalty < 0 or self.indirect_branch_penalty < 0:
            raise ValueError("branch penalties must be non-negative")
        if self.mul_latency < 1 or self.div_latency < 1:
            raise ValueError("mul/div latencies must be at least one cycle")
        if self.write_buffer_entries < 1:
            raise ValueError("the write buffer needs at least one entry")

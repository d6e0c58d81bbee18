"""Registry mapping EEMBC Automotive benchmark names to kernel builders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.workloads.kernels import control, math_kernels, memory_kernels, signal

if TYPE_CHECKING:
    from repro.isa.program import Program


@dataclass(frozen=True)
class KernelSpec:
    """Description of one workload kernel."""

    name: str
    description: str
    builder: Callable[[float], str]
    #: True when the kernel's load addresses are mostly produced by the
    #: immediately preceding instruction, which the paper identifies as
    #: the pattern limiting LAEC (aifftr, aiifft, bitmnp, matrix).
    laec_unfriendly: bool = False

    def source(self, scale: float = 1.0) -> str:
        return self.builder(scale)

    def program(self, scale: float = 1.0) -> Program:
        # The assembler loads only when a kernel is built: the name list
        # (a campaign config checks its kernels) needs none of it.
        from repro.isa.assembler import assemble

        return assemble(self.source(scale), name=self.name)


_SPECS: Dict[str, KernelSpec] = {
    spec.name: spec
    for spec in [
        KernelSpec(
            "a2time",
            "angle-to-time conversion with a correction table",
            math_kernels.build_a2time_source,
        ),
        KernelSpec(
            "aifftr",
            "radix-2 FFT butterflies (fixed point)",
            signal.build_aifftr_source,
            laec_unfriendly=True,
        ),
        KernelSpec(
            "aifirf",
            "direct-form FIR filter",
            signal.build_aifirf_source,
        ),
        KernelSpec(
            "aiifft",
            "radix-2 inverse FFT butterflies",
            signal.build_aiifft_source,
            laec_unfriendly=True,
        ),
        KernelSpec(
            "basefp",
            "emulated floating-point mantissa/exponent arithmetic",
            math_kernels.build_basefp_source,
        ),
        KernelSpec(
            "bitmnp",
            "bit manipulation with value-dependent table indexing",
            memory_kernels.build_bitmnp_source,
            laec_unfriendly=True,
        ),
        KernelSpec(
            "cacheb",
            "cache-busting strided sweeps with far-apart consumers",
            memory_kernels.build_cacheb_source,
        ),
        KernelSpec(
            "canrdr",
            "CAN remote-data-request filtering",
            control.build_canrdr_source,
        ),
        KernelSpec(
            "idctrn",
            "8x8 inverse discrete cosine transform",
            math_kernels.build_idctrn_source,
        ),
        KernelSpec(
            "iirflt",
            "cascaded biquad IIR filtering",
            signal.build_iirflt_source,
        ),
        KernelSpec(
            "matrix",
            "dense integer matrix multiply",
            math_kernels.build_matrix_source,
            laec_unfriendly=True,
        ),
        KernelSpec(
            "pntrch",
            "pointer chase over a shuffled linked list",
            memory_kernels.build_pntrch_source,
        ),
        KernelSpec(
            "puwmod",
            "pulse-width-modulation duty-cycle control",
            control.build_puwmod_source,
        ),
        KernelSpec(
            "rspeed",
            "road-speed calculation from timer deltas",
            control.build_rspeed_source,
        ),
        KernelSpec(
            "tblook",
            "breakpoint-table lookup with interpolation",
            control.build_tblook_source,
        ),
        KernelSpec(
            "ttsprk",
            "tooth-to-spark ignition timing",
            control.build_ttsprk_source,
        ),
    ]
}

#: The 16 benchmark names, in the order used by the paper's Table II /
#: Figure 8 (alphabetical, matching the paper's column order).
KERNEL_NAMES: List[str] = sorted(_SPECS)


def _lookup(name: str) -> KernelSpec:
    key = name.strip().lower()
    if key not in _SPECS:
        raise KeyError(
            f"unknown kernel {name!r}; available kernels: {', '.join(KERNEL_NAMES)}"
        )
    return _SPECS[key]


def check_kernel_scale(scale: float) -> None:
    """Reject a non-positive kernel scale.

    The builders clamp iteration counts, so a scale of 0 or below would
    otherwise run the smallest kernel under a spec of its own.
    """
    if not scale > 0:
        raise ValueError(f"kernel scale must be positive, got {scale}")


def build_kernel(name: str, *, scale: float = 1.0) -> Program:
    """Assemble the named kernel into a :class:`Program`."""
    check_kernel_scale(scale)
    return _lookup(name).program(scale)

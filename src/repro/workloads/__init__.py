"""Workloads: EEMBC-Automotive-like kernels and synthetic streams.

The paper evaluates the EEMBC Automotive suite, which is proprietary.
This package substitutes 16 hand-written kernels — one per EEMBC
benchmark name — implementing the same class of algorithm in our mini
ISA (see DESIGN.md §2 for the substitution argument), plus a synthetic
dynamic-stream generator that can be calibrated to arbitrary Table II
statistics for sensitivity studies.

The registry maps the paper's benchmark names to kernel builders::

    from repro.workloads import build_kernel, KERNEL_NAMES

    program = build_kernel("matrix")
"""

from repro.workloads.registry import KERNEL_NAMES, build_kernel

__all__ = ["KERNEL_NAMES", "build_kernel"]

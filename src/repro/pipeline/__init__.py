"""Cycle-accurate timing model of an NGMP/LEON4-class in-order core.

The model replays the columnar instruction stream produced by
:mod:`repro.functional` through the 7-stage pipeline of Figure 1 of the
paper (Fetch, Decode, Register Access, Execute, Memory, Exception,
Write-Back), extended with the ECC stage when the active policy requires
it.  Stalls arise from operand dependences (with full bypassing), DL1
misses, multi-cycle Memory occupancy, the write buffer, taken branches
and instruction-cache misses — exactly the effects the paper's
evaluation relies on.
"""

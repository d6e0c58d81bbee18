"""NGMP-like multicore SoC model.

The evaluation platform of the paper is a 4-core NGMP: private L1
caches per core, a shared bus, a shared L2 and off-chip memory.  The
paper runs its benchmarks on a single core, but the *reason* the whole
study exists is multicore interference: a write-through DL1 pushes every
store onto the shared bus, which inflates worst-case execution time
(WCET) dramatically [paper §I, §II-A and reference [9]].

:class:`repro.soc.ngmp.NgmpSoC` assembles per-core configurations around
shared bus/L2 parameters, and models inter-core interference through the
bus contention model (none / average / worst-case round-robin round),
which is the abstraction measurement-based WCET analyses use for this
class of arbiter.
"""

from repro.soc.ngmp import NgmpSoC, TaskPlacement

__all__ = ["NgmpSoC", "TaskPlacement"]

"""The per-process golden-run cache: one clean run per (kernel, scale).

:func:`cached_golden_run` interprets each kernel once per process and
shares the :class:`~repro.functional.interpreter.GoldenRun` with every
consumer: the timing paths (its columnar trace, through
:func:`repro.experiments.runner.cached_kernel_trace`) and fault
campaigns (its op stream, store history, register checkpoints and
final image).  Runs are policy-independent — the architectural stream
is identical under every ECC scheme by construction — so the semantics
of each kernel are interpreted exactly once per process no matter how
many runners, experiments, policies or campaigns use it.

It lives next to the kernels it runs, not in :mod:`repro.experiments`,
so a campaign process loads no experiment module.
"""

from __future__ import annotations

import atexit
from typing import Dict, Tuple

from repro.core.caching import lru_get, lru_put
from repro.functional.interpreter import GoldenRun, golden_pass
from repro.telemetry.metrics import phase_timer
from repro.workloads.registry import build_kernel

#: (kernel name, scale) -> the kernel's clean run.  Runs are treated as
#: immutable once built; everything that consumes them (the timing
#: engine, Table II accounting, chronograms, fault campaigns) only reads
#: them or fills their on-demand caches.
_GOLDEN_CACHE: Dict[Tuple[str, float], GoldenRun] = {}

#: Upper bound on cached (kernel, scale) runs.  The full campaign needs
#: 16 (one per kernel at one scale); the cap keeps long-lived processes
#: sweeping many scales from accumulating runs without bound.  Eviction
#: is least-recently-used: every hit moves its entry to the back of the
#: (insertion-ordered) dict, so the hottest traces survive long fault
#: campaigns that cycle through many scales — FIFO would evict exactly
#: the traces every stratum keeps coming back to.
KERNEL_TRACE_CACHE_MAX_ENTRIES = 48


def cached_golden_run(name: str, scale: float) -> GoldenRun:
    """Interpret (or fetch) the clean run of one kernel.

    The cache key is ``(name, scale)``: the functional behaviour of a
    kernel depends on nothing else, and in particular not on the ECC
    policy or pipeline configuration being timed.  The cache holds at
    most :data:`KERNEL_TRACE_CACHE_MAX_ENTRIES` runs; the
    least-recently-used entry is evicted when a new one would exceed the
    cap (a hit refreshes an entry's recency).
    """
    key = (name, scale)
    golden = lru_get(_GOLDEN_CACHE, key)
    if golden is None:
        with phase_timer("golden"):
            golden = golden_pass(build_kernel(name, scale=scale))
        lru_put(_GOLDEN_CACHE, key, golden, KERNEL_TRACE_CACHE_MAX_ENTRIES)
    return golden


def clear_kernel_trace_cache() -> None:
    """Drop all cached golden runs.

    Public API (PERFORMANCE.md): long-lived services embedding the
    campaign machinery call this between campaigns to release the cached
    runs (their trace columns, op streams, store histories and register
    checkpoints).
    """
    _GOLDEN_CACHE.clear()


# Release the cached runs when the interpreter exits, by reference
# counting.  Left in the module's globals, they would be freed by the
# interpreter's final cyclic collection, which first traverses every
# per-instruction list they hold: after ``--run all`` they hold nine
# tenths of the references that collection visits.
atexit.register(clear_kernel_trace_cache)

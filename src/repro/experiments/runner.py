"""Shared experiment infrastructure.

Most experiments need the same expensive ingredient: every kernel
simulated under every Figure 8 policy.  :class:`ExperimentRunner` builds
that result set once (re-using one functional trace per kernel, since the
policies do not change architectural behaviour) and hands it to the
individual experiments.

Two fast paths keep repeated campaigns cheap (see PERFORMANCE.md):

* a module-level **golden-run cache** keyed by ``(kernel, scale)``: the
  one clean run of each kernel (:func:`cached_golden_run`), shared by
  the timing paths (its columnar trace, :func:`cached_kernel_trace`)
  and fault campaigns (its op stream, snapshots and final image).
  Traces are policy-independent — the architectural stream is identical
  under every ECC scheme by construction — so the semantics of each
  kernel are interpreted exactly once per process no matter how many
  runners, experiments, policies or campaigns use it;
* an opt-in **process-pool fan-out** (``max_workers=``) that distributes
  whole kernels (one functional simulation + all policy timing runs)
  across worker processes.  Results are reassembled in kernel order, so
  the run set is deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.caching import lru_get, lru_put
from repro.core.policies import EccPolicyKind
from repro.functional.interpreter import FunctionalTrace, GoldenRun, golden_pass
from repro.isa.program import Program
from repro.scenarios.spec import SimulationSpec
from repro.simulation import SimulationResult, simulate_spec
from repro.telemetry.metrics import phase_timer
from repro.workloads import KERNEL_NAMES, build_kernel

FIGURE8_POLICIES = (
    EccPolicyKind.NO_ECC,
    EccPolicyKind.EXTRA_CYCLE,
    EccPolicyKind.EXTRA_STAGE,
    EccPolicyKind.LAEC,
)

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


def cached_kernel_trace(name: str, scale: float) -> Tuple[Program, FunctionalTrace]:
    """The program and functional trace of one kernel (see :func:`cached_golden_run`)."""
    golden = cached_golden_run(name, scale)
    return golden.program, golden.trace


def kernel_trace_cache_size() -> int:
    """Number of (kernel, scale) runs currently cached."""
    return len(_GOLDEN_CACHE)


def clear_kernel_trace_cache() -> None:
    """Drop all cached golden runs.

    Part of the public :mod:`repro.experiments` API: long-lived services
    embedding the campaign machinery call this between campaigns to
    release the cached runs (their trace columns, op streams and
    snapshots).
    """
    _GOLDEN_CACHE.clear()


def _simulate_kernel_task(
    args: Tuple[str, float, Tuple[str, ...]]
) -> Tuple[str, FunctionalTrace, Dict[str, "SimulationResult"]]:
    """Worker-side job: one kernel under every policy (module-level so it
    pickles for :class:`ProcessPoolExecutor`).

    The functional trace is shared by every policy's result, so it is
    detached before pickling and shipped exactly once — otherwise each
    of the N per-policy results would serialise its own copy of the
    trace's columns.  The parent re-attaches it.
    """
    name, scale, policy_values = args
    program, trace = cached_kernel_trace(name, scale)
    per_policy = {
        value: simulate_spec(
            SimulationSpec(kernel=name, scale=scale, policy=value),
            program=program,
            trace=trace,
        )
        for value in policy_values
    }
    for result in per_policy.values():
        result.trace = None  # re-attached by the parent
    return name, trace, per_policy


@dataclass
class KernelRunSet:
    """All simulation results for one experiment campaign.

    ``results[benchmark][policy_value]`` is a
    :class:`~repro.simulation.SimulationResult`.
    """

    scale: float
    results: Dict[str, Dict[str, SimulationResult]] = field(default_factory=dict)

    def benchmarks(self) -> List[str]:
        return sorted(self.results)

    def result(self, benchmark: str, policy: EccPolicyKind) -> SimulationResult:
        return self.results[benchmark][policy.value]

    def baseline(self, benchmark: str) -> SimulationResult:
        return self.results[benchmark][EccPolicyKind.NO_ECC.value]


class ExperimentRunner:
    """Builds and caches the kernel × policy result matrix.

    ``max_workers`` opts into the process-pool fan-out: each worker
    simulates whole kernels (functional trace once, then every policy),
    and the parent reassembles results in ``kernels`` order so output is
    deterministic.  ``max_workers=0`` picks :func:`os.cpu_count`.  The
    default (``None``) stays serial, which is the right call for a single
    small kernel set or when the caller is already parallel.

    ``store`` (a :class:`~repro.store.ResultStore`) opts into the
    cross-process result cache: timing results found under their spec
    hash are reconstructed instead of re-simulated (the functional trace
    is re-attached from the kernel-trace cache), and fresh results are
    written back.  ``run_all(force=True)`` bypasses both the in-memory
    run set *and* store reads — results are recomputed and the store is
    refreshed, which is how a stored campaign is validated.
    """

    def __init__(
        self,
        *,
        scale: float = 1.0,
        kernels: Optional[Iterable[str]] = None,
        policies: Iterable[EccPolicyKind] = FIGURE8_POLICIES,
        max_workers: Optional[int] = None,
        store=None,
    ) -> None:
        self.scale = scale
        self.kernels = list(kernels) if kernels is not None else list(KERNEL_NAMES)
        self.policies = list(policies)
        if max_workers == 0:
            max_workers = os.cpu_count() or 1
        self.max_workers = max_workers
        self.store = store
        self._run_set: Optional[KernelRunSet] = None

    def run_all(self, *, force: bool = False) -> KernelRunSet:
        """Simulate every kernel under every policy (cached).

        ``force=True`` recomputes everything: the memoised run set is
        discarded and, when a store is attached, stored results are
        ignored on read (but refreshed on write).
        """
        if self._run_set is not None and not force:
            return self._run_set
        workers = self.max_workers or 1
        if workers > 1 and len(self.kernels) > 1:
            run_set = self._run_parallel(
                min(workers, len(self.kernels)), read_store=not force
            )
        else:
            run_set = self._run_serial(read_store=not force)
        self._run_set = run_set
        return run_set

    # ------------------------------------------------------------------ #
    def _simulate_stored(self, spec, program, trace, *, read_store: bool):
        """One spec through the store-aware path (used by the serial run)."""
        if self.store is None:
            return simulate_spec(spec, program=program, trace=trace)
        if read_store:
            return simulate_spec(spec, program=program, trace=trace, store=self.store)
        from repro.store import store_timing_result

        result = simulate_spec(spec, program=program, trace=trace)
        store_timing_result(self.store, spec, result)
        return result

    def _run_serial(self, *, read_store: bool = True) -> KernelRunSet:
        run_set = KernelRunSet(scale=self.scale)
        for name in self.kernels:
            program, trace = cached_kernel_trace(name, self.scale)
            per_policy: Dict[str, SimulationResult] = {}
            for policy in self.policies:
                spec = SimulationSpec(kernel=name, scale=self.scale, policy=policy)
                per_policy[policy.value] = self._simulate_stored(
                    spec, program, trace, read_store=read_store
                )
            run_set.results[name] = per_policy
        return run_set

    def _run_parallel(self, workers: int, *, read_store: bool = True) -> KernelRunSet:
        policy_values = tuple(policy.value for policy in self.policies)
        run_set = KernelRunSet(scale=self.scale)
        # With a store attached, stored (kernel, policy) results are
        # reconstructed in the parent at per-policy granularity; workers
        # (which do not share the parent's SQLite connection) only
        # compute the genuinely missing policies of each kernel.
        restored: Dict[str, Dict[str, SimulationResult]] = {}
        missing: Dict[str, Tuple[str, ...]] = {}
        if self.store is not None and read_store:
            for name in self.kernels:
                row, absent = self._restore_kernel_row(name, policy_values)
                restored[name] = row
                if absent:
                    missing[name] = absent
        else:
            missing = {name: policy_values for name in self.kernels}
            restored = {name: {} for name in self.kernels}
        tasks = [(name, self.scale, missing[name]) for name in self.kernels if name in missing]
        if tasks:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as executor:
                # ``map`` preserves submission order, so results land in
                # ``self.kernels`` order no matter which worker finishes
                # first.
                for name, trace, per_policy in executor.map(
                    _simulate_kernel_task, tasks
                ):
                    for result in per_policy.values():
                        result.trace = trace
                        if self.store is not None:
                            from repro.store import store_timing_result

                            store_timing_result(self.store, result.spec, result)
                    restored[name].update(per_policy)
        for name in self.kernels:
            run_set.results[name] = {
                value: restored[name][value] for value in policy_values
            }
        return run_set

    def _restore_kernel_row(self, name: str, policy_values):
        """Rebuild whatever the store holds of one kernel's policy row.

        Returns ``(restored, missing)``: the per-policy results that
        could be reconstructed (functional trace re-attached) and the
        policy values that still need simulating.
        """
        from repro.store import result_from_payload, spec_hash

        payloads = {}
        specs = {}
        for value in policy_values:
            spec = SimulationSpec(kernel=name, scale=self.scale, policy=value)
            payload = self.store.get(spec_hash(spec))
            if payload is not None:
                specs[value] = spec
                payloads[value] = payload
        missing = tuple(value for value in policy_values if value not in payloads)
        if not payloads:
            return {}, missing
        _, trace = cached_kernel_trace(name, self.scale)
        restored = {
            value: result_from_payload(specs[value], payloads[value], trace=trace)
            for value in payloads
        }
        return restored, missing

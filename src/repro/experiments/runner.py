"""Shared experiment infrastructure.

Most experiments need the same expensive ingredient: every kernel
simulated under every Figure 8 policy.  :class:`ExperimentRunner` builds
that result set once (re-using one functional trace per kernel, since the
policies do not change architectural behaviour) and hands it to the
individual experiments.

Two fast paths keep repeated campaigns cheap (see PERFORMANCE.md):

* the per-process **golden-run cache** of :mod:`repro.workloads.golden`
  (:func:`cached_golden_run`, re-exported here with
  :func:`clear_kernel_trace_cache`): one clean run per
  ``(kernel, scale)``, whose columnar trace :func:`cached_kernel_trace`
  serves to the timing paths;
* an opt-in **process-pool fan-out** (``max_workers=``) that distributes
  whole kernels (one functional simulation + all policy timing runs)
  across worker processes.  Results are reassembled in kernel order, so
  the run set is deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.policies import EccPolicyKind
from repro.functional.interpreter import FunctionalTrace
from repro.isa.program import Program
from repro.scenarios.spec import DEFAULT_CAMPAIGN_SCALE, SimulationSpec
from repro.simulation import SimulationResult, simulate_spec
from repro.workloads.golden import cached_golden_run
from repro.workloads.golden import clear_kernel_trace_cache  # noqa: F401  (re-export)
from repro.workloads.registry import KERNEL_NAMES

FIGURE8_POLICIES = (
    EccPolicyKind.NO_ECC,
    EccPolicyKind.EXTRA_CYCLE,
    EccPolicyKind.EXTRA_STAGE,
    EccPolicyKind.LAEC,
)


def cached_kernel_trace(name: str, scale: float) -> Tuple[Program, FunctionalTrace]:
    """The program and functional trace of one kernel (see :func:`cached_golden_run`)."""
    golden = cached_golden_run(name, scale)
    return golden.program, golden.trace


def _simulate_kernel_task(
    args: Tuple[str, float, Tuple[str, ...]]
) -> Tuple[str, Dict[str, "SimulationResult"]]:
    """One kernel under the given policies: the runner's only unit of
    work, run inline or in a pool worker (module-level so it pickles for
    :class:`ProcessPoolExecutor`).

    The results carry no functional trace: nothing reads it from a run
    set, and each of the N per-policy results would otherwise pickle its
    own copy of the trace's columns.  :func:`cached_kernel_trace` serves
    the trace to whoever needs it.
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
        result.trace = None
    return name, per_policy


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
    hash are reconstructed instead of re-simulated, and fresh results
    are written back.  Results in a run set carry no functional trace
    (:func:`cached_kernel_trace` has it).  ``run_all(force=True)``
    bypasses both the in-memory run set *and* store reads — results are
    recomputed and the store is refreshed, which is how a stored
    campaign is validated.
    """

    def __init__(
        self,
        *,
        scale: float = DEFAULT_CAMPAIGN_SCALE,
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

        One path whatever the workers and store: the parent restores
        every stored (kernel, policy) result, one task per kernel
        computes the missing policies (inline when serial, over a
        process pool when ``max_workers > 1``), and the parent writes
        the fresh results to the store.  Workers never touch the
        parent's SQLite connection.

        ``force=True`` recomputes everything: the memoised run set is
        discarded and, when a store is attached, stored results are
        ignored on read (but refreshed on write).
        """
        if self._run_set is not None and not force:
            return self._run_set
        policy_values = tuple(policy.value for policy in self.policies)
        read_store = self.store is not None and not force
        rows = {
            name: self._restore(name, policy_values) if read_store else {}
            for name in self.kernels
        }
        tasks = []
        for name in self.kernels:
            missing = tuple(value for value in policy_values if value not in rows[name])
            if missing:
                tasks.append((name, self.scale, missing))
        for name, per_policy in self._map(_simulate_kernel_task, tasks):
            if self.store is not None:
                from repro.store.serialize import store_timing_result

                for result in per_policy.values():
                    store_timing_result(self.store, result.spec, result)
            rows[name].update(per_policy)
        run_set = KernelRunSet(scale=self.scale)
        for name in self.kernels:
            run_set.results[name] = {
                value: rows[name][value] for value in policy_values
            }
        self._run_set = run_set
        return run_set

    def _map(self, task, tasks):
        """``task`` over ``tasks`` in order: inline, or over a process pool."""
        workers = min(self.max_workers or 1, len(tasks))
        if workers <= 1:
            return map(task, tasks)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as executor:
            # ``map`` preserves submission order, so results land in
            # ``self.kernels`` order no matter which worker finishes first.
            return list(executor.map(task, tasks))

    def _restore(self, name: str, policy_values) -> Dict[str, SimulationResult]:
        """Whatever the store holds of one kernel's policy row.

        Restoring runs no kernel; the policies missing from the returned
        dict still need simulating.
        """
        from repro.store.canonical import spec_hash
        from repro.store.serialize import result_from_payload

        restored = {}
        for value in policy_values:
            spec = SimulationSpec(kernel=name, scale=self.scale, policy=value)
            payload = self.store.get(spec_hash(spec))
            if payload is not None:
                restored[value] = result_from_payload(spec, payload)
        return restored

"""High-level simulation façade.

Most users only need two calls::

    from repro import simulate_kernel

    baseline = simulate_kernel("matrix", policy="no-ecc")
    laec = simulate_kernel("matrix", policy="laec")
    print(laec.cycles / baseline.cycles - 1.0)   # Figure 8 data point

:class:`SimulationResult` bundles the functional trace, the timing
statistics and the chronogram.

Every entry path — :func:`simulate_kernel`, the experiment runner, the
WCET study and the fault campaign — constructs a declarative
:class:`~repro.scenarios.SimulationSpec` and funnels it through
:func:`simulate_spec`, the single place where a spec is turned into a
functional trace and a timing run.  An arbitrary assembled
:class:`~repro.isa.program.Program` is timed by passing it as
``simulate_spec(spec, program=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core.policies import EccPolicy, EccPolicyKind
from repro.functional.interpreter import FunctionalTrace, run_program
from repro.isa.program import Program
from repro.pipeline.chronogram import Chronogram
from repro.pipeline.statistics import PipelineStatistics
from repro.pipeline.timing import PipelineResult, TimingPipeline
from repro.scenarios.spec import SimulationSpec


@dataclass
class SimulationResult:
    """Everything produced by one program/policy simulation."""

    program_name: str
    policy: EccPolicy
    #: The functional trace that was timed; ``None`` for a result restored
    #: from a store without one and for every result of an experiment run
    #: set.
    trace: Optional[FunctionalTrace]
    timing: PipelineResult
    #: The declarative spec this result was produced from (``None`` only
    #: for results assembled by hand, e.g. in unit tests).
    spec: Optional[SimulationSpec] = None
    #: Architectural fault-injection outcome
    #: (:class:`repro.campaign.replay.ArchInjectionResult`) when the
    #: spec armed a :class:`~repro.scenarios.FaultSpec`.
    injection: Optional[object] = None
    #: True when this result was reconstructed from a
    #: :class:`~repro.store.ResultStore` payload rather than simulated
    #: in this process (``trace`` is then the one the caller passed to
    #: :func:`simulate_spec`, if any).
    from_store: bool = False

    @property
    def cycles(self) -> int:
        return self.timing.cycles

    @property
    def instructions(self) -> int:
        return self.timing.instructions

    @property
    def cpi(self) -> float:
        return self.timing.cpi

    @property
    def stats(self) -> PipelineStatistics:
        return self.timing.stats

    @property
    def chronogram(self) -> Chronogram:
        return self.timing.chronogram

    def execution_time_increase_over(self, baseline: "SimulationResult") -> float:
        """Relative execution-time increase versus ``baseline`` (Figure 8)."""
        return self.timing.execution_time_increase_over(baseline.timing)

    def summary(self) -> Dict[str, float]:
        summary = dict(self.stats.as_dict())
        summary["policy"] = self.policy.kind.value
        summary["program"] = self.program_name
        return summary


def simulate_spec(
    spec: SimulationSpec,
    *,
    program: Optional[Program] = None,
    trace: Optional[FunctionalTrace] = None,
    store=None,
) -> SimulationResult:
    """Execute one declarative :class:`SimulationSpec`.

    This is the funnel every public entry path goes through.  ``program``
    may be supplied to bypass the kernel registry; ``trace`` may be
    supplied to reuse a functional trace across policies — the
    architectural stream is identical under every ECC scheme by
    construction.  A spec that names no kernel needs one of the two: a
    trace alone (a synthetic stream) is timed as is, under its own
    ``program_name``.

    Two opt-in layers sit in front of the plain run:

    * a spec with an armed :class:`~repro.scenarios.FaultSpec` is routed
      through the campaign's fault-injection engine
      (:mod:`repro.campaign.replay`) — the returned result then times
      the dynamic stream the *faulty* machine actually executed and
      carries the injection classification in ``result.injection``;
    * ``store`` (a :class:`~repro.store.ResultStore`) makes the call a
      cross-process cache lookup: cacheable specs found in the store are
      reconstructed without simulating, and fresh results are written
      back under their content hash.
    """
    if spec.fault is not None:
        from repro.campaign.replay import simulate_faulty_spec

        return simulate_faulty_spec(spec, program=program, trace=trace)
    if store is not None:
        from repro.store.canonical import spec_hash
        from repro.store.serialize import (
            cacheable,
            result_from_payload,
            store_timing_result,
        )

        if cacheable(spec):
            payload = store.get(spec_hash(spec))
            if payload is not None:
                return result_from_payload(spec, payload, trace=trace)
            result = simulate_spec(spec, program=program, trace=trace)
            store_timing_result(store, spec, result)
            return result
    resolved_policy = spec.resolved_policy()
    if trace is None:
        if program is None:
            program = spec.build_program()
        trace = run_program(program, max_instructions=spec.max_instructions)
    pipeline = TimingPipeline(resolved_policy, spec.resolved_hierarchy(), spec.pipeline)
    return SimulationResult(
        program_name=program.name if program is not None else trace.program_name,
        policy=resolved_policy,
        trace=trace,
        timing=pipeline.run(trace),
        spec=spec,
    )


def simulate_kernel(
    kernel_name: str,
    *,
    policy: Union[str, EccPolicyKind, EccPolicy] = EccPolicyKind.NO_ECC,
    scale: float = 1.0,
) -> SimulationResult:
    """Assemble and simulate one of the EEMBC-Automotive-like kernels.

    ``scale`` shrinks or grows the kernel's iteration counts (useful to
    trade accuracy for speed in tests); 1.0 reproduces the default
    workload sizes used by the benchmark harness.
    """
    return simulate_spec(SimulationSpec(kernel=kernel_name, scale=scale, policy=policy))

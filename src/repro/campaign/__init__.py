"""Architectural fault-injection campaign engine.

This package turns the codec-level fault experiments into what the paper
actually argues about: soft errors landing in *live* DL1/L2 lines during
real kernel runs, observed end to end — masking, correction, detection,
propagation into the memory image (SDC) and pure timing deviations.

* :mod:`repro.campaign.replay` — the injection engine: classify a
  batch of :class:`~repro.scenarios.spec.FaultSpec` points against a
  shared golden run, by analytical triage (:mod:`repro.campaign.triage`)
  and snapshot resume on :func:`repro.functional.interpreter.execute`.
  The full re-execution it replaces is the test oracle
  :mod:`repro.campaign.reference`.
* :mod:`repro.campaign.sampling` — deterministic stratified sampling of
  (injection cycle × cache word × bit) points per stratum of the sweep
  grid (kernel × policy × target × scenario × scale), with an O(N)
  per-stratum sample cursor.
* :mod:`repro.campaign.engine` — the campaign driver: declarative
  multi-dimensional sweeps (DL1/L2 targets, named interference
  scenarios, scales), batching, Wilson confidence intervals with early
  stopping, process-pool sharding, per-dimension marginals, and
  checkpoint/resume through the content-addressed
  :class:`~repro.store.ResultStore`.
* :mod:`repro.campaign.stats` — Wilson score intervals.
* :mod:`repro.campaign.errors` — the failure taxonomy (``PointTimeout``,
  ``WorkerCrash``, ``ReplayDivergence``, ``StoreCorruption``,
  ``CampaignInterrupted``) the execution supervisor quarantines poison
  points under.
* :mod:`repro.campaign.chaos` — deterministic harness-fault injection
  (kill a worker at point N, hang a point past the watchdog, corrupt a
  store row) that makes the fault-tolerance layer testable end to end.

Typical use::

    from repro.campaign import CampaignConfig, run_campaign
    from repro.store import ResultStore

    config = CampaignConfig(kernels=("matrix", "pntrch"), trials=120)
    with ResultStore("campaign.sqlite") as store:
        result = run_campaign(config, store=store, resume=True)
    print(result.render())
"""

from repro.campaign.chaos import (
    ChaosDirective,
    ChaosPlan,
    corrupt_store_row,
    parse_chaos,
)
from repro.campaign.engine import (
    FIGURE8_POLICY_VALUES,
    OUTCOME_KEYS,
    CampaignConfig,
    CampaignResult,
    StratumSummary,
    analytical_reference,
    run_campaign,
)
from repro.campaign.errors import (
    CampaignError,
    CampaignInterrupted,
    PointTimeout,
    QuarantinedPoint,
    ReplayDivergence,
    StoreCorruption,
    SupervisorStats,
    WorkerCrash,
)
from repro.campaign.replay import (
    ArchInjectionResult,
    ArchOutcome,
    run_injection_batch,
    simulate_faulty_spec,
    warm_lean_golden,
)
from repro.campaign.sampling import (
    DEFAULT_TARGET,
    ISOLATION_SCENARIO,
    KernelFaultSpace,
    clear_sample_cursors,
    kernel_fault_space,
    point_draw_count,
    reset_draw_count,
    sample_faults,
    stratum_identity,
    target_codeword_bits,
)
from repro.campaign.stats import wilson_half_width, wilson_interval

__all__ = [
    "DEFAULT_TARGET",
    "FIGURE8_POLICY_VALUES",
    "ISOLATION_SCENARIO",
    "OUTCOME_KEYS",
    "ArchInjectionResult",
    "ArchOutcome",
    "CampaignConfig",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignResult",
    "ChaosDirective",
    "ChaosPlan",
    "KernelFaultSpace",
    "PointTimeout",
    "QuarantinedPoint",
    "ReplayDivergence",
    "StoreCorruption",
    "StratumSummary",
    "SupervisorStats",
    "WorkerCrash",
    "corrupt_store_row",
    "parse_chaos",
    "analytical_reference",
    "clear_sample_cursors",
    "kernel_fault_space",
    "point_draw_count",
    "reset_draw_count",
    "run_campaign",
    "run_injection_batch",
    "sample_faults",
    "stratum_identity",
    "target_codeword_bits",
    "simulate_faulty_spec",
    "warm_lean_golden",
    "wilson_half_width",
    "wilson_interval",
]

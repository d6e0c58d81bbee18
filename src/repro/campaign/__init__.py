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
* :mod:`repro.campaign.outcome` — the outcome taxonomy (``masked``,
  ``corrected``, ``detected``, ``sdc``, ``timing``), importable without
  the replay stack.
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

from repro.campaign.engine import CampaignConfig, run_campaign

__all__ = ["CampaignConfig", "run_campaign"]

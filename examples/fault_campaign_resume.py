#!/usr/bin/env python
"""Checkpoint / resume an architectural fault-injection campaign.

Runs half of a campaign against a persistent result store, pretends the
process died, then re-runs the full campaign with ``resume``: only the
missing points are simulated, the finished ones are content-hash lookups,
and the final summary is byte-identical to an uninterrupted run.

Run from the repository root::

    PYTHONPATH=src python examples/fault_campaign_resume.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import CampaignConfig, run_campaign
from repro.store import ResultStore

KERNELS = ("canrdr", "rspeed")
POLICIES = ("no-ecc", "extra-cycle", "laec")
SCALE = 0.1
SEED = 2019


def config(trials: int) -> CampaignConfig:
    return CampaignConfig(
        kernels=KERNELS,
        policies=POLICIES,
        scale=SCALE,
        trials=trials,
        batch=6,
        seed=SEED,
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as directory:
        store_path = Path(directory) / "campaign.sqlite"
        print(f"store: {store_path}\n")

        # --- phase 1: the campaign is "killed" after half its budget ------- #
        with ResultStore(store_path) as store:
            partial = run_campaign(config(trials=12), store=store, resume=True)
            print(
                f"phase 1 (interrupted): simulated {partial.simulated} points, "
                f"{len(store)} checkpointed"
            )

        # --- phase 2: resume with the full budget -------------------------- #
        with ResultStore(store_path) as store:
            resumed = run_campaign(config(trials=24), store=store, resume=True)
            print(
                f"phase 2 (resumed):     simulated {resumed.simulated} new points, "
                f"reused {resumed.store_hits} from the store\n"
            )

        # --- the summary is exactly what one uninterrupted run produces ---- #
        fresh = run_campaign(config(trials=24))
        assert resumed.render() == fresh.render(), "resume changed the results!"
        print(resumed.render())
        print("\nresumed summary == fresh summary: OK")


if __name__ == "__main__":
    main()

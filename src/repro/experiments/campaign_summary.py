"""Architectural fault-injection campaign vs the analytical reliability model.

The codec-level ablation (:mod:`repro.experiments.fault_campaign`)
shows what each code guarantees for one flipped word.  This experiment
flips bits in the DL1 of running kernels instead, so architectural
masking (dead data, overwritten lines) and the write policy decide
which flips matter, and sets each policy's observed rates next to the
code-level SDC bound and the reliability model's failure rate.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.reporting import Table
from repro.campaign.engine import CampaignConfig, CampaignResult, run_campaign
from repro.campaign.stats import wilson_interval
from repro.core.policies import make_policy
from repro.ecc.reliability import ReliabilityModel


def analytical_reference(
    policies: Sequence[str], *, bit_upset_rate_per_hour: float = 1e-9
) -> Dict[str, Dict[str, float]]:
    """Per-policy analytical prediction to print next to empirical rates.

    ``codec_sdc_bound`` is the code-level SDC probability of a single
    flip (1 for the unprotected array, 0 for detecting/correcting
    codes); architectural masking can only push the observed rate
    *below* it.  ``array_failures_per_1e9h`` is the
    :class:`~repro.ecc.reliability.ReliabilityModel` array-level unsafe
    failure rate for a 16 KiB DL1, which fixes the expected ordering
    between the policies.
    """
    reference: Dict[str, Dict[str, float]] = {}
    for value in policies:
        policy = make_policy(value)
        code = policy.dl1_code()
        model = ReliabilityModel(
            words=16 * 1024 // 4, bit_upset_rate_per_hour=bit_upset_rate_per_hour
        )
        if policy.corrects_errors:
            corrected, detected, sdc = 1.0, 0.0, 0.0
        elif policy.detects_errors:
            corrected, detected, sdc = 0.0, 1.0, 0.0
        else:
            corrected, detected, sdc = 0.0, 0.0, 1.0
        reference[value] = {
            "codec_corrected": corrected,
            "codec_detected": detected,
            "codec_sdc_bound": sdc,
            "array_failures_per_1e9h": model.failures_in_time(code, hours=1e9),
        }
    return reference


def run(
    *,
    kernels: Tuple[str, ...] = ("canrdr", "matrix"),
    scale: float = 0.1,
    trials: int = 24,
    batch: int = 8,
    seed: int = 2019,
    workers: Optional[int] = None,
    store=None,
    resume: bool = False,
) -> CampaignResult:
    """Run the campaign behind the ``campaign_summary`` artefact.

    The two default kernels have opposite DL1 behaviour (a streaming
    writer and a load-after-store reuser), which keeps the campaign fast
    while exercising both SDC paths.
    """
    config = CampaignConfig(
        kernels=kernels,
        scale=scale,
        trials=trials,
        batch=batch,
        seed=seed,
        workers=workers,
    )
    return run_campaign(config, store=store, resume=resume)


def render(result: CampaignResult) -> str:
    """The campaign summary plus per-policy rates vs the analytical model."""
    totals = result.policy_totals()
    reference = analytical_reference(result.config.policies)
    table = Table(
        title="Per-policy architectural rates vs analytical prediction",
        columns=[
            "policy",
            "trials",
            "corrected %",
            "SDC %",
            "SDC 95% CI",
            "codec SDC bound %",
            "model unsafe/1e9h",
        ],
    )
    for policy in result.config.policies:
        bucket = totals[policy]
        trials = bucket["trials"]
        low, high = wilson_interval(bucket["sdc"], trials)
        analytic = reference[policy]
        table.add_row(
            policy=policy,
            trials=trials,
            **{
                "corrected %": 100.0 * bucket["corrected"] / trials if trials else 0.0,
                "SDC %": 100.0 * bucket["sdc"] / trials if trials else 0.0,
                "SDC 95% CI": f"[{100.0 * low:.1f}, {100.0 * high:.1f}]",
                "codec SDC bound %": 100.0 * analytic["codec_sdc_bound"],
                "model unsafe/1e9h": f"{analytic['array_failures_per_1e9h']:.3g}",
            },
        )
    note = (
        "The codec bound is the code-level SDC probability of a single flip\n"
        "(architectural masking only lowers the observed rate); the model\n"
        "column is the ReliabilityModel's unsafe array failures per 1e9 h.\n"
        "SECDED policies must sit at 0% SDC with every sampled single flip\n"
        "corrected; the unprotected write-back DL1 must not."
    )
    return result.render() + "\n\n" + table.render(float_format="{:.1f}") + "\n" + note

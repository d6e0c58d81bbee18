"""The registered experiment catalogue.

One :class:`~repro.experiments.base.Experiment` per paper artefact,
wrapping the corresponding driver module with the parameters of the
committed artefact — so ``python -m repro --run <name>`` regenerates
``benchmarks/output/<artifact>.txt`` byte-identically.  These classes
are the only place those parameters live.
"""

from __future__ import annotations

from repro.experiments import (
    ablation_hazards,
    ablation_sensitivity,
    chronograms,
    energy_report,
    fault_campaign,
    figure8,
    sweep_summary,
    table1,
    table2,
    wt_vs_wb,
)
from repro.experiments.base import Experiment, ExperimentContext, register


@register
class Table1Experiment(Experiment):
    name = "table1"
    description = "Table I: commercial processors and their L1 protection"
    artifact = "table1"

    def build(self, context: ExperimentContext):
        return table1.run()

    def render(self, result) -> str:
        return table1.render(result)


@register
class Table2Experiment(Experiment):
    name = "table2"
    description = "Table II: per-benchmark load statistics (measured vs paper)"
    artifact = "table2"
    uses_run_set = True

    def build(self, context: ExperimentContext):
        return table2.run(run_set=context.run_set())

    def render(self, result) -> str:
        return table2.render(result)


@register
class Figure8Experiment(Experiment):
    name = "figure8"
    description = "Figure 8: execution-time increase of each ECC scheme"
    artifact = "figure8"
    uses_run_set = True

    def build(self, context: ExperimentContext):
        return figure8.run(run_set=context.run_set())

    def render(self, result) -> str:
        return figure8.render(result)


@register
class ChronogramsExperiment(Experiment):
    name = "chronograms"
    description = "Figures 2-5 and 7: pipeline chronograms of the micro-sequences"
    artifact = "figures_2_to_7_chronograms"

    def build(self, context: ExperimentContext):
        return chronograms.run()

    def render(self, result) -> str:
        return chronograms.render(result)


@register
class EnergyReportExperiment(Experiment):
    name = "energy_report"
    description = "§IV-A energy study: dynamic/leakage increase per policy"
    artifact = "energy_report"
    uses_run_set = True

    def build(self, context: ExperimentContext):
        return energy_report.run(run_set=context.run_set())

    def render(self, result) -> str:
        return energy_report.render(result)


@register
class WtVsWbExperiment(Experiment):
    name = "wt_vs_wb"
    description = "§I/§II-A: WT+parity vs WB WCET bounds under bus contention"
    artifact = "wt_vs_wb_wcet"

    #: Artefact parameters (store-intensive kernels, reduced scale).
    kernels = ("iirflt", "puwmod", "a2time")
    scale = 0.3

    def build(self, context: ExperimentContext):
        return wt_vs_wb.run(kernels=list(self.kernels), scale=self.scale)

    def render(self, result) -> str:
        return wt_vs_wb.render(result)


@register
class AblationHazardsExperiment(Experiment):
    name = "ablation_hazards"
    description = "Ablation A1: why LAEC anticipation is blocked, per benchmark"
    artifact = "ablation_hazards"
    uses_run_set = True

    def build(self, context: ExperimentContext):
        return ablation_hazards.run(run_set=context.run_set())

    def render(self, result) -> str:
        return ablation_hazards.render(result)


@register
class AblationSensitivityExperiment(Experiment):
    name = "ablation_sensitivity"
    description = "Ablation A2: sensitivity of Figure 8 to Table II statistics"
    artifact = "ablation_sensitivity"

    instructions = 8000

    def build(self, context: ExperimentContext):
        return ablation_sensitivity.run(instructions=self.instructions)

    def render(self, result) -> str:
        return ablation_sensitivity.render(result)


@register
class FaultCampaignExperiment(Experiment):
    name = "fault_campaign"
    description = "Ablation A3: fault-injection campaign on the ECC codecs"
    artifact = "fault_campaign"

    trials_per_point = 3000
    default_seed = 2019

    def build(self, context: ExperimentContext):
        seed = context.seed if context.seed is not None else self.default_seed
        return fault_campaign.run(trials_per_point=self.trials_per_point, seed=seed)

    def render(self, result) -> str:
        return fault_campaign.render(result)


@register
class CampaignSummaryExperiment(Experiment):
    name = "campaign_summary"
    description = (
        "Architectural fault-injection campaign vs the analytical "
        "reliability model"
    )
    artifact = "campaign_summary"

    #: Artefact parameters: two kernels with opposite DL1 behaviour (a
    #: streaming writer and a load-after-store reuser) keep the campaign
    #: fast while exercising both SDC paths.
    kernels = ("canrdr", "matrix")
    scale = 0.1
    trials = 24
    batch = 8
    default_seed = 2019

    def build(self, context: ExperimentContext):
        from repro.campaign import CampaignConfig, run_campaign

        seed = context.seed if context.seed is not None else self.default_seed
        config = CampaignConfig(
            kernels=self.kernels,
            scale=self.scale,
            trials=self.trials,
            batch=self.batch,
            seed=seed,
            workers=context.workers,
        )
        resume = context.store is not None and not context.force
        return run_campaign(config, store=context.store, resume=resume)

    def render(self, result) -> str:
        from repro.analysis.reporting import Table
        from repro.campaign import analytical_reference
        from repro.campaign.stats import wilson_interval

        text = result.render()
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
        return text + "\n\n" + table.render(float_format="{:.1f}") + "\n" + note


@register
class SweepSummaryExperiment(Experiment):
    name = "sweep_summary"
    description = (
        "Multi-dimensional fault sweep: DL1 vs L2 targets x isolation vs "
        "bus contention, per Figure-8 policy"
    )
    artifact = "sweep_summary"

    #: Artefact parameters: the campaign_summary kernel pair swept over
    #: both fault targets and both interference extremes.  Small per-
    #: stratum budgets keep the 2x4x2x2 grid fast while leaving every
    #: marginal well-populated.
    kernels = ("canrdr", "matrix")
    targets = ("dl1", "l2")
    scenarios = ("isolation", "laec-worst")
    scale = 0.1
    trials = 12
    batch = 6
    default_seed = 2019

    def build(self, context: ExperimentContext):
        seed = context.seed if context.seed is not None else self.default_seed
        resume = context.store is not None and not context.force
        return sweep_summary.run(
            kernels=self.kernels,
            targets=self.targets,
            scenarios=self.scenarios,
            scale=self.scale,
            trials=self.trials,
            batch=self.batch,
            seed=seed,
            workers=context.workers,
            store=context.store,
            resume=resume,
        )

    def render(self, result) -> str:
        return sweep_summary.render(result)

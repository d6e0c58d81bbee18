"""The experiment catalogue: one row per paper artefact.

Each row names a driver module's ``run``/``render`` pair.  The artefact
parameters are the drivers' defaults, so a row passes only what comes
from the shared :class:`~repro.experiments.base.ExperimentContext` (the
kernel × policy run set, a seed override, workers and the result
store), and ``python -m repro --run <name>`` regenerates
``benchmarks/output/<artifact>.txt`` byte-identically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments import (
    ablation_hazards,
    ablation_sensitivity,
    campaign_summary,
    chronograms,
    energy_report,
    fault_campaign,
    figure8,
    sweep_summary,
    table1,
    table2,
    wt_vs_wb,
)
from repro.experiments.base import Experiment, ExperimentContext


def _seeded(context: ExperimentContext) -> Dict[str, object]:
    """The context's seed override; without one the driver keeps its default."""
    return {} if context.seed is None else {"seed": context.seed}


def _campaign(context: ExperimentContext) -> Dict[str, object]:
    """What a campaign driver takes from the context."""
    return dict(
        _seeded(context),
        workers=context.workers,
        store=context.store,
        resume=context.store is not None and not context.force,
    )


EXPERIMENTS = (
    Experiment(
        "table1",
        "Table I: commercial processors and their L1 protection",
        "table1",
        lambda context: table1.run(),
        table1.render,
    ),
    Experiment(
        "table2",
        "Table II: per-benchmark load statistics (measured vs paper)",
        "table2",
        lambda context: table2.run(run_set=context.run_set()),
        table2.render,
    ),
    Experiment(
        "figure8",
        "Figure 8: execution-time increase of each ECC scheme",
        "figure8",
        lambda context: figure8.run(run_set=context.run_set()),
        figure8.render,
    ),
    Experiment(
        "chronograms",
        "Figures 2-5 and 7: pipeline chronograms of the micro-sequences",
        "figures_2_to_7_chronograms",
        lambda context: chronograms.run(),
        chronograms.render,
    ),
    Experiment(
        "energy_report",
        "§IV-A energy study: dynamic/leakage increase per policy",
        "energy_report",
        lambda context: energy_report.run(run_set=context.run_set()),
        energy_report.render,
    ),
    Experiment(
        "wt_vs_wb",
        "§I/§II-A: WT+parity vs WB WCET bounds under bus contention",
        "wt_vs_wb_wcet",
        lambda context: wt_vs_wb.run(),
        wt_vs_wb.render,
    ),
    Experiment(
        "ablation_hazards",
        "Ablation A1: why LAEC anticipation is blocked, per benchmark",
        "ablation_hazards",
        lambda context: ablation_hazards.run(run_set=context.run_set()),
        ablation_hazards.render,
    ),
    Experiment(
        "ablation_sensitivity",
        "Ablation A2: sensitivity of Figure 8 to Table II statistics",
        "ablation_sensitivity",
        lambda context: ablation_sensitivity.run(),
        ablation_sensitivity.render,
    ),
    Experiment(
        "fault_campaign",
        "Ablation A3: fault-injection campaign on the ECC codecs",
        "fault_campaign",
        lambda context: fault_campaign.run(**_seeded(context)),
        fault_campaign.render,
    ),
    Experiment(
        "campaign_summary",
        "Architectural fault-injection campaign vs the analytical "
        "reliability model",
        "campaign_summary",
        lambda context: campaign_summary.run(**_campaign(context)),
        campaign_summary.render,
    ),
    Experiment(
        "sweep_summary",
        "Multi-dimensional fault sweep: DL1 vs L2 targets x isolation vs "
        "bus contention, per Figure-8 policy",
        "sweep_summary",
        lambda context: sweep_summary.run(**_campaign(context)),
        sweep_summary.render,
    ),
)

_BY_NAME: Dict[str, Experiment] = {
    experiment.name: experiment for experiment in EXPERIMENTS
}


def experiment_names() -> List[str]:
    return sorted(_BY_NAME)


def get_experiment(name: str) -> Experiment:
    key = name.strip().lower()
    if key not in _BY_NAME:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        )
    return _BY_NAME[key]


def all_experiments() -> List[Experiment]:
    return [_BY_NAME[name] for name in experiment_names()]

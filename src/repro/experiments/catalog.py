"""The experiment catalogue: one row per paper artefact.

Each row names a driver module's ``run``/``render`` pair.  The artefact
parameters are the drivers' defaults, so a row passes only what comes
from the shared :class:`~repro.experiments.base.ExperimentContext` (the
kernel × policy run set, a seed override, workers and the result
store), and ``python -m repro --run <name>`` regenerates
``benchmarks/output/<artifact>.txt`` byte-identically.  A driver module
is imported when its row first runs, so ``--run table1`` loads no
campaign engine and a ``--run all`` process imports each driver's
dependencies only when it reaches that driver.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Dict, List

from repro.experiments.base import Experiment, ExperimentContext


def _driver(name: str) -> ModuleType:
    """The driver module ``repro.experiments.<name>``."""
    return importlib.import_module(f"repro.experiments.{name}")


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
        lambda context: _driver("table1").run(),
        lambda result: _driver("table1").render(result),
    ),
    Experiment(
        "table2",
        "Table II: per-benchmark load statistics (measured vs paper)",
        "table2",
        lambda context: _driver("table2").run(run_set=context.run_set()),
        lambda result: _driver("table2").render(result),
    ),
    Experiment(
        "figure8",
        "Figure 8: execution-time increase of each ECC scheme",
        "figure8",
        lambda context: _driver("figure8").run(run_set=context.run_set()),
        lambda result: _driver("figure8").render(result),
    ),
    Experiment(
        "chronograms",
        "Figures 2-5 and 7: pipeline chronograms of the micro-sequences",
        "figures_2_to_7_chronograms",
        lambda context: _driver("chronograms").run(),
        lambda result: _driver("chronograms").render(result),
    ),
    Experiment(
        "energy_report",
        "§IV-A energy study: dynamic/leakage increase per policy",
        "energy_report",
        lambda context: _driver("energy_report").run(run_set=context.run_set()),
        lambda result: _driver("energy_report").render(result),
    ),
    Experiment(
        "wt_vs_wb",
        "§I/§II-A: WT+parity vs WB WCET bounds under bus contention",
        "wt_vs_wb_wcet",
        lambda context: _driver("wt_vs_wb").run(),
        lambda result: _driver("wt_vs_wb").render(result),
    ),
    Experiment(
        "ablation_hazards",
        "Ablation A1: why LAEC anticipation is blocked, per benchmark",
        "ablation_hazards",
        lambda context: _driver("ablation_hazards").run(run_set=context.run_set()),
        lambda result: _driver("ablation_hazards").render(result),
    ),
    Experiment(
        "ablation_sensitivity",
        "Ablation A2: sensitivity of Figure 8 to Table II statistics",
        "ablation_sensitivity",
        lambda context: _driver("ablation_sensitivity").run(),
        lambda result: _driver("ablation_sensitivity").render(result),
    ),
    Experiment(
        "fault_campaign",
        "Ablation A3: fault-injection campaign on the ECC codecs",
        "fault_campaign",
        lambda context: _driver("fault_campaign").run(**_seeded(context)),
        lambda result: _driver("fault_campaign").render(result),
    ),
    Experiment(
        "campaign_summary",
        "Architectural fault-injection campaign vs the analytical "
        "reliability model",
        "campaign_summary",
        lambda context: _driver("campaign_summary").run(**_campaign(context)),
        lambda result: _driver("campaign_summary").render(result),
    ),
    Experiment(
        "sweep_summary",
        "Multi-dimensional fault sweep: DL1 vs L2 targets x isolation vs "
        "bus contention, per Figure-8 policy",
        "sweep_summary",
        lambda context: _driver("sweep_summary").run(**_campaign(context)),
        lambda result: _driver("sweep_summary").render(result),
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

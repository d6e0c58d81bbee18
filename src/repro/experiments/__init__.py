"""Experiment drivers: one module per paper table/figure plus ablations.

Every experiment exposes a ``run(...)`` function returning structured
data plus a ``render(...)`` helper that turns it into the table/figure
text of the committed artefact.  The mapping to the paper is:

==============================  =======================================
module                          paper artefact
==============================  =======================================
``table1``                      Table I (commercial processors survey)
``table2``                      Table II (per-benchmark load statistics)
``figure8``                     Figure 8 (execution-time increase)
``chronograms``                 Figures 2-5 and 7 (pipeline diagrams)
``energy_report``               §IV-A power/leakage discussion
``wt_vs_wb``                    §I/§II-A write-through WCET motivation
``ablation_hazards``            LAEC hazard breakdown (§IV-A discussion)
``ablation_sensitivity``        sensitivity of Figure 8 to Table II stats
``fault_campaign``              SECDED correction/detection guarantees
``campaign_summary``            architectural injection campaign vs the
                                analytical reliability model
``sweep_summary``               multi-dimensional fault sweep (DL1 vs L2
                                targets × isolation vs bus contention)
                                with per-dimension marginals
==============================  =======================================

Each driver's ``run()`` defaults are the committed artefact's
parameters.  :mod:`repro.experiments.catalog` lists every driver as one
:class:`~repro.experiments.base.Experiment` row, and that table is what
``python -m repro`` serves.
"""

from repro.experiments.base import ExperimentContext
from repro.experiments.catalog import all_experiments

__all__ = ["ExperimentContext", "all_experiments"]

"""Regenerate every table and figure of the paper in one run.

Run with::

    python examples/paper_reproduction.py [scale]

``scale`` (default 0.4) multiplies the iteration counts of the 16
EEMBC-Automotive-like kernels shared by Table II, Figure 8, the energy
report and the hazard ablation; 1.0 matches the sizes used for the
numbers recorded in EXPERIMENTS.md and takes a few minutes in pure
Python.  Every section is one catalogue row built on one shared
context, exactly as ``python -m repro --run all`` builds them, so at the
default scale the printed sections equal the committed artefacts under
``benchmarks/output/``.
"""

from __future__ import annotations

import sys

from repro.experiments import ExperimentContext, all_experiments


def main(scale: float = 0.4) -> None:
    separator = "\n" + "=" * 78 + "\n"
    context = ExperimentContext(scale=scale)
    for experiment in all_experiments():
        print(separator)
        print(experiment.execute(context).text)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.4)

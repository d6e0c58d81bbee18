"""Uniform experiment framework.

Every paper artefact (table, figure, ablation) is exposed as an
:class:`Experiment`: a named, self-describing unit that knows how to
compute its result, render it to text, and — when it regenerates one of
the artefacts under ``benchmarks/output/`` — which file it owns.  The
catalogue (:mod:`repro.experiments.catalog`, one row per experiment)
makes the set discoverable (``python -m repro --list``) and the shared
:class:`ExperimentContext` makes the expensive ingredient — the kernel ×
policy simulation matrix — computed once per campaign no matter how many
experiments consume it.

The default campaign scale (:data:`DEFAULT_CAMPAIGN_SCALE`, defined in
:mod:`repro.scenarios.spec` so the CLI reads it without loading this
package) is the scale of the committed artefacts.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.experiments.runner import ExperimentRunner, KernelRunSet
from repro.scenarios.spec import DEFAULT_CAMPAIGN_SCALE


@dataclass
class ExperimentContext:
    """Shared campaign state: one lazily-built kernel × policy matrix.

    ``workers`` opts the runner into its process-pool fan-out
    (``None`` = serial, ``0`` = one worker per CPU).  Results are
    deterministic either way, so artefacts are byte-identical regardless
    of parallelism.

    ``seed`` overrides the RNG seed of the experiments that draw random
    trials (``fault_campaign``, ``campaign_summary``, ``sweep_summary``);
    ``None`` keeps each driver's default, so artefacts stay
    byte-identical.  ``store`` attaches a
    :class:`~repro.store.ResultStore` as a cross-process result cache,
    and ``force`` bypasses every cache layer (in-memory run set *and*
    store reads) so stored results can be validated against fresh
    simulations.
    """

    scale: float = DEFAULT_CAMPAIGN_SCALE
    workers: Optional[int] = None
    seed: Optional[int] = None
    force: bool = False
    store: Optional[object] = None
    _runner: Optional[ExperimentRunner] = field(default=None, repr=False)
    _force_pending: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        self._force_pending = self.force

    def runner(self) -> ExperimentRunner:
        if self._runner is None:
            self._runner = ExperimentRunner(
                scale=self.scale, max_workers=self.workers, store=self.store
            )
        return self._runner

    def run_set(self) -> KernelRunSet:
        # ``force`` applies to the first build only: later consumers of
        # the same context share the freshly recomputed matrix.
        run_set = self.runner().run_all(force=self._force_pending)
        self._force_pending = False
        return run_set


@dataclass
class ExperimentOutput:
    """What one experiment produced."""

    name: str
    artifact: Optional[str]
    text: str
    data: object

    def write(self, directory: pathlib.Path) -> Optional[pathlib.Path]:
        """Write the rendered text to ``<directory>/<artifact>.txt``.

        The file holds :attr:`text` plus a trailing newline, the exact
        bytes of the committed artefact.  Returns the written path, or
        ``None`` for experiments that own no artefact.
        """
        if self.artifact is None:
            return None
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.artifact}.txt"
        path.write_text(self.text + "\n", encoding="utf-8")
        return path


@dataclass(frozen=True)
class Experiment:
    """One named, reproducible experiment: a row of the catalogue.

    ``artifact`` is the ``benchmarks/output/<artifact>.txt`` stem the
    experiment regenerates (``None`` for one that owns no artefact).
    ``build(context)`` computes the structured result, passing the
    driver only what comes from the context (run set, seed, workers,
    store); ``render(result)`` turns it into the artefact text.
    """

    name: str
    description: str
    artifact: Optional[str]
    build: Callable[[ExperimentContext], object]
    render: Callable[[object], str]

    def execute(self, context: Optional[ExperimentContext] = None) -> ExperimentOutput:
        """Build and render in one step."""
        context = context or ExperimentContext()
        result = self.build(context)
        return ExperimentOutput(
            name=self.name,
            artifact=self.artifact,
            text=self.render(result),
            data=result,
        )

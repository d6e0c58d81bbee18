"""Uniform experiment framework.

Every paper artefact (table, figure, ablation) is exposed as an
:class:`Experiment`: a named, self-describing unit that knows how to
compute its result, render it to text, and — when it regenerates one of
the artefacts under ``benchmarks/output/`` — which file it owns.  The
registry makes the set discoverable (``python -m repro --list``) and the
shared :class:`ExperimentContext` makes the expensive ingredient — the
kernel × policy simulation matrix — computed once per campaign no matter
how many experiments consume it.

The default campaign scale (:data:`DEFAULT_CAMPAIGN_SCALE`) is the
scale of the committed artefacts: 0.4 keeps the full 16-kernel ×
4-policy matrix fast while preserving the loop-dominated steady-state
behaviour, so overhead percentages match the full-scale runs.
"""

from __future__ import annotations

import abc
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.runner import ExperimentRunner, KernelRunSet

#: Scale applied to every kernel's iteration counts in a default
#: campaign; the committed artefacts under ``benchmarks/output/`` use it.
DEFAULT_CAMPAIGN_SCALE = 0.4


@dataclass
class ExperimentContext:
    """Shared campaign state: one lazily-built kernel × policy matrix.

    ``workers`` opts the runner into its process-pool fan-out
    (``None`` = serial, ``0`` = one worker per CPU).  Results are
    deterministic either way, so artefacts are byte-identical regardless
    of parallelism.

    ``seed`` overrides the RNG seed of the experiments that draw random
    trials (``fault_campaign``, ``campaign_summary``); ``None`` keeps
    each experiment's committed default, so artefacts stay
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


class Experiment(abc.ABC):
    """One named, reproducible experiment.

    Subclasses set ``name``/``description``, optionally ``artifact``
    (the ``benchmarks/output/<artifact>.txt`` stem they regenerate) and
    ``uses_run_set`` (whether they consume the shared kernel × policy
    matrix), and implement :meth:`build` and :meth:`render`.
    """

    name: str = ""
    description: str = ""
    artifact: Optional[str] = None
    #: Whether this experiment consumes the shared kernel × policy matrix
    #: (used by the CLI to decide when the campaign context must be built).
    uses_run_set: bool = False

    @abc.abstractmethod
    def build(self, context: ExperimentContext):
        """Compute and return the experiment's structured result."""

    @abc.abstractmethod
    def render(self, result) -> str:
        """Turn :meth:`build`'s result into the artefact text."""

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


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment_class):
    """Class decorator: instantiate and register an :class:`Experiment`."""
    experiment = experiment_class()
    if not experiment.name:
        raise ValueError(f"{experiment_class.__name__} declares no name")
    if experiment.name in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} is already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment_class


def experiment_names() -> List[str]:
    return sorted(_REGISTRY)


def get_experiment(name: str) -> Experiment:
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(experiment_names())}"
        )
    return _REGISTRY[key]


def all_experiments() -> List[Experiment]:
    return [_REGISTRY[name] for name in experiment_names()]

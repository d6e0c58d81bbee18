"""The statistical architectural fault-injection campaign engine.

A campaign is a stratified sample over a declarative **sweep grid**:
kernel × policy × fault target (``dl1``/``l2``) × interference scenario
× scale.  Each stratum draws deterministic fault points
(:mod:`repro.campaign.sampling`), replays them architecturally
(:mod:`repro.campaign.replay`), aggregates outcome counts with Wilson
confidence intervals (:mod:`repro.campaign.stats`), and optionally stops
a stratum early once its intervals are tight enough.  The default grid
(one ``dl1`` target, the ``isolation`` scenario, one scale) reproduces
historical single-dimension campaigns byte-identically — same seed, same
points, same rendered table.

Execution is batched and shardable: points run as **group jobs**
through :func:`repro.campaign.replay.run_injection_batch` (golden state
derived once per group, analytical triage, suffix-resume for the
residue), and ``workers=`` fans the groups out over a
``ProcessPoolExecutor`` of warm workers.  It is also resumable: with a
:class:`~repro.store.ResultStore`
attached, each point is keyed by the content hash of its full
:class:`~repro.scenarios.spec.SimulationSpec` — which carries the
target, the scenario's interference and the scale — so resume works
across every dimension of the grid.  Because the sample sequence is
prefix-deterministic and each point's outcome is deterministic, a
resumed campaign renders byte-identical summaries.

Execution is also **supervised**, with the group job as its only unit
of work: a watchdog (``point_timeout`` per point of a group) bounds hung
replays, dead pool workers (``BrokenProcessPool``) respawn the pool, a
failed group is split into singleton groups so the failure lands on the
point that caused it, failed singletons are retried with exponential
backoff, and points that keep failing past
``max_retries`` are **quarantined** — recorded with a structured error
from the taxonomy in :mod:`repro.campaign.errors` (and in the store's
quarantine table) so the campaign completes and reports them instead of
dying.  SIGINT/SIGTERM flush the in-flight batch and checkpoint before
raising :class:`~repro.campaign.errors.CampaignInterrupted`, so an
interrupted campaign resumes byte-identically.  The whole layer is
testable through the deterministic harness-fault injector in
:mod:`repro.campaign.chaos`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import Table
from repro.campaign.errors import (
    CampaignError,
    CampaignInterrupted,
    PointTimeout,
    QuarantinedPoint,
    SupervisorStats,
    WorkerCrash,
    wrap_point_error,
)
from repro.campaign.outcome import OUTCOME_KEYS
from repro.campaign.sampling import (
    DEFAULT_TARGET,
    ISOLATION_SCENARIO,
    kernel_fault_space,
    sample_faults,
)
from repro.campaign.stats import DEFAULT_Z, wilson_half_width, wilson_interval
from repro.core.policies import make_policy
from repro.scenarios.spec import FAULT_TARGETS, SimulationSpec
from repro.telemetry import flight as _flight
from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace
from repro.telemetry.console import format_heartbeat, format_quarantine_footer, get_console

if TYPE_CHECKING:
    # A serial campaign never starts a pool: the process-pool machinery
    # (and multiprocessing behind it) is imported where a pool starts,
    # and the replay stack where a point first runs.
    from concurrent.futures import ProcessPoolExecutor

#: The four DL1 deployments compared in Figure 8, in paper order.
FIGURE8_POLICY_VALUES = ("no-ecc", "extra-cycle", "extra-stage", "laec")

#: One point as the supervisor runs it: ``(global index, spec, (store
#: key, canonical JSON))``.
_Job = Tuple[int, SimulationSpec, Tuple[str, str]]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign needs (a plain, picklable value).

    ``targets``, ``scenarios`` and ``scales`` span the sweep grid; their
    defaults describe the historical single-dimension campaign (DL1
    faults during isolation runs at ``scale``), so existing configs keep
    meaning — and reproducing — exactly what they always did.
    ``scales`` empty means "just ``scale``".

    Every stratum batch is replayed as group jobs of up to ``batch``
    points through :func:`repro.campaign.replay.run_injection_batch`.
    ``point_timeout``/``max_retries``/``quarantine`` configure the
    execution supervisor: a point that times out, crashes its worker or
    raises is retried up to ``max_retries`` times (exponential backoff
    from ``retry_backoff``); a point failing every attempt is quarantined
    (``quarantine=True``, the default — the campaign completes and
    reports it) or re-raised (``quarantine=False``, fail fast).
    """

    kernels: Tuple[str, ...]
    policies: Tuple[str, ...] = FIGURE8_POLICY_VALUES
    scale: float = 0.2
    #: Maximum trials per stratum.
    trials: int = 80
    #: Points simulated between early-stopping checks.
    batch: int = 20
    #: Stop a stratum early once the Wilson half-width of both its SDC
    #: and corrected rates drops to this value (None = never stop early).
    ci_target: Optional[float] = None
    ci_z: float = DEFAULT_Z
    seed: int = 2019
    #: Process-pool width (None = serial, 0 = one per CPU).
    workers: Optional[int] = None
    #: Fault targets swept (subset of FAULT_TARGETS).
    targets: Tuple[str, ...] = (DEFAULT_TARGET,)
    #: Named interference scenarios the faulty runs execute under (names
    #: from :mod:`repro.scenarios.registry`; only their interference
    #: component is used — the policy axis is this config's own).
    scenarios: Tuple[str, ...] = (ISOLATION_SCENARIO,)
    #: Kernel scales swept; empty = (scale,).
    scales: Tuple[float, ...] = ()
    #: Per-point wall-clock watchdog in seconds (None = no watchdog).
    #: Enforcing a timeout needs a process boundary, so a serial
    #: campaign with a timeout runs its points through a one-worker pool.
    point_timeout: Optional[float] = None
    #: Failed-point retries before quarantine (0 = no retries).
    max_retries: int = 2
    #: Base of the exponential retry backoff, in seconds.
    retry_backoff: float = 0.1
    #: Quarantine poison points (True) or fail fast (False).
    quarantine: bool = True

    def __post_init__(self) -> None:
        from repro.workloads.registry import KERNEL_NAMES

        if not self.kernels:
            raise ValueError("a campaign needs at least one kernel")
        # Kernel names key the store and seed each stratum's RNG, so
        # "RSPEED" must be "rspeed" (frozen: set through object).
        kernels = tuple(name.strip().lower() for name in self.kernels)
        for name in kernels:
            if name not in KERNEL_NAMES:
                raise ValueError(
                    f"unknown kernel {name!r}; available kernels: "
                    f"{', '.join(KERNEL_NAMES)}"
                )
        object.__setattr__(self, "kernels", kernels)
        if self.trials < 1 or self.batch < 1:
            raise ValueError("trials and batch must be positive")
        for value in self.policies:
            make_policy(value)  # validates early, with a helpful error
        if not self.targets:
            raise ValueError("a campaign needs at least one fault target")
        for target in self.targets:
            if target not in FAULT_TARGETS:
                raise ValueError(
                    f"unknown fault target {target!r}; "
                    f"expected one of {FAULT_TARGETS}"
                )
        if not self.scenarios:
            raise ValueError("a campaign needs at least one scenario")
        for name in self.scenarios:
            try:
                self.scenario_interference(name)
            except KeyError as error:
                raise ValueError(str(error.args[0])) from error
        for scale in self.sweep_scales:
            if scale <= 0:
                raise ValueError("campaign scales must be positive")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")

    # -- the sweep grid -------------------------------------------------- #
    @property
    def sweep_scales(self) -> Tuple[float, ...]:
        """The scale axis of the grid (``scales`` or the single ``scale``)."""
        return self.scales if self.scales else (self.scale,)

    @staticmethod
    def scenario_interference(name: str):
        """Resolve a scenario name to its interference component."""
        if name == ISOLATION_SCENARIO:
            # The campaign default never touches the registry (and keeps
            # interference=None, the historical spec shape).
            return None
        from repro.scenarios.registry import scenario_interference

        return scenario_interference(name)

    def strata(self):
        """The grid in deterministic order (kernel-major, scale-minor)."""
        for kernel in self.kernels:
            for policy_value in self.policies:
                for target in self.targets:
                    for scenario in self.scenarios:
                        for scale in self.sweep_scales:
                            yield kernel, policy_value, target, scenario, scale


@dataclass
class StratumSummary:
    """Aggregated outcome counts of one stratum of the sweep grid."""

    kernel: str
    policy: str
    trials: int
    counts: Dict[str, int]
    early_stopped: bool = False
    target: str = DEFAULT_TARGET
    scenario: str = ISOLATION_SCENARIO
    scale: Optional[float] = None
    #: Sampled points of this stratum that failed permanently (they are
    #: excluded from ``trials`` and every rate).
    quarantined: int = 0

    def rate(self, key: str) -> float:
        return self.counts.get(key, 0) / self.trials if self.trials else 0.0

    def interval(self, key: str, *, z: float = DEFAULT_Z) -> Tuple[float, float]:
        return wilson_interval(self.counts.get(key, 0), self.trials, z=z)


@dataclass
class CampaignResult:
    """The full outcome of one campaign run."""

    config: CampaignConfig
    strata: List[StratumSummary] = field(default_factory=list)
    #: Store bookkeeping (not part of the rendered summary, which must
    #: be byte-identical between fresh and resumed runs).  The counters
    #: mirror the attached store's own hit/miss accounting for exactly
    #: the lookups this campaign performed: resume lookups that found a
    #: payload are hits, resume lookups that did not are misses (every
    #: miss is then simulated), and non-resume runs perform no lookups
    #: at all — so ``store_misses == simulated`` whenever resuming and
    #: both are zero-lookup-consistent otherwise.
    store_hits: int = 0
    store_misses: int = 0
    simulated: int = 0
    #: Points that failed every attempt, with their structured errors.
    quarantined: List[QuarantinedPoint] = field(default_factory=list)
    #: Harness-level health counters (retries, pool restarts, ...).
    stats: SupervisorStats = field(default_factory=SupervisorStats)

    @property
    def points(self) -> int:
        return sum(stratum.trials for stratum in self.strata)

    @property
    def quarantined_points(self) -> int:
        return len(self.quarantined)

    def stratum(
        self,
        kernel: str,
        policy: str,
        *,
        target: Optional[str] = None,
        scenario: Optional[str] = None,
        scale: Optional[float] = None,
    ) -> StratumSummary:
        """The first stratum matching the given coordinates."""
        for candidate in self.strata:
            if candidate.kernel != kernel or candidate.policy != policy:
                continue
            if target is not None and candidate.target != target:
                continue
            if scenario is not None and candidate.scenario != scenario:
                continue
            if scale is not None and candidate.scale != scale:
                continue
            return candidate
        raise KeyError(f"no stratum {kernel} x {policy}")

    # -- marginals ------------------------------------------------------- #
    def _totals_by(self, group) -> Dict:
        totals: Dict = {}
        for stratum in self.strata:
            bucket = totals.setdefault(
                group(stratum), {key: 0 for key in OUTCOME_KEYS}
            )
            bucket["trials"] = bucket.get("trials", 0) + stratum.trials
            for key in OUTCOME_KEYS:
                bucket[key] += stratum.counts.get(key, 0)
        return totals

    def policy_totals(self) -> Dict[str, Dict[str, int]]:
        """Outcome counts summed over all other dimensions, per policy."""
        return self._totals_by(lambda stratum: stratum.policy)

    def target_totals(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Per-(target, policy) marginal outcome counts."""
        return self._totals_by(lambda stratum: (stratum.target, stratum.policy))

    def scenario_totals(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Per-(scenario, policy) marginal outcome counts."""
        return self._totals_by(lambda stratum: (stratum.scenario, stratum.policy))

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Deterministic campaign summary (identical for resumed runs).

        Sweep dimensions appear as columns only when the config actually
        sweeps them, so single-dimension campaigns keep their historical
        byte-exact rendering.  Quarantined points append a report after
        the table — a campaign with none renders exactly as before.
        """
        config = self.config
        show_target = config.targets != (DEFAULT_TARGET,)
        show_scenario = config.scenarios != (ISOLATION_SCENARIO,)
        show_scale = len(config.sweep_scales) > 1
        scale_text = ",".join(f"{scale:g}" for scale in config.sweep_scales)
        columns = ["kernel", "policy"]
        if show_target:
            columns.append("target")
        if show_scenario:
            columns.append("scenario")
        if show_scale:
            columns.append("scale")
        columns += [
            "trials",
            "masked %",
            "corrected %",
            "detected %",
            "SDC %",
            "timing %",
            "SDC 95% CI",
        ]
        table = Table(
            title=(
                "Architectural fault-injection campaign "
                f"(scale {scale_text}, seed {config.seed}, "
                f"<= {config.trials} trials/stratum)"
            ),
            columns=columns,
        )
        for stratum in self.strata:
            low, high = stratum.interval("sdc", z=config.ci_z)
            row = {
                "kernel": stratum.kernel,
                "policy": stratum.policy + ("*" if stratum.early_stopped else ""),
            }
            if show_target:
                row["target"] = stratum.target
            if show_scenario:
                row["scenario"] = stratum.scenario
            if show_scale:
                row["scale"] = f"{stratum.scale:g}"
            row.update(
                {
                    "trials": stratum.trials,
                    "masked %": 100.0 * stratum.rate("masked"),
                    "corrected %": 100.0 * stratum.rate("corrected"),
                    "detected %": 100.0 * stratum.rate("detected"),
                    "SDC %": 100.0 * stratum.rate("sdc"),
                    "timing %": 100.0 * stratum.rate("timing"),
                    "SDC 95% CI": f"[{100.0 * low:.1f}, {100.0 * high:.1f}]",
                }
            )
            table.add_row(**row)
        if show_target:
            where = "live DL1/L2 lines"
        else:
            where = "live DL1 lines"
        note = (
            "* = stratum stopped early at the requested CI half-width.\n"
            f"Faults are single bit flips landing in {where} during the\n"
            "run; outcomes are classified architecturally against the golden\n"
            "functional trace (masked / corrected / detected / SDC / timing)."
        )
        if show_scenario:
            note += (
                "\nScenario names set the interference the faulty run executes\n"
                "under (isolation = single core; others load the shared bus)."
            )
        text = table.render(float_format="{:.1f}") + "\n" + note
        if self.quarantined:
            text += format_quarantine_footer(self.quarantined)
        return text


def _simulate_batch(
    specs: Sequence[SimulationSpec],
    shard_store: Optional[str] = None,
    directive=None,
    hang_seconds: float = 0.0,
    keyed: Sequence[Tuple[str, str]] = (),
) -> Dict[str, object]:
    """Worker-side job: one group of points through the shared-golden path.

    Returns an envelope ``{"results", "pid", "phases", "persisted"}``;
    ``results`` is ``(payload, replay_mode)`` per spec, in input order —
    the mode string feeds the ``analytical=/streamed=`` counters —
    and the drained metrics snapshot carries this job's phase timings
    and counters back to the campaign process (none if it raises).

    A chaos ``directive`` (only ever attached to a singleton group)
    travels pickled with the job — no shared state in the pool workers —
    and runs *before* the replay, so a chaos-killed worker dies exactly
    where a segfault would.  A failing group leaves with this process's
    flight-recorder tail attached to the taxonomy error, so a quarantine
    records the last things the worker actually did.

    With ``shard_store`` set (the canonical store's path), the worker
    also persists its finished rows to its **own** shard file
    (:mod:`repro.store.sharding`) before returning — the campaign
    process then merges shards instead of re-writing every payload
    through one connection, and ``persisted=True`` tells it to skip its
    own ``put_many`` for this group.  ``keyed`` holds each spec's
    ``(store key, canonical JSON)``, derived once by the campaign
    process.
    """
    from repro.campaign.replay import run_injection_batch

    _flight.record("batch-start", points=len(specs))
    with _metrics.job_metrics():
        try:
            if directive is not None:
                from repro.campaign.chaos import apply_worker_directive

                apply_worker_directive(directive, hang_seconds)
            results = [
                (result.payload(), result.replay_mode)
                for result in run_injection_batch(list(specs))
            ]
        except Exception as error:  # noqa: BLE001 - taxonomy boundary
            wrapped = wrap_point_error(error)
            wrapped.details.setdefault("flight_recorder", _flight.tail_payload())
            raise wrapped from error
        persisted = False
        if shard_store is not None:
            from repro.store.sharding import shard_writer

            with _metrics.phase_timer("store_write"):
                shard_writer(shard_store).put_many(
                    [
                        (key, payload, text)
                        for (key, text), (payload, _mode) in zip(keyed, results)
                    ],
                    kind="injection",
                )
            persisted = True
    return {
        "results": results,
        # repro: allow[D104] reason=telemetry envelope field; stripped before payloads persist (differential-tested)
        "pid": os.getpid(),
        "phases": _metrics.drain_phase_payload(),
        "persisted": persisted,
    }


class _SignalGuard:
    """Graceful SIGINT/SIGTERM: note the signal, let the batch finish.

    The engine checks :attr:`triggered` after every batch flush and
    raises :class:`CampaignInterrupted` — so the store is checkpointed
    at a batch boundary and resume is byte-exact.  The previous handlers
    are restored on the *first* signal, so a second Ctrl-C behaves
    normally (kills the process).  Outside the main thread this is a
    no-op (signal handlers can only be installed there).
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self.triggered: Optional[str] = None
        self._previous: Dict[int, object] = {}

    def __enter__(self) -> "_SignalGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in self.SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def _handle(self, signum, _frame) -> None:
        self.triggered = signal.Signals(signum).name
        self._restore()

    def _restore(self) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous = {}

    def __exit__(self, *_exc) -> None:
        self._restore()

    def check(self, result: "CampaignResult") -> None:
        if self.triggered is None:
            return
        processed = result.simulated + result.store_hits
        raise CampaignInterrupted(
            f"campaign interrupted by {self.triggered}; "
            f"{processed} point(s) checkpointed",
            signal=self.triggered,
            points_completed=processed,
            simulated=result.simulated,
        )


def _init_worker(warm, kernels, scales) -> None:
    """Pool initializer: a worker leaves signals and its lifetime to the
    campaign process.

    The pool forks inside :class:`_SignalGuard`, whose inherited handler
    would only note a SIGTERM — so ``_kill_pool``'s ``terminate()``
    could not end a hung worker.  Ctrl-C reaches the whole process
    group, and stopping is the campaign process's decision (it finishes
    the batch and checkpoints).  A campaign process killed outright
    never shuts its pool down, so each worker also exits on its own once
    it is reparented.  ``warm(kernels, scales)`` then preloads the
    sweep's golden runs.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    warm(kernels, scales)


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


class _PointSupervisor:
    """Runs stratum windows as group jobs, surviving harness faults.

    One supervisor per campaign.  It owns the (optional) process pool,
    assigns every sampled point its campaign-global index (the chaos
    schedule's clock), enforces the watchdog, respawns the pool after
    worker death, retries failed points with exponential backoff and
    quarantines the ones that fail every attempt.

    Fault attribution: a failed group of several points is split into
    singleton groups and requeued with no point charged, so only a
    failed singleton is ever charged an attempt.  When the pool breaks,
    every pending future fails at once and only the group whose wait
    raised is blamed — then the supervisor switches to **isolation
    mode** (one group in flight at a time) until a clean round, so a
    genuine poison point is charged precisely on every retry while
    innocent group-mates are rescheduled uncharged.
    """

    def __init__(
        self,
        config: CampaignConfig,
        chaos,
        stats: SupervisorStats,
        shard_store: Optional[str] = None,
    ) -> None:
        self.config = config
        self.chaos = chaos
        self.stats = stats
        workers = config.workers
        if workers == 0:
            workers = os.cpu_count() or 1
        # A watchdog needs a process boundary to interrupt a hung
        # replay, so a serial campaign with a timeout runs pooled.
        if (workers is None or workers < 2) and config.point_timeout is not None:
            workers = max(workers or 1, 1)
            self._pooled = True
        else:
            self._pooled = workers is not None and workers > 1
        self._width = workers if self._pooled else None
        # Workers write their own store shards only where contention
        # exists at all: a real store file and a process pool.
        self.shard_store = shard_store if self._pooled else None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._isolating = False
        self.next_index = 0
        #: global index -> pid of the process that computed the point
        #: (telemetry only; the campaign process itself when serial).
        self.worker_pids: Dict[int, int] = {}

    # -- pool lifecycle ------------------------------------------------- #
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Persistent warm workers: each worker preloads the sweep's
            # golden artefacts once at spawn, so shards stop re-warming
            # traces on every job (and a respawned pool re-warms exactly
            # once, not per batch).
            from concurrent.futures import ProcessPoolExecutor

            from repro.campaign.replay import warm_lean_golden

            self._executor = ProcessPoolExecutor(
                max_workers=self._width,
                initializer=_init_worker,
                initargs=(
                    warm_lean_golden,
                    self.config.kernels,
                    self.config.sweep_scales,
                ),
            )
        return self._executor

    def _kill_pool(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        self.stats.worker_restarts += 1
        _metrics.inc("campaign_pool_restarts_total")
        _flight.record("pool-restart")
        _trace.event("pool-restart")
        # Hung or dead workers never drain their queue: cancel what we
        # can, then terminate the worker processes outright (the private
        # map is the only handle ProcessPoolExecutor exposes).
        processes = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    # -- batch execution ------------------------------------------------ #
    def assign_indices(self, count: int) -> range:
        """Consume ``count`` campaign-global point indices (every sampled
        point gets one — store hits included — so the chaos schedule is
        stable whether or not a run resumes)."""
        indices = range(self.next_index, self.next_index + count)
        self.next_index += count
        return indices

    def inflight_groups(self) -> int:
        """Group jobs one stratum window keeps in flight.

        Pooled campaigns target **two groups per worker**: one running
        while its successor queues, so workers never idle between a
        group finishing and the engine's collect/flush — and
        golden-artefact derivation for one group overlaps residue
        replay of another.  Serial campaigns window one group at a
        time (there is nothing to overlap with).
        """
        if not self._pooled:
            return 1
        return max(2, 2 * (self._width or 1))

    def run_batch_grouped(
        self, jobs: Sequence[_Job], *, chunk: Optional[int] = None
    ) -> Tuple[
        Dict[int, Dict[str, object]],
        Dict[int, Tuple[CampaignError, int]],
        Dict[int, str],
        set,
    ]:
        """Run one stratum window of ``(global_index, spec, keyed)`` jobs to
        completion or quarantine.

        Returns ``(payloads, quarantined, modes, persisted)`` keyed by
        global index.  ``quarantined`` values are ``(final_error,
        attempts)`` (with ``config.quarantine=False`` the final error is
        raised instead); ``modes`` maps each completed point to its
        replay mode (``analytical`` / ``streamed``);
        ``persisted`` holds the indices whose rows a worker already
        wrote to its own store shard (the engine must not write them
        again).

        The group job is the supervisor's only unit of work:

        * the window's points run as group jobs of up to ``chunk``
          points against shared golden state — **all submitted up
          front** when pooled, so every worker stays busy — each under
          a watchdog scaled to its size;
        * chaos-targeted points (a *non-consuming* peek at the plan, so
          one-shot directives still fire exactly once) become singleton
          groups that run once those groups are collected, so a
          directive that kills or hangs its worker breaks no other group;
        * a failed group of several points is split into singleton
          groups and requeued, no point charged;
        * a failed singleton is charged an attempt (:meth:`_charge`),
          then retried after an exponential backoff or, past
          ``max_retries``, quarantined.
        """
        clean: List[_Job] = []
        # Chaos-targeted points start in the requeue, so they run as
        # singletons in the round after the clean groups.
        requeue: List[List[_Job]] = []
        for job in jobs:
            if self.chaos is not None and self.chaos.has_directive(job[0]):
                requeue.append([job])
            else:
                clean.append(job)
        size = chunk if chunk else max(1, len(clean))
        pending = [clean[start : start + size] for start in range(0, len(clean), size)]
        if pending:
            _flight.record("dispatch-group", points=len(clean), groups=len(pending))
        payloads: Dict[int, Dict[str, object]] = {}
        modes: Dict[int, str] = {}
        persisted: set = set()
        quarantined: Dict[int, Tuple[CampaignError, int]] = {}
        attempts: Dict[int, int] = {}
        while pending or requeue:
            failed = False
            for group, batch, error in self._run_groups(pending):
                if batch is not None:
                    _metrics.merge_phase_payload(batch["phases"])
                    if batch["persisted"]:
                        persisted.update(job[0] for job in group)
                    for (index, _spec, _keyed), (payload, mode) in zip(
                        group, batch["results"]
                    ):
                        payloads[index] = payload
                        modes[index] = mode
                        self.worker_pids[index] = batch["pid"]
                    continue
                failed = True
                if error is None or len(group) > 1:
                    # Collateral of a broken pool, or a failure no single
                    # point can be blamed for yet: rerun every point as
                    # its own group, uncharged.
                    requeue.extend([job] for job in group)
                elif self._charge(group[0][0], error, attempts):
                    requeue.append(group)
                else:
                    quarantined[group[0][0]] = (error, attempts[group[0][0]])
            if pending and not failed:
                self._isolating = False
            pending, requeue = sorted(requeue), []
        return payloads, quarantined, modes, persisted

    def _charge(
        self, index: int, error: CampaignError, attempts: Dict[int, int]
    ) -> bool:
        """Charge failed point ``index`` one attempt.

        Returns True when the point is to be retried (after the
        backoff), False when it is quarantined; with
        ``config.quarantine=False`` a final failure raises instead.
        """
        attempts[index] = attempts.get(index, 0) + 1
        self.stats.record(error)
        error.details.setdefault("point_index", index)
        error.details["attempts"] = attempts[index]
        _metrics.inc(
            "campaign_point_failures_total", labels={"error": error.kind}
        )
        _flight.record(
            "point-failure",
            index=index,
            error=error.kind,
            attempt=attempts[index],
        )
        _trace.event(
            "point-failure",
            index=index,
            error=error.kind,
            attempt=attempts[index],
        )
        if attempts[index] > self.config.max_retries:
            if not self.config.quarantine:
                raise error
            self.stats.quarantined += 1
            _metrics.inc("campaign_points_quarantined_total")
            # The worker's own tail travels in the error when the worker
            # lived to attach it; a killed or hung worker leaves the
            # supervisor's view as the next-best tail.
            error.details.setdefault(
                "flight_recorder", _flight.tail_payload()
            )
            _flight.record("quarantine", index=index, error=error.kind)
            _trace.event(
                "quarantine",
                index=index,
                error=error.kind,
                attempts=attempts[index],
            )
            return False
        self.stats.retries += 1
        _metrics.inc("campaign_retries_total")
        _flight.record("retry", index=index, attempt=attempts[index])
        _trace.event(
            "retry",
            index=index,
            attempt=attempts[index],
            error=error.kind,
        )
        if self.config.retry_backoff > 0:
            time.sleep(
                self.config.retry_backoff
                * (2 ** (attempts[index] - 1))
            )
        return True

    def _run_groups(self, groups):
        """Run one round of group jobs, overlapped when pooled.

        Yields ``(group, envelope, error)`` in submission order.  A
        failed group has ``envelope=None`` and ``error`` set to the
        taxonomy error it is blamed for — or ``error=None`` when the
        pool broke under it while an earlier group took the blame.
        Pooled execution submits every group of the round before
        collecting the first result, so up to pool-width groups run
        concurrently and the rest queue warm behind them; in isolation
        mode one group is in flight at a time.
        """
        if not self._pooled:
            for group in groups:
                directive = self._chaos_directive(group, inline=True)
                try:
                    batch = _simulate_batch(
                        [job[1] for job in group], None, directive
                    )
                except Exception as error:  # noqa: BLE001 - taxonomy boundary
                    yield group, None, wrap_point_error(error)
                else:
                    yield group, batch, None
            return
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        hang = self.chaos.hang_seconds if self.chaos is not None else 0.0
        timeout = self.config.point_timeout
        waves = [[group] for group in groups] if self._isolating else [groups]
        for wave in waves:
            submitted = []
            for group in wave:
                directive = self._chaos_directive(group, inline=False)
                try:
                    future = self._pool().submit(
                        _simulate_batch,
                        [job[1] for job in group],
                        self.shard_store,
                        directive,
                        hang,
                        [job[2] for job in group] if self.shard_store else (),
                    )
                except BrokenProcessPool:
                    self._kill_pool()
                    self._isolating = True
                    future = None
                submitted.append((group, future))
            broken = False
            for group, future in submitted:
                if future is None or broken:
                    # The pool died under this group: keep a result that
                    # finished in time, otherwise reschedule it uncharged
                    # (the group whose wait raised took the blame).
                    if (
                        future is not None
                        and future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        yield group, future.result(), None
                    else:
                        yield group, None, None
                    continue
                try:
                    batch = future.result(
                        timeout=timeout * len(group) if timeout is not None else None
                    )
                except FuturesTimeoutError:
                    error = PointTimeout(
                        f"point exceeded the {timeout:g}s watchdog",
                        timeout_seconds=timeout,
                    )
                except BrokenProcessPool:
                    error = WorkerCrash("a pool worker died while running the shard")
                except Exception as raised:  # noqa: BLE001 - taxonomy boundary
                    yield group, None, wrap_point_error(raised)
                    continue
                else:
                    yield group, batch, None
                    continue
                # A hung or dead worker: respawn the pool and isolate.
                self._kill_pool()
                self._isolating = True
                broken = True
                yield group, None, error

    def _chaos_directive(self, group, *, inline: bool):
        """Apply a singleton group's supervisor-side chaos at dispatch and
        return its worker-side directive (multi-point groups never hold a
        chaos-targeted point)."""
        if self.chaos is None or len(group) != 1:
            return None
        from repro.campaign.chaos import apply_supervisor_directive

        index = group[0][0]
        apply_supervisor_directive(self.chaos.directive_for(index, worker=False))
        directive = self.chaos.directive_for(index, worker=True)
        if directive is not None and inline and directive.kind != "fail":
            # No worker boundary to kill or hang in inline execution.
            return None
        return directive


class _Heartbeat:
    """Emits the live progress line at batch boundaries.

    ``interval`` is seconds between beats (0 = every batch, None =
    silent); beats go through the process console's status stream, so
    they never touch the deterministic summary on stdout.
    """

    def __init__(self, interval: Optional[float], expected: int) -> None:
        self.interval = interval
        self.expected = expected
        # repro: allow[D101] reason=console heartbeat pacing; feeds stderr progress lines, never a payload
        self._started = time.monotonic()
        self._last = self._started

    def maybe_beat(self, result: "CampaignResult") -> None:
        if self.interval is None:
            return
        # repro: allow[D101] reason=console heartbeat pacing; feeds stderr progress lines, never a payload
        now = time.monotonic()
        if self.interval > 0 and now - self._last < self.interval:
            return
        self._last = now
        get_console().status(
            format_heartbeat(
                done=result.simulated + result.store_hits,
                expected=self.expected,
                elapsed=now - self._started,
                stats=result.stats,
                quarantined=result.quarantined_points,
            )
        )


def run_campaign(
    config: CampaignConfig,
    *,
    store=None,
    resume: bool = False,
    chaos=None,
    telemetry=None,
) -> CampaignResult:
    """Run (or resume) one stratified architectural campaign.

    ``store`` is an optional :class:`~repro.store.ResultStore`; computed
    points are always written to it (one transaction per batch).  With
    ``resume=True`` points whose spec hash is already stored are *not*
    re-simulated — their stored outcome is reused — which is what turns
    a half-finished campaign into an incremental one.

    ``chaos`` is an optional :class:`~repro.campaign.chaos.ChaosPlan`
    injecting deterministic harness faults (tests / CI only).

    ``telemetry`` is an optional
    :class:`~repro.telemetry.trace.Telemetry` session (``--trace`` /
    ``--progress-interval``).  Telemetry is deterministically inert:
    the returned result, its rendered summary and every store payload
    are byte-identical with or without it.
    """
    result = CampaignResult(config=config)
    # Metrics and the flight recorder restart with the campaign, so the
    # final metrics snapshot describes *this* run and quarantine-payload
    # sequence numbers are per-campaign deterministic.
    _metrics.reset_registry()
    _flight.recorder().clear()
    session = _trace.activate(telemetry) if telemetry is not None else None
    heartbeat = _Heartbeat(
        telemetry.progress_interval if telemetry is not None else None,
        expected=config.trials * sum(1 for _ in config.strata()),
    )
    supervisor = _PointSupervisor(
        config,
        chaos,
        result.stats,
        shard_store=(
            store.path
            if store is not None and store.path != ":memory:"
            else None
        ),
    )
    merger = None
    if store is not None and store.path != ":memory:":
        from repro.store.sharding import ShardMerger

        merger = ShardMerger(store)
        # Orphan recovery: shards left by a killed run are folded in
        # *before* the first resume lookup, so their points resume as
        # store hits exactly as if the canonical file had been written.
        merger.merge()
        merger.discard_shards()
    campaign_span = _trace.begin_span(
        "campaign",
        kernels=",".join(config.kernels),
        policies=",".join(config.policies),
        trials=config.trials,
        workers=config.workers if config.workers is not None else 0,
    )
    status = "completed"
    try:
        with _SignalGuard() as guard:
            for kernel, policy_value, target, scenario, scale in config.strata():
                stratum = _run_stratum(
                    config,
                    kernel,
                    policy_value,
                    target=target,
                    scenario=scenario,
                    scale=scale,
                    store=store,
                    resume=resume,
                    supervisor=supervisor,
                    guard=guard,
                    result=result,
                    heartbeat=heartbeat,
                    campaign_span=campaign_span,
                    merger=merger,
                )
                result.strata.append(stratum)
    except CampaignInterrupted as error:
        status = "interrupted"
        _trace.event("interrupt", signal=error.details.get("signal"))
        _trace.emit_flight("interrupt", _flight.recorder().tail())
        raise
    except BaseException as error:
        status = "error"
        _trace.event("campaign-error", error=type(error).__name__)
        _trace.emit_flight("crash", _flight.recorder().tail())
        raise
    finally:
        supervisor.close()
        if merger is not None:
            # The pool is down: one last merge drains anything a worker
            # persisted that the flush-boundary merges missed, then the
            # fully folded shard files are deleted.
            merger.merge()
            merger.discard_shards()
        _trace.emit_metrics(_metrics.registry().to_payload())
        _trace.end_span(
            campaign_span,
            status=status,
            points=result.points,
            simulated=result.simulated,
            quarantined=result.quarantined_points,
        )
        if session is not None:
            _trace.deactivate()
    return result


def _run_stratum(
    config: CampaignConfig,
    kernel: str,
    policy_value: str,
    *,
    target: str,
    scenario: str,
    scale: float,
    store,
    resume: bool,
    supervisor: _PointSupervisor,
    guard: _SignalGuard,
    result: CampaignResult,
    heartbeat: Optional[_Heartbeat] = None,
    campaign_span: int = 0,
    merger=None,
) -> StratumSummary:
    from repro.store.canonical import CanonicalTemplate

    # Every point of the stratum is this spec with its fault set, so the
    # canonical text around the fault is derived once and each point's
    # (store key, canonical JSON) spliced from it; a point's spec is
    # built only if it runs.
    base = SimulationSpec(
        kernel=kernel,
        scale=scale,
        policy=policy_value,
        interference=config.scenario_interference(scenario),
    )
    template = CanonicalTemplate(base)
    stratum_label = f"{kernel}/{policy_value}/{target}/{scenario}/{scale:g}"
    counts: Dict[str, int] = {key: 0 for key in OUTCOME_KEYS}
    # Window sizing: a sweep with no early-stopping checks to honour
    # samples `inflight_groups` batches at once and submits them all, so
    # a pooled campaign keeps >= 2 group jobs per worker in flight.
    # With a CI target the window stays one batch, preserving the
    # historical check cadence exactly.
    window_groups = (
        supervisor.inflight_groups() if config.ci_target is None else 1
    )
    # Fetch the fault space before the sampling timer: from the store
    # when it holds one (a resume then runs no kernel), else from the
    # golden run, whose time is counted as golden, not also as sampling.
    kernel_fault_space(kernel, scale, store)
    done = 0
    stratum_quarantined = 0
    early = False
    while done < config.trials and not early:
        batch_size = min(config.batch * window_groups, config.trials - done)
        with _metrics.phase_timer("sampling"):
            faults = sample_faults(
                kernel,
                scale,
                policy_value,
                batch_size,
                seed=config.seed,
                start=done,
                target=target,
                scenario=scenario,
            )
        if not faults:
            break
        keyed = [template.keyed(fault) for fault in faults]
        indices = supervisor.assign_indices(len(faults))
        _metrics.inc("campaign_batches_total")
        _metrics.inc("campaign_points_total", len(faults))
        batch_span = _trace.begin_span(
            "batch",
            parent=campaign_span,
            stratum=stratum_label,
            points=len(faults),
            start=done,
        )
        payloads: List[Optional[Dict[str, object]]] = [None] * len(faults)
        to_run: List[int] = []
        batch_hits = 0
        lookup = store is not None and resume
        # One SELECT resolves the whole batch's store hits up front —
        # warm resumes never enter the supervisor loop per hit (the
        # BENCH_6 warm-path regression was exactly that).
        stored_payloads = (
            store.get_many([key for key, _text in keyed]) if lookup else {}
        )
        for slot, (key, _text) in enumerate(keyed):
            stored = stored_payloads.get(key)
            if stored is not None:
                payloads[slot] = stored
                result.store_hits += 1
                result.stats.store_hits += 1
                batch_hits += 1
                _metrics.inc("campaign_store_hits_total")
            else:
                if lookup:
                    result.store_misses += 1
                    _metrics.inc("campaign_store_misses_total")
                to_run.append(slot)
        quarantined_slots: List[int] = []
        rows: List[Tuple[str, Dict[str, object], str]] = []
        if to_run:
            jobs = [
                (indices[slot], replace(base, fault=faults[slot]), keyed[slot])
                for slot in to_run
            ]
            run_started = _trace.now()
            computed, poisoned, modes, persisted = supervisor.run_batch_grouped(
                jobs, chunk=config.batch
            )
            run_ended = _trace.now()
            for slot in to_run:
                index = indices[slot]
                if index in computed:
                    payloads[slot] = computed[index]
                    result.simulated += 1
                    mode = modes[index]
                    result.stats.record_mode(mode)
                    _metrics.inc("campaign_points_simulated_total")
                    _metrics.inc(
                        "campaign_replay_points_total", labels={"mode": mode}
                    )
                    # Per-point spans share the batch-job window: points
                    # inside one group job are not individually timed
                    # (timing them would perturb the hot path).
                    _trace.emit_span(
                        "point",
                        parent=batch_span,
                        t_start=run_started,
                        t_end=run_ended,
                        worker=supervisor.worker_pids.get(index),
                        index=index,
                        mode=mode,
                        outcome=str(computed[index]["outcome"]),
                    )
                    if store is not None and index not in persisted:
                        key, text = keyed[slot]
                        rows.append((key, computed[index], text))
                else:
                    error, tries = poisoned[index]
                    quarantined_slots.append(slot)
                    point = QuarantinedPoint(
                        index=index,
                        kernel=kernel,
                        policy=policy_value,
                        target=target,
                        scenario=scenario,
                        scale=scale,
                        attempts=tries,
                        error=error.payload(),
                        key=keyed[slot][0],
                        spec_json=keyed[slot][1],
                    )
                    result.quarantined.append(point)
                    if store is not None:
                        with _metrics.phase_timer("store_write"):
                            store.quarantine_put(
                                point.key, point.error, spec_json=point.spec_json
                            )
        for slot, payload in enumerate(payloads):
            if payload is not None:
                counts[str(payload["outcome"])] += 1
        stratum_quarantined += len(quarantined_slots)
        done += len(faults)
        if rows:
            with _metrics.phase_timer("store_write"):
                store.put_many(rows, kind="injection")
        if merger is not None and supervisor.shard_store is not None:
            # Fold worker shards in at the flush boundary, so the
            # canonical store checkpoints exactly what the single-writer
            # path would have — a SIGINT here resumes byte-identically.
            merger.merge()
        _trace.end_span(
            batch_span,
            hits=batch_hits,
            simulated=len(to_run) - len(quarantined_slots),
            quarantined=len(quarantined_slots),
        )
        # The batch is flushed: this is the checkpoint boundary where a
        # graceful interrupt may stop the campaign (resume is byte-exact
        # from here).
        guard.check(result)
        if heartbeat is not None:
            heartbeat.maybe_beat(result)
        completed = done - stratum_quarantined
        if config.ci_target is not None and done >= config.batch and completed:
            half_sdc = wilson_half_width(counts["sdc"], completed, z=config.ci_z)
            half_corrected = wilson_half_width(
                counts["corrected"], completed, z=config.ci_z
            )
            if max(half_sdc, half_corrected) <= config.ci_target:
                early = True
    return StratumSummary(
        kernel=kernel,
        policy=policy_value,
        trials=done - stratum_quarantined,
        counts=counts,
        early_stopped=early,
        target=target,
        scenario=scenario,
        scale=scale,
        quarantined=stratum_quarantined,
    )

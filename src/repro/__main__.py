"""``python -m repro`` — the experiment command-line interface.

Examples::

    python -m repro --list                      # discover experiments
    python -m repro --list-scenarios            # discover named scenarios
    python -m repro --run figure8               # one experiment, stdout + artefact
    python -m repro --run all --out out/ -w 0   # full campaign, parallel workers

Architectural fault-injection campaigns get their own subcommand::

    python -m repro campaign --kernels matrix,canrdr --trials 100 \
        --store campaign.sqlite              # checkpoint every point
    python -m repro campaign --kernels matrix,canrdr --trials 100 \
        --store campaign.sqlite --resume     # simulate only missing points
    python -m repro campaign --kernels all --ci-target 0.05 --workers 0
    python -m repro campaign --kernels matrix,canrdr \
        --targets dl1,l2 --scenarios isolation,laec-worst   # sweep grid
    python -m repro campaign --kernels all --workers 0 \
        --point-timeout 30 --max-retries 3     # supervised: hung points
                                               # killed, crashes retried,
                                               # poison points quarantined

Result stores can be checked and healed in place::

    python -m repro store campaign.sqlite --verify   # checksum scan
    python -m repro store campaign.sqlite --repair   # drop corrupt rows
    python -m repro store campaign.sqlite \
        --merge campaign.sqlite.shards/shard-*.sqlite   # fold worker shards

Campaigns can record structured telemetry, queryable afterwards::

    python -m repro campaign ... --trace run.trace \
        --progress-interval 10               # JSONL spans + heartbeat
    python -m repro trace run.trace              # summary + slowest groups
    python -m repro trace run.trace --timeline   # failure timeline
    python -m repro trace run.trace --metrics    # Prometheus-style export
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
from typing import List, Optional

from repro.scenarios.registry import scenario_description, scenario_names
from repro.scenarios.spec import DEFAULT_CAMPAIGN_SCALE

#: Default artefact directory — the one the benchmark harness populates.
DEFAULT_OUTPUT_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the paper's tables, figures and ablations. "
            "Each experiment writes its artefact to --out (byte-identical "
            "to the benchmark harness) and prints it to stdout."
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered experiments and exit"
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the named simulation scenarios and exit",
    )
    parser.add_argument(
        "--run",
        action="append",
        metavar="NAME",
        help="experiment to run (repeatable; 'all' runs the full campaign)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help=f"artefact output directory (default: {DEFAULT_OUTPUT_DIR})",
    )
    parser.add_argument(
        "--workers",
        "-w",
        type=int,
        default=None,
        metavar="N",
        help=(
            "process-pool workers for the kernel simulation matrix "
            "(0 = one per CPU; default: serial)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_CAMPAIGN_SCALE,
        help=(
            "kernel iteration-count scale for the campaign matrix "
            f"(default: {DEFAULT_CAMPAIGN_SCALE}, the artefact scale)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "RNG seed for experiments that draw random trials "
            "(fault_campaign, campaign_summary); default: each "
            "experiment's committed seed"
        ),
    )
    parser.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help=(
            "attach a persistent result store (SQLite): simulation "
            "results are reused across processes by content hash"
        ),
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help=(
            "bypass all result caches (in-memory and --store reads); "
            "recomputes everything and refreshes the store"
        ),
    )
    parser.add_argument(
        "--quiet",
        "-q",
        action="store_true",
        help="do not print rendered artefacts to stdout",
    )
    return parser


def _build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Statistical architectural fault-injection campaign: sample "
            "(injection cycle x cache word x bit) points per stratum of "
            "the sweep grid (kernel x policy x target x scenario x "
            "scale), replay each fault in a live DL1/L2 during a real "
            "kernel run — optionally under bus interference — and "
            "classify outcomes architecturally (masked / corrected / "
            "detected / SDC / timing) with Wilson confidence intervals."
        ),
    )
    parser.add_argument(
        "--kernels",
        default="canrdr,matrix",
        metavar="A,B,...",
        help="comma-separated kernel names, or 'all' (default: canrdr,matrix)",
    )
    parser.add_argument(
        "--policies",
        default=",".join(
            ("no-ecc", "extra-cycle", "extra-stage", "laec")
        ),
        metavar="A,B,...",
        help="comma-separated ECC policies (default: the four Figure 8 policies)",
    )
    parser.add_argument(
        "--targets",
        default="dl1",
        metavar="A,B,...",
        help=(
            "comma-separated fault targets to sweep: dl1, l2 or dl1,l2 "
            "(default: dl1)"
        ),
    )
    parser.add_argument(
        "--scenarios",
        default="isolation",
        metavar="A,B,...",
        help=(
            "comma-separated named interference scenarios the faulty runs "
            "execute under (see --list-scenarios; e.g. isolation,laec-worst; "
            "default: isolation)"
        ),
    )
    parser.add_argument(
        "--scales",
        default=None,
        metavar="S1,S2,...",
        help=(
            "comma-separated kernel scales to sweep (overrides --scale as "
            "the scale axis; default: just --scale)"
        ),
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=80,
        metavar="N",
        help="maximum sampled faults per stratum (default: 80)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=20,
        metavar="N",
        help="points between early-stopping checks (default: 20)",
    )
    parser.add_argument(
        "--ci-target",
        type=float,
        default=None,
        metavar="W",
        help=(
            "stop a stratum early once the Wilson 95%% half-width of its "
            "SDC and corrected rates reaches W (e.g. 0.05)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="kernel iteration-count scale (default: 0.2)",
    )
    parser.add_argument(
        "--seed", type=int, default=2019, help="campaign seed (default: 2019)"
    )
    parser.add_argument(
        "--workers",
        "-w",
        type=int,
        default=None,
        metavar="N",
        help="process-pool workers sharding the points (0 = one per CPU)",
    )
    parser.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="persist every finished point to this SQLite store",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reuse points already in --store (simulate only the missing "
            "ones); without it every point is recomputed and overwritten"
        ),
    )
    parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-point wall-clock watchdog: a replay exceeding it is "
            "killed, retried, and quarantined after --max-retries "
            "(needs a process boundary, so serial campaigns run their "
            "points through a one-worker pool)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retries per failed point (timeout / worker crash / replay "
            "error) before it is quarantined (default: 2)"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="base of the exponential retry backoff (default: 0.1)",
    )
    parser.add_argument(
        "--no-quarantine",
        action="store_true",
        help=(
            "fail fast: re-raise a point's final error instead of "
            "quarantining it and completing the campaign"
        ),
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic harness-fault injection for tests/CI: "
            "comma-separated kind@index[:always] directives, kinds "
            "kill-worker, timeout, fail, kill-main, sigint "
            '(e.g. "kill-worker@5,timeout@7:always")'
        ),
    )
    parser.add_argument(
        "--chaos-hang",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="how long a chaos timeout@ point hangs (default: 3600)",
    )
    parser.add_argument(
        "--trace",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help=(
            "record structured JSONL telemetry (spans campaign -> batch "
            "-> point, supervisor events, final metrics) to PATH; "
            "inspect it with 'python -m repro trace PATH'. Tracing never "
            "changes summaries or store payloads"
        ),
    )
    parser.add_argument(
        "--progress-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "emit a live progress line (points/s, ETA, supervisor "
            "counters) to stderr at batch boundaries, at most every "
            "SECONDS seconds (0 = every batch)"
        ),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also write the rendered summary to FILE",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true", help="do not print the summary"
    )
    return parser


def _run_campaign_command(argv: List[str]) -> int:
    from repro.campaign.engine import CampaignConfig, run_campaign
    from repro.campaign.errors import CampaignError, CampaignInterrupted
    from repro.store.result_store import ResultStore
    from repro.telemetry import flight
    from repro.telemetry.console import format_flight_tail, format_stats_line, get_console
    from repro.telemetry.trace import Telemetry

    args = _build_campaign_parser().parse_args(argv)
    console = get_console()
    console.quiet = args.quiet
    if args.kernels.strip().lower() == "all":
        from repro.workloads.registry import KERNEL_NAMES

        kernels = tuple(KERNEL_NAMES)
    else:
        kernels = tuple(
            name.strip() for name in args.kernels.split(",") if name.strip()
        )
    policies = tuple(
        name.strip() for name in args.policies.split(",") if name.strip()
    )
    targets = tuple(
        name.strip().lower() for name in args.targets.split(",") if name.strip()
    )
    scenarios = tuple(
        name.strip().lower() for name in args.scenarios.split(",") if name.strip()
    )
    try:
        scales = (
            tuple(float(raw) for raw in args.scales.split(",") if raw.strip())
            if args.scales is not None
            else ()
        )
        config = CampaignConfig(
            kernels=kernels,
            policies=policies,
            scale=args.scale,
            trials=args.trials,
            batch=args.batch,
            ci_target=args.ci_target,
            seed=args.seed,
            workers=args.workers,
            targets=targets,
            scenarios=scenarios,
            scales=scales,
            point_timeout=args.point_timeout,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            quarantine=not args.no_quarantine,
        )
        chaos = None
        if args.chaos is not None:
            from repro.campaign.chaos import parse_chaos

            chaos = parse_chaos(args.chaos, hang_seconds=args.chaos_hang)
        telemetry = (
            Telemetry(
                args.trace,
                progress_interval=args.progress_interval,
                config={
                    "kernels": ",".join(config.kernels),
                    "policies": ",".join(policies),
                    "targets": ",".join(targets),
                    "scenarios": ",".join(scenarios),
                    "trials": args.trials,
                    "seed": args.seed,
                },
            )
            if args.trace is not None or args.progress_interval is not None
            else None
        )
    except ValueError as error:
        console.error(str(error))
        return 2
    if args.resume and args.store is None:
        console.error("--resume needs --store PATH")
        return 2

    store = None
    started = time.perf_counter()
    try:
        store = ResultStore(args.store) if args.store is not None else None
        result = run_campaign(
            config,
            store=store,
            resume=args.resume,
            chaos=chaos,
            telemetry=telemetry,
        )
    except CampaignInterrupted as error:
        console.error(f"[campaign] error: {error}")
        console.error(format_flight_tail(flight.recorder().tail()))
        return 3
    except CampaignError as error:
        console.error(f"[campaign] error: {error}")
        console.error(format_flight_tail(flight.recorder().tail()))
        return 1
    except Exception as error:  # noqa: BLE001 - structured exit, no traceback
        console.error(
            f"[campaign] error: internal: {type(error).__name__}: {error}"
        )
        console.error(format_flight_tail(flight.recorder().tail()))
        return 1
    finally:
        if store is not None:
            store.close()
    elapsed = time.perf_counter() - started

    text = result.render()
    console.output(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n", encoding="utf-8")
    console.status(format_stats_line(result, elapsed))
    return 0


def _build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Inspect a campaign trace recorded with --trace: summary, "
            "slowest batch groups, failure timeline, Prometheus-style "
            "metrics export, schema validation."
        ),
    )
    parser.add_argument("path", type=pathlib.Path, help="the JSONL trace file")
    parser.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="N",
        help="how many slowest batch groups to show (default: 5)",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="print the failure timeline (supervisor events in time order)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the final metrics snapshot as Prometheus text",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="validate every record against the trace schema; exit 1 on errors",
    )
    return parser


def _run_trace_command(argv: List[str]) -> int:
    try:
        return _trace_command(argv)
    except BrokenPipeError:
        # `repro trace ... | head` / `| grep -q` closes stdout early;
        # that is a normal way to consume a report, not an error.  Point
        # stdout at devnull so the interpreter's shutdown flush doesn't
        # raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _trace_command(argv: List[str]) -> int:
    from repro.telemetry.analyze import TraceFile

    args = _build_trace_parser().parse_args(argv)
    if not args.path.exists():
        print(f"no trace at {args.path}", file=sys.stderr)
        return 2
    try:
        trace = TraceFile(args.path)
    except Exception as error:  # noqa: BLE001 - structured exit, no traceback
        print(f"[trace] error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    if args.validate:
        problems = trace.validate()
        if problems:
            for problem in problems:
                print(f"[trace] {problem}", file=sys.stderr)
            print(f"[trace] {len(problems)} schema problem(s)", file=sys.stderr)
            return 1
        print(f"[trace] {len(trace.records)} record(s), schema OK")
        return 0
    if args.metrics:
        print(trace.metrics_text())
        return 0
    if args.timeline:
        print(trace.render_timeline())
        return 0
    print(trace.summary())
    print()
    print(trace.render_slowest(args.slowest))
    timeline = trace.failure_timeline()
    if timeline or trace.flights:
        print()
        print(trace.render_timeline())
    return 0


def _build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "Determinism & fork-safety static analyzer: D-rules "
            "(wall-clock/entropy/pid/unsorted iteration), P-rules "
            "(__reduce__ fidelity, pool closures, sqlite across forks), "
            "S-rules (store checksum API, observability name drift)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        default=None,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any unwaived, unbaselined finding remains",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="suppress findings fingerprinted in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="record every active finding into FILE and exit",
    )
    parser.add_argument(
        "--doc",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help=(
            "architecture doc for the S302/S303 name cross-check "
            "(default: nearest ARCHITECTURE.md above the first path)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _run_lint_command(argv: List[str]) -> int:
    from repro.analysis.lint.engine import lint_paths, write_baseline
    from repro.analysis.lint.rules import rule_catalogue

    args = _build_lint_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, title in rule_catalogue():
            print(f"{rule_id}  {title}")
        return 0
    paths = args.paths or [pathlib.Path(__file__).resolve().parent]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"[lint] no such path: {path}", file=sys.stderr)
        return 2
    report = lint_paths(
        paths, doc_path=args.doc, baseline_path=args.baseline
    )
    if args.write_baseline is not None:
        count = write_baseline(report, args.write_baseline)
        print(f"[lint] baselined {count} finding(s) -> {args.write_baseline}")
        return 0
    print(report.to_json() if args.json else report.render())
    if args.strict and report.active:
        return 1
    return 0


def _build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description=(
            "Inspect and heal a result store: verify per-row payload "
            "checksums, repair (drop corrupt rows so --resume "
            "re-simulates them, backfill legacy checksums), or "
            "deterministically corrupt a row (chaos testing)."
        ),
    )
    parser.add_argument("path", type=pathlib.Path, help="the SQLite store file")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="scan every row's checksum; exit 1 if any row is corrupt",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="drop corrupt rows and backfill legacy checksums",
    )
    parser.add_argument(
        "--corrupt-row",
        type=int,
        default=None,
        metavar="N",
        help="chaos: bit-corrupt the N-th result row (by key order)",
    )
    parser.add_argument(
        "--merge",
        nargs="+",
        type=pathlib.Path,
        default=None,
        metavar="SHARD",
        help=(
            "fold worker shard stores into PATH (created if missing); "
            "content-addressed keys make the merge idempotent and "
            "order-independent"
        ),
    )
    return parser


def _run_store_command(argv: List[str]) -> int:
    from repro.campaign.chaos import corrupt_store_row
    from repro.campaign.errors import CampaignError
    from repro.store.result_store import ResultStore

    args = _build_store_parser().parse_args(argv)
    if not args.path.exists() and args.merge is None:
        print(f"no store at {args.path}", file=sys.stderr)
        return 2
    try:
        if args.corrupt_row is not None:
            key = corrupt_store_row(args.path, args.corrupt_row)
            print(f"[store] corrupted row {args.corrupt_row} (key {key})")
        with ResultStore(args.path) as store:
            if args.merge is not None:
                from repro.store.sharding import merge_shards

                missing = [shard for shard in args.merge if not shard.exists()]
                if missing:
                    names = ", ".join(str(shard) for shard in missing)
                    print(f"[store] no shard at {names}", file=sys.stderr)
                    return 2
                merged = merge_shards(store, args.merge)
                print(
                    f"[store] merged {merged} row(s) from "
                    f"{len(args.merge)} shard(s); entries={len(store)}"
                )
                return 0
            if args.repair:
                report = store.repair()
                print(f"[store] repair: {report.describe()}")
                print(
                    f"[store] quarantined points on file: "
                    f"{store.quarantine_count()}"
                )
                return 0
            report = store.verify()
            print(f"[store] verify: {report.describe()}")
            print(
                f"[store] entries={len(store)} "
                f"schema=v{store.schema_version} "
                f"quarantined={store.quarantine_count()}"
            )
            if args.verify and not report.clean:
                return 1
            return 0
    except CampaignError as error:
        print(f"[store] error: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # noqa: BLE001 - structured exit, no traceback
        print(
            f"[store] error: internal: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1


def _list_experiments() -> str:
    from repro.experiments.catalog import all_experiments

    lines = ["Registered experiments:"]
    for experiment in all_experiments():
        artefact = f" -> {experiment.artifact}.txt" if experiment.artifact else ""
        lines.append(f"  {experiment.name:22s} {experiment.description}{artefact}")
    lines.append("")
    lines.append("Run one with: python -m repro --run <name>   (or --run all)")
    return "\n".join(lines)


def _list_scenarios() -> str:
    lines = ["Named simulation scenarios:"]
    for name in scenario_names():
        description = scenario_description(name)
        lines.append(f"  {name:22s} {description}")
    return "\n".join(lines)


def _resolve_requested(requested: List[str]) -> List[str]:
    from repro.experiments.catalog import experiment_names

    names: List[str] = []
    for name in requested:
        if name.strip().lower() == "all":
            return experiment_names()
        names.append(name)
    return names


def main(argv: Optional[List[str]] = None) -> int:
    try:
        status = _main(argv)
        # Flush inside the ``try``: a reader that went away fails here.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Stdout closed early (``python -m repro --list | head -3``).
        # Python flushes it again at exit, so point it at devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv: Optional[List[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        return _run_campaign_command(argv[1:])
    if argv and argv[0] == "store":
        return _run_store_command(argv[1:])
    if argv and argv[0] == "trace":
        return _run_trace_command(argv[1:])
    if argv and argv[0] == "lint":
        return _run_lint_command(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print(_list_experiments())
        return 0
    if args.list_scenarios:
        print(_list_scenarios())
        return 0
    if not args.run:
        parser.print_usage()
        print("nothing to do: pass --list, --list-scenarios or --run <name>")
        return 2

    # The experiment catalogue (11 experiment modules) loads only here: the
    # campaign, store, trace and lint subcommands never import it.
    from repro.experiments.base import ExperimentContext
    from repro.experiments.catalog import get_experiment
    from repro.workloads.registry import check_kernel_scale

    try:
        check_kernel_scale(args.scale)
        names = _resolve_requested(args.run)
        experiments = [get_experiment(name) for name in names]
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2

    store = None
    if args.store is not None:
        from repro.store.result_store import ResultStore

        store = ResultStore(args.store)
    out_dir = args.out if args.out is not None else DEFAULT_OUTPUT_DIR
    context = ExperimentContext(
        scale=args.scale,
        workers=args.workers,
        seed=args.seed,
        force=args.force,
        store=store,
    )
    try:
        for experiment in experiments:
            started = time.perf_counter()
            output = experiment.execute(context)
            elapsed = time.perf_counter() - started
            path = output.write(out_dir)
            if not args.quiet:
                print(output.text)
                print()
            where = f" -> {path}" if path else ""
            print(f"[{experiment.name}] done in {elapsed:.1f}s{where}", file=sys.stderr)
        if store is not None:
            print(
                f"[store] {args.store}: {len(store)} entries, "
                f"{store.hits} hits, {store.misses} misses",
                file=sys.stderr,
            )
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tracing-overhead benchmark — writes ``BENCH_8.json``.

Telemetry's contract is that it is effectively free: spans, the metrics
registry and the flight recorder stay on the hot path unconditionally
(no-op hooks when no session is active, dict updates when one is), so a
fully traced campaign must run within ``MAX_OVERHEAD_SHARE`` of an
untraced one on the exact BENCH_7 grid — while rendering a
byte-identical summary (the inertness half of the contract).

Runs are interleaved untraced/traced and compared best-of to keep
machine-load noise out of the overhead figure.  Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_telemetry.py -m perf -q
"""

from __future__ import annotations

import time

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.telemetry.analyze import TraceFile
from repro.telemetry.trace import Telemetry

#: The BENCH_7 grid, unchanged, so the points/s figures line up.
CONFIG = CampaignConfig(
    kernels=("canrdr", "matrix"),
    policies=("no-ecc", "extra-cycle"),
    scale=0.1,
    trials=12,
    batch=6,
    seed=2019,
    targets=("dl1", "l2"),
    scenarios=("isolation", "laec-worst"),
)

REPEATS = 3
#: The tracing overhead budget: a traced sweep may cost at most this
#: share of throughput over an untraced one.
MAX_OVERHEAD_SHARE = 0.03


def _row(label, result, seconds):
    return {
        "name": label,
        "points": result.points,
        "strata": len(result.strata),
        "simulated": result.simulated,
        "repeats": REPEATS,
        "seconds": seconds,
        "points_per_second": result.points / seconds if seconds > 0 else 0.0,
    }


@pytest.mark.perf
def test_bench_telemetry_overhead(tmp_path, write_bench_report):
    trace_path = tmp_path / "bench_telemetry.trace"
    regimes = {
        "sweep_untraced": lambda: run_campaign(CONFIG),
        "sweep_traced": lambda: run_campaign(
            CONFIG, telemetry=Telemetry(trace_path, progress_interval=None)
        ),
    }

    # Interleave the regimes so drifting machine load hits both alike;
    # best-of per regime keeps one slow outlier from deciding the figure.
    best = {}
    for _ in range(REPEATS):
        for label, fn in regimes.items():
            started = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - started
            if label not in best or seconds < best[label][1]:
                best[label] = (result, seconds)

    untraced, untraced_seconds = best["sweep_untraced"]
    traced, traced_seconds = best["sweep_traced"]
    untraced_row = _row("sweep_untraced", untraced, untraced_seconds)
    traced_row = _row("sweep_traced", traced, traced_seconds)
    rows = [untraced_row, traced_row]

    # Inertness: telemetry changed nothing the campaign reports.
    assert traced.render() == untraced.render()

    # The trace file is real and complete (every point got a span).
    trace = TraceFile(trace_path)
    assert trace.validate() == []
    assert len(trace.spans_named("point")) == traced.simulated
    assert trace.metrics, "no metrics snapshot in the trace"

    overhead = (
        untraced_row["points_per_second"] / traced_row["points_per_second"]
        - 1.0
    )
    rows.append(
        {
            "name": "tracing_overhead",
            "untraced_points_per_second": untraced_row["points_per_second"],
            "traced_points_per_second": traced_row["points_per_second"],
            "overhead_share": overhead,
            "budget": MAX_OVERHEAD_SHARE,
            "trace_records": len(trace.records),
        }
    )
    assert overhead <= MAX_OVERHEAD_SHARE, (
        f"tracing costs {overhead:.1%} of sweep throughput "
        f"({traced_row['points_per_second']:.1f} vs "
        f"{untraced_row['points_per_second']:.1f} pts/s); "
        f"budget is {MAX_OVERHEAD_SHARE:.0%}"
    )

    write_bench_report(
        "BENCH_8.json",
        schema="repro-telemetry-bench/1",
        config={
            "kernels": list(CONFIG.kernels),
            "policies": list(CONFIG.policies),
            "targets": list(CONFIG.targets),
            "scenarios": list(CONFIG.scenarios),
            "scale": CONFIG.scale,
            "trials_per_stratum": CONFIG.trials,
            "batch": CONFIG.batch,
            "seed": CONFIG.seed,
            "repeats": REPEATS,
            "max_overhead_share": MAX_OVERHEAD_SHARE,
        },
        rows=rows,
    )

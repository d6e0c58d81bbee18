"""Batched-replay throughput benchmark — writes ``BENCH_7.json``.

ROADMAP item 1's 10x: the batched replay backend (shared golden traces,
analytical masked-fault triage, vectorised ECC decode, snapshot
suffix-resume) must make the standard sweep grid at least 10x faster
cold than BENCH_6's per-point ``sweep_cold`` (payload identity with the
per-point ``run_injection`` reference is pinned in
``tests/test_batched_replay.py``) — and the ``get_many``-based warm resume must
restore at least 0.8x BENCH_5's warm rate (the PR 6 regression fix).

The grid config is BENCH_5/BENCH_6's exactly, so the points/s figures
are directly comparable across the three reports.  Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_batched.py -m perf -q
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.store import ResultStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

GRID = dict(
    kernels=("canrdr", "matrix"),
    policies=("no-ecc", "extra-cycle"),
    scale=0.1,
    trials=12,
    batch=6,
    seed=2019,
    targets=("dl1", "l2"),
    scenarios=("isolation", "laec-worst"),
)

BATCHED = CampaignConfig(**GRID)

#: Acceptance bars, anchored to the committed baseline reports.
COLD_SPEEDUP_FLOOR = 10.0  # vs BENCH_6 sweep_cold
WARM_RATIO_FLOOR = 0.8  # vs BENCH_5 sweep_store_warm


def _baseline(report: str, name: str) -> float:
    data = json.loads((REPO_ROOT / report).read_text(encoding="utf-8"))
    for row in data["benchmarks"]:
        if row["name"] == name:
            return float(row["points_per_second"])
    raise AssertionError(f"{report} has no benchmark row {name!r}")


def _timed(label, fn):
    started = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - started
    stats = result.stats
    return result, {
        "name": label,
        "points": result.points,
        "strata": len(result.strata),
        "simulated": result.simulated,
        "store_hits": result.store_hits,
        "analytical": stats.analytical,
        "streamed": stats.streamed,
        "full": stats.full,
        "seconds": seconds,
        "points_per_second": result.points / seconds if seconds > 0 else 0.0,
    }


@pytest.mark.perf
def test_bench_batched_replay(tmp_path, write_bench_report):
    rows = []

    batched, row = _timed("sweep_cold", lambda: run_campaign(BATCHED))
    rows.append(row)

    # The replay-mode counters account for every point.
    stats = batched.stats
    assert (
        stats.analytical + stats.streamed + stats.full + stats.store_hits
        == batched.points
    )
    assert stats.analytical > 0, "triage eliminated no work on the bench grid"

    store_path = tmp_path / "bench_batched.sqlite"
    with ResultStore(store_path) as store:
        _, row = _timed(
            "sweep_store_cold",
            lambda: run_campaign(BATCHED, store=store, resume=True),
        )
        rows.append(row)
    with ResultStore(store_path) as store:
        warm, row = _timed(
            "sweep_store_warm",
            lambda: run_campaign(BATCHED, store=store, resume=True),
        )
        rows.append(row)
    assert warm.simulated == 0
    assert warm.store_hits == warm.points
    assert warm.render() == batched.render()

    by_name = {r["name"]: r for r in rows}

    bench6_cold = _baseline("BENCH_6.json", "sweep_cold")
    cold_speedup = by_name["sweep_cold"]["points_per_second"] / bench6_cold
    assert cold_speedup >= COLD_SPEEDUP_FLOOR, (
        f"batched cold sweep is only {cold_speedup:.1f}x BENCH_6 "
        f"({by_name['sweep_cold']['points_per_second']:.1f} vs "
        f"{bench6_cold:.1f} pts/s); the 10x bar is not met"
    )

    bench5_warm = _baseline("BENCH_5.json", "sweep_store_warm")
    warm_ratio = by_name["sweep_store_warm"]["points_per_second"] / bench5_warm
    assert warm_ratio >= WARM_RATIO_FLOOR, (
        f"store-warm throughput is {warm_ratio:.2f}x BENCH_5 "
        f"({by_name['sweep_store_warm']['points_per_second']:.1f} vs "
        f"{bench5_warm:.1f} pts/s); the PR 6 warm regression is back"
    )

    rows.append(
        {
            "name": "batched_vs_bench6_cold",
            "bench6_points_per_second": bench6_cold,
            "bench7_points_per_second": by_name["sweep_cold"]["points_per_second"],
            "speedup": cold_speedup,
            "floor": COLD_SPEEDUP_FLOOR,
        }
    )
    rows.append(
        {
            "name": "warm_vs_bench5",
            "bench5_points_per_second": bench5_warm,
            "bench7_points_per_second": by_name["sweep_store_warm"][
                "points_per_second"
            ],
            "ratio": warm_ratio,
            "floor": WARM_RATIO_FLOOR,
        }
    )

    write_bench_report(
        "BENCH_7.json",
        schema="repro-batched-replay-bench/1",
        config={
            "kernels": list(BATCHED.kernels),
            "policies": list(BATCHED.policies),
            "targets": list(BATCHED.targets),
            "scenarios": list(BATCHED.scenarios),
            "scale": BATCHED.scale,
            "trials_per_stratum": BATCHED.trials,
            "batch": BATCHED.batch,
            "seed": BATCHED.seed,
        },
        rows=rows,
    )

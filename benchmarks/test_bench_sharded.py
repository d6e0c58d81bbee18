"""Sharded-store parallel campaign benchmark — writes ``BENCH_9.json``.

PR 9's three serial bottlenecks, priced on BENCH_7's exact grid so the
figures are directly comparable: per-worker shard stores (no
single-writer SQLite path), worker-scaled batch windows (>=2 in-flight
groups per worker), and the timeline-delta timing triage (TIMING
outcomes proven analytically instead of streaming).  Acceptance bars:

* cold sweep at 4 workers >= 2x the 1-worker throughput — asserted
  only when the host affinity mask actually grants >= 4 CPUs (the
  numbers are recorded either way);
* the analytical-triage count strictly above BENCH_7 ``sweep_cold``'s
  (the streamed residue shrinks);
* warm resume from the shard-merged store >= 0.8x BENCH_7's
  ``sweep_store_warm``;
* summaries byte-identical at every width, and the 1- and 4-worker
  shard-merged stores byte-identical row for row (payload identity with
  the per-point ``run_injection`` reference is pinned in
  ``tests/test_batched_replay.py``).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sharded.py -m perf -q
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import time

import pytest

from conftest import effective_cpus
from repro.campaign import CampaignConfig, run_campaign
from repro.store import ResultStore
from repro.store.sharding import shard_directory

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: BENCH_5/6/7's grid, verbatim: 16 strata x 12 trials = 192 points.
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

SERIAL = CampaignConfig(**GRID)
POOLED_1 = CampaignConfig(workers=1, **GRID)
POOLED_4 = CampaignConfig(workers=4, **GRID)

#: Acceptance bars, anchored to the committed BENCH_7 baselines.
SCALING_FLOOR = 2.0  # 4-worker vs 1-worker cold, given >= 4 CPUs
WARM_RATIO_FLOOR = 0.8  # vs BENCH_7 sweep_store_warm
SCALING_MIN_CPUS = 4


def _bench7_row(name: str) -> dict:
    data = json.loads((REPO_ROOT / "BENCH_7.json").read_text(encoding="utf-8"))
    for row in data["benchmarks"]:
        if row["name"] == name:
            return row
    raise AssertionError(f"BENCH_7.json has no benchmark row {name!r}")


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


def _store_rows(path):
    with sqlite3.connect(path) as connection:
        return connection.execute(
            "SELECT key, kind, spec, payload, checksum FROM results ORDER BY key"
        ).fetchall()


@pytest.mark.perf
def test_bench_sharded_campaign(tmp_path, write_bench_report):
    rows = []

    serial, row = _timed("sweep_cold_serial", lambda: run_campaign(SERIAL))
    rows.append(row)

    one_path = tmp_path / "bench_sharded_1.sqlite"
    with ResultStore(one_path) as store:
        pooled_1, row = _timed(
            "sweep_cold_1worker",
            lambda: run_campaign(POOLED_1, store=store, resume=True),
        )
        rows.append(row)
    one_pps = row["points_per_second"]

    four_path = tmp_path / "bench_sharded_4.sqlite"
    with ResultStore(four_path) as store:
        pooled_4, row = _timed(
            "sweep_cold_4workers",
            lambda: run_campaign(POOLED_4, store=store, resume=True),
        )
        rows.append(row)
    four_pps = row["points_per_second"]

    # Identical physics at every width: the sharded pooled runs render
    # the serial run's summary byte for byte...
    assert pooled_1.render() == serial.render()
    assert pooled_4.render() == serial.render()

    # ...and persist byte-identical stores whatever the pool width.
    reference = _store_rows(one_path)
    assert reference, "1-worker store is empty"
    assert _store_rows(four_path) == reference
    # A finished campaign leaves one canonical file — no shard debris.
    assert not shard_directory(one_path).exists()
    assert not shard_directory(four_path).exists()

    # The replay-mode counters still account for every point.
    stats = pooled_4.stats
    assert (
        stats.analytical + stats.streamed + stats.full + stats.store_hits
        == pooled_4.points
    )

    # Timing triage strictly shrinks BENCH_7's streamed residue.
    bench7_cold = _bench7_row("sweep_cold")
    assert stats.analytical > int(bench7_cold["analytical"]), (
        f"analytical triage covers {stats.analytical} points, no better "
        f"than BENCH_7's {bench7_cold['analytical']}"
    )

    # Warm resume straight from the shard-merged store.
    with ResultStore(four_path) as store:
        warm, row = _timed(
            "sweep_store_warm",
            lambda: run_campaign(SERIAL, store=store, resume=True),
        )
        rows.append(row)
    assert warm.simulated == 0
    assert warm.store_hits == warm.points
    assert warm.render() == serial.render()

    bench7_warm = float(_bench7_row("sweep_store_warm")["points_per_second"])
    warm_ratio = row["points_per_second"] / bench7_warm
    assert warm_ratio >= WARM_RATIO_FLOOR, (
        f"warm resume from the shard-merged store is {warm_ratio:.2f}x "
        f"BENCH_7 ({row['points_per_second']:.1f} vs {bench7_warm:.1f} pts/s)"
    )

    # Worker scaling: only meaningful when the affinity mask actually
    # grants the pool >= 4 CPUs; on narrower hosts the figures are
    # recorded but the bar is not enforced.
    cpus = effective_cpus()
    scaling = four_pps / one_pps if one_pps > 0 else 0.0
    if cpus >= SCALING_MIN_CPUS:
        assert scaling >= SCALING_FLOOR, (
            f"4-worker cold sweep is only {scaling:.2f}x the 1-worker "
            f"rate ({four_pps:.1f} vs {one_pps:.1f} pts/s) on a "
            f"{cpus}-CPU host"
        )

    rows.append(
        {
            "name": "scaling_4w_vs_1w",
            "one_worker_points_per_second": one_pps,
            "four_worker_points_per_second": four_pps,
            "speedup": scaling,
            "floor": SCALING_FLOOR,
            "effective_cpus": cpus,
            "enforced": cpus >= SCALING_MIN_CPUS,
        }
    )
    rows.append(
        {
            "name": "analytical_vs_bench7",
            "bench7_analytical": bench7_cold["analytical"],
            "bench9_analytical": stats.analytical,
            "bench9_streamed": stats.streamed,
            "points": pooled_4.points,
        }
    )
    rows.append(
        {
            "name": "warm_vs_bench7",
            "bench7_points_per_second": bench7_warm,
            "bench9_points_per_second": row["points_per_second"],
            "ratio": warm_ratio,
            "floor": WARM_RATIO_FLOOR,
        }
    )

    write_bench_report(
        "BENCH_9.json",
        schema="repro-sharded-campaign-bench/1",
        config={
            "kernels": list(SERIAL.kernels),
            "policies": list(SERIAL.policies),
            "targets": list(SERIAL.targets),
            "scenarios": list(SERIAL.scenarios),
            "scale": SERIAL.scale,
            "trials_per_stratum": SERIAL.trials,
            "batch": SERIAL.batch,
            "seed": SERIAL.seed,
            "workers": [1, 4],
        },
        rows=rows,
    )

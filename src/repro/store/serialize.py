"""Lossless (de)serialisation of timing results for the store.

Only what the experiments consume is stored: the full statistics tree
(all plain integer counters), the DL1 statistics dictionary and the bus
counters.  The functional trace is *not* stored — it is policy
independent and reproducible from the kernel-trace cache, so callers
that need it re-attach it — and neither is the chronogram, which is why
only specs whose pipeline records no chronogram are cacheable.
"""

from __future__ import annotations

from typing import Dict

from repro.core.lookahead import LookaheadStatistics
from repro.pipeline.statistics import PipelineStatistics, StallBreakdown
from repro.pipeline.timing import PipelineResult
from repro.scenarios.spec import SimulationSpec

#: Bump when the payload shape changes.
TIMING_SCHEMA = 1

_STATS_FIELDS = (
    "instructions",
    "cycles",
    "loads",
    "stores",
    "branches",
    "taken_branches",
    "load_hits",
    "load_misses",
    "dependent_loads",
    "dependent_load_distance_1",
    "dependent_load_distance_2",
)
_STALL_FIELDS = (
    "operand_wait",
    "load_use_wait",
    "ecc_wait",
    "memory_structural",
    "dl1_miss",
    "write_buffer_full",
    "write_buffer_drain",
    "branch_redirect",
    "icache_miss",
)
_LOOKAHEAD_FIELDS = (
    "loads_seen",
    "lookaheads_taken",
    "blocked_data_hazard",
    "blocked_resource_hazard",
    "blocked_operands_late",
)


def payload_from_result(result) -> Dict[str, object]:
    """JSON-safe payload for one :class:`SimulationResult`."""
    stats = result.timing.stats
    return {
        "v": TIMING_SCHEMA,
        "program_name": result.program_name,
        "policy": result.policy.kind.value,
        "stats": {name: getattr(stats, name) for name in _STATS_FIELDS},
        "stalls": {name: getattr(stats.stalls, name) for name in _STALL_FIELDS},
        "lookahead": {
            name: getattr(stats.lookahead, name) for name in _LOOKAHEAD_FIELDS
        },
        "dl1_stats": dict(result.timing.dl1_stats),
        "bus_transactions": result.timing.bus_transactions,
        "bus_contention_cycles": result.timing.bus_contention_cycles,
    }


def result_from_payload(
    spec: SimulationSpec, payload: Dict[str, object], *, trace=None
):
    """Rebuild a :class:`SimulationResult` from a stored payload.

    ``trace`` is attached only when the caller supplies it; the
    reconstructed result is flagged ``from_store``.
    """
    from repro.simulation import SimulationResult  # local: avoids cycle

    if payload.get("v") != TIMING_SCHEMA:
        raise ValueError(f"unsupported timing payload schema {payload.get('v')!r}")
    stats = PipelineStatistics(
        stalls=StallBreakdown(**payload["stalls"]),
        lookahead=LookaheadStatistics(**payload["lookahead"]),
        **payload["stats"],
    )
    policy = spec.resolved_policy()
    timing = PipelineResult(
        policy=policy,
        stats=stats,
        dl1_stats=dict(payload["dl1_stats"]),
        bus_transactions=int(payload["bus_transactions"]),
        bus_contention_cycles=int(payload["bus_contention_cycles"]),
    )
    return SimulationResult(
        program_name=str(payload["program_name"]),
        policy=policy,
        trace=trace,
        timing=timing,
        spec=spec,
        from_store=True,
    )


def store_timing_result(store, spec: SimulationSpec, result) -> None:
    """Write one timing result under its spec's content hash.

    The single place that knows the timing payload's key/kind/provenance
    convention — every writer (``simulate_spec``'s store branch, the
    experiment runner's serial and parallel paths) goes through it.
    """
    from repro.store.canonical import canonical_json, spec_hash

    store.put(
        spec_hash(spec),
        payload_from_result(result),
        spec_json=canonical_json(spec),
        kind="timing",
    )


def cacheable(spec: SimulationSpec) -> bool:
    """Whether a spec's timing result can round-trip through the store.

    Chronogram-recording runs are excluded (per-instruction occupancy is
    not serialised), as are fault runs (their payloads live under the
    injection kind) and anonymous programs (no kernel name means the
    spec alone cannot reproduce the workload).
    """
    return (
        spec.kernel is not None
        and spec.pipeline.chronogram_window == 0
        and spec.fault is None
    )

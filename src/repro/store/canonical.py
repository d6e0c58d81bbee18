"""Canonical serialisation of :class:`SimulationSpec`.

The result store is content addressed: a result's key is the SHA-256 of
the canonical JSON form of the spec that produced it.  Canonical means

* every field is reduced to plain JSON scalars (enums to their values,
  the policy to its kind string — an :class:`EccPolicy` instance, its
  kind and its name string all canonicalise identically);
* nested configs are emitted as sorted-key objects;
* the encoding carries a schema version so future spec fields can be
  added without silently aliasing old keys.

The encoding is lossless: the tests decode it back and get an equal
spec with the same hash for every registered scenario — the property
the store's correctness rests on.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Union

from repro.core.policies import EccPolicy, EccPolicyKind, make_policy
from repro.memory.config import CacheConfig, MemoryHierarchyConfig
from repro.pipeline.config import PipelineConfig
from repro.scenarios.spec import SimulationSpec

#: Bump when the canonical encoding changes shape (old keys then simply
#: miss, which is safe — the store never aliases across versions).
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------- #
# encoding                                                               #
# ---------------------------------------------------------------------- #
def _cache_config_dict(config: CacheConfig) -> Dict[str, Any]:
    return {
        "size_bytes": config.size_bytes,
        "line_bytes": config.line_bytes,
        "ways": config.ways,
        # Every cache is LRU; the key stays so spec hashes do not move.
        "replacement": "lru",
        "write_policy": config.write_policy.value,
        "write_allocate": config.write_allocate,
        "name": config.name,
    }


def _hierarchy_dict(config: MemoryHierarchyConfig) -> Dict[str, Any]:
    return {
        "l1d": _cache_config_dict(config.l1d),
        "l1i": _cache_config_dict(config.l1i),
        "l2": _cache_config_dict(config.l2),
        "l2_hit_latency": config.l2_hit_latency,
        "bus_request_latency": config.bus_request_latency,
        "bus_transfer_latency": config.bus_transfer_latency,
        "memory_latency": config.memory_latency,
        "store_through_latency": config.store_through_latency,
        "bus_contenders": config.bus_contenders,
        "bus_contention_mode": config.bus_contention_mode,
        "bus_slot_cycles": config.bus_slot_cycles,
    }


def _pipeline_dict(config: PipelineConfig) -> Dict[str, Any]:
    return {
        "taken_branch_penalty": config.taken_branch_penalty,
        "indirect_branch_penalty": config.indirect_branch_penalty,
        "mul_latency": config.mul_latency,
        "div_latency": config.div_latency,
        "write_buffer_entries": config.write_buffer_entries,
        "chronogram_window": config.chronogram_window,
    }


def canonical_policy_value(policy: Union[str, EccPolicyKind, EccPolicy]) -> str:
    """Normalise any accepted policy form to its kind value string."""
    return make_policy(policy).kind.value


def canonical_dict(spec: SimulationSpec) -> Dict[str, Any]:
    """The canonical JSON-safe form of ``spec``."""
    interference: Optional[Dict[str, Any]] = None
    if spec.interference is not None:
        interference = {
            "name": spec.interference.name,
            "contenders": spec.interference.contenders,
            "mode": spec.interference.mode,
        }
    fault: Optional[Dict[str, Any]] = None
    if spec.fault is not None:
        fault = {
            "target": spec.fault.target,
            "word_address": spec.fault.word_address,
            "bit": spec.fault.bit,
            "at_access": spec.fault.at_access,
        }
        if spec.fault.target == "l2":
            # The outcome of an L2-targeted point depends on the L2
            # protection, which is derived from the policy (SECDED for
            # protected deployments, bare words for the unprotected
            # baseline).  Schema v1 assumed an always-SECDED L2, so the
            # code is encoded only when it deviates from that
            # assumption: every historical key stays stable, while
            # points whose semantics changed (no-ecc × l2) hash afresh
            # instead of resuming stale stored outcomes.
            code = make_policy(spec.policy).l2_code()
            if code.name != "secded":
                fault["l2_code"] = code.name
    return {
        "v": SCHEMA_VERSION,
        "kernel": spec.kernel,
        "scale": spec.scale,
        "policy": canonical_policy_value(spec.policy),
        "pipeline": _pipeline_dict(spec.pipeline),
        "hierarchy": _hierarchy_dict(spec.hierarchy),
        "interference": interference,
        # Retired spec fields (the core a task was pinned to, a
        # spec-level chronogram window): constant, so hashes do not move.
        "core_index": 0,
        "chronogram_window": 0,
        "max_instructions": spec.max_instructions,
        "fault": fault,
    }


def canonical_json(spec: SimulationSpec) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(canonical_dict(spec), sort_keys=True, separators=(",", ":"))


def spec_hash(spec: SimulationSpec) -> str:
    """Content hash of ``spec`` — the result store's primary key."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


def fault_space_key(kernel: str, scale: float) -> str:
    """Store key of one kernel's fault-sampling population at one scale.

    Hashed like a spec, from the encoding version, the kernel and the
    scale (as a float, so ``1`` and ``1.0`` share a key): a stored
    fault space goes stale exactly when the result rows sampled from it
    do.
    """
    text = json.dumps(
        {"v": SCHEMA_VERSION, "fault_space": kernel, "scale": float(scale)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

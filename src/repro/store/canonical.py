"""Canonical serialisation of :class:`SimulationSpec`.

The result store is content addressed: a result's key is the SHA-256 of
the canonical JSON form of the spec that produced it.  Canonical means

* every field is reduced to plain JSON scalars (enums to their values,
  the policy to its kind string — an :class:`EccPolicy` instance, its
  kind and its name string all canonicalise identically);
* nested configs are emitted as sorted-key objects;
* the encoding carries a schema version so future spec fields can be
  added without silently aliasing old keys;
* the scale is a float, so ``scale=1`` and ``scale=1.0`` share a key.

There is one encoder.  :class:`CanonicalTemplate` holds a spec's
fault-free text split at its fault slot, and every spec's text is that
text with its fault object's JSON spliced in — for one spec
(:func:`canonical_json`, :func:`spec_hash`) as for a whole campaign
stratum, whose points differ only in their faults and share one
template.

The encoding is lossless: the tests decode it back and get an equal
spec with the same hash for every registered scenario — the property
the store's correctness rests on.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.policies import make_policy
from repro.memory.config import CacheConfig, MemoryHierarchyConfig
from repro.pipeline.config import PipelineConfig
from repro.scenarios.spec import FaultSpec, SimulationSpec

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


def _fault_dict(
    fault: Optional[FaultSpec], l2_code: Callable[[], str]
) -> Optional[Dict[str, Any]]:
    """The canonical fault object; ``l2_code()`` names the L2's code."""
    if fault is None:
        return None
    payload: Dict[str, Any] = {
        "target": fault.target,
        "word_address": fault.word_address,
        "bit": fault.bit,
        "at_access": fault.at_access,
    }
    if fault.target == "l2":
        # The outcome of an L2-targeted point depends on the L2
        # protection, which is derived from the policy (SECDED for
        # protected deployments, bare words for the unprotected
        # baseline).  Schema v1 assumed an always-SECDED L2, so the
        # code is encoded only when it deviates from that assumption:
        # every historical key stays stable, while points whose
        # semantics changed (no-ecc × l2) hash afresh instead of
        # resuming stale stored outcomes.
        code = l2_code()
        if code != "secded":
            payload["l2_code"] = code
    return payload


def canonical_dict(spec: SimulationSpec) -> Dict[str, Any]:
    """The canonical JSON-safe form of ``spec``."""
    policy = make_policy(spec.policy)
    interference: Optional[Dict[str, Any]] = None
    if spec.interference is not None:
        interference = {
            "name": spec.interference.name,
            "contenders": spec.interference.contenders,
            "mode": spec.interference.mode,
        }
    return {
        "v": SCHEMA_VERSION,
        "kernel": spec.kernel,
        # A float, so ``scale=1`` and ``scale=1.0`` share every key.
        "scale": float(spec.scale),
        "policy": policy.kind.value,
        "pipeline": _pipeline_dict(spec.pipeline),
        "hierarchy": _hierarchy_dict(spec.hierarchy),
        "interference": interference,
        # Retired spec fields (the core a task was pinned to, a
        # spec-level chronogram window): constant, so hashes do not move.
        "core_index": 0,
        "chronogram_window": 0,
        "max_instructions": spec.max_instructions,
        "fault": _fault_dict(spec.fault, lambda: policy.l2_code().name),
    }


def _dumps(payload: Any) -> str:
    """The one JSON encoding of canonical forms: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Where the fault object sits in a fault-free spec's canonical text.
_FAULT_SLOT = '"fault":null'


class CanonicalTemplate:
    """A spec's canonical text, cut open where its fault object goes.

    Specs that differ only in ``fault`` (every point of a campaign
    stratum) share the text around it: ``head`` and ``tail`` are
    derived once, and each spec's text is ``head``, its fault object's
    JSON and ``tail`` joined.  :func:`canonical_json` and
    :func:`spec_hash` are built from the same two pieces, so there is
    one encoder.
    """

    __slots__ = ("head", "tail", "_policy", "_l2_code")

    def __init__(self, spec: SimulationSpec) -> None:
        payload = canonical_dict(spec)
        payload["fault"] = None
        # Sorted keys put the constant retired fields first, so the
        # slot's first occurrence is the top-level fault key.
        head, _slot, tail = _dumps(payload).partition(_FAULT_SLOT)
        self.head = head + '"fault":'
        self.tail = tail
        self._policy = spec.policy
        self._l2_code: Optional[str] = None

    def _l2_code_name(self) -> str:
        if self._l2_code is None:
            self._l2_code = make_policy(self._policy).l2_code().name
        return self._l2_code

    def text(self, fault: Optional[FaultSpec]) -> str:
        """The canonical JSON of this template's spec with ``fault``."""
        return self.head + _dumps(_fault_dict(fault, self._l2_code_name)) + self.tail

    def keyed(self, fault: Optional[FaultSpec]) -> Tuple[str, str]:
        """``(store key, canonical JSON)`` of this template's spec with ``fault``."""
        text = self.text(fault)
        return _key(text), text


def canonical_json(spec: SimulationSpec) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return CanonicalTemplate(spec).text(spec.fault)


def spec_hash(spec: SimulationSpec) -> str:
    """Content hash of ``spec`` — the result store's primary key."""
    return _key(canonical_json(spec))


def fault_space_key(kernel: str, scale: float) -> str:
    """Store key of one kernel's fault-sampling population at one scale.

    Hashed with the spec encoding, from the encoding version, the kernel
    and the scale.  The scale is a float here as in every spec's text, so
    ``1`` and ``1.0`` share this key and each result row's key: a stored
    fault space goes stale exactly when the result rows sampled from it
    do.
    """
    return _key(
        _dumps({"v": SCHEMA_VERSION, "fault_space": kernel, "scale": float(scale)})
    )

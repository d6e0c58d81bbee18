"""Spec canonicalisation: the property the result store's keys rest on.

Every registered scenario must round-trip
``SimulationSpec -> canonical JSON -> SimulationSpec`` to an *equal*
spec with a *stable* hash; distinct specs must hash differently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Dict, Union

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import EccPolicyKind
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.pipeline.config import PipelineConfig
from repro.scenarios import FaultSpec, SimulationSpec
from repro.scenarios.interference import InterferenceScenario
from repro.scenarios.registry import get_scenario, scenario_interference, scenario_names
from repro.scenarios.spec import FAULT_TARGETS
from repro.store.canonical import (
    SCHEMA_VERSION,
    CanonicalTemplate,
    canonical_dict,
    canonical_json,
    fault_space_key,
    spec_hash,
)


# ---------------------------------------------------------------------- #
# decoding: the inverse of the canonical encoding, which proves it lossless
# ---------------------------------------------------------------------- #
def _cache_config_from(payload: Dict[str, Any]) -> CacheConfig:
    if payload["replacement"] != "lru":
        raise ValueError(
            f"replacement {payload['replacement']!r} not supported (caches are LRU)"
        )
    return CacheConfig(
        size_bytes=payload["size_bytes"],
        line_bytes=payload["line_bytes"],
        ways=payload["ways"],
        write_policy=WritePolicy(payload["write_policy"]),
        write_allocate=payload["write_allocate"],
        name=payload["name"],
    )


def spec_from_canonical(payload: Union[str, Dict[str, Any]]) -> SimulationSpec:
    """Rebuild a :class:`SimulationSpec` from its canonical form."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    version = payload.get("v")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"canonical spec schema {version!r} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    interference = None
    if payload["interference"] is not None:
        raw = payload["interference"]
        interference = InterferenceScenario(
            name=raw["name"], contenders=raw["contenders"], mode=raw["mode"]
        )
    fault = None
    if payload["fault"] is not None:
        raw = payload["fault"]
        fault = FaultSpec(
            target=raw["target"],
            word_address=raw["word_address"],
            bit=raw["bit"],
            at_access=raw["at_access"],
        )
    hierarchy_raw = payload["hierarchy"]
    hierarchy = MemoryHierarchyConfig(
        l1d=_cache_config_from(hierarchy_raw["l1d"]),
        l1i=_cache_config_from(hierarchy_raw["l1i"]),
        l2=_cache_config_from(hierarchy_raw["l2"]),
        l2_hit_latency=hierarchy_raw["l2_hit_latency"],
        bus_request_latency=hierarchy_raw["bus_request_latency"],
        bus_transfer_latency=hierarchy_raw["bus_transfer_latency"],
        memory_latency=hierarchy_raw["memory_latency"],
        store_through_latency=hierarchy_raw["store_through_latency"],
        bus_contenders=hierarchy_raw["bus_contenders"],
        bus_contention_mode=hierarchy_raw["bus_contention_mode"],
        bus_slot_cycles=hierarchy_raw["bus_slot_cycles"],
    )
    for retired in ("core_index", "chronogram_window"):
        if payload[retired] != 0:
            raise ValueError(f"retired spec key {retired!r} must be 0")
    pipeline_raw = payload["pipeline"]
    pipeline = PipelineConfig(
        taken_branch_penalty=pipeline_raw["taken_branch_penalty"],
        indirect_branch_penalty=pipeline_raw["indirect_branch_penalty"],
        mul_latency=pipeline_raw["mul_latency"],
        div_latency=pipeline_raw["div_latency"],
        write_buffer_entries=pipeline_raw["write_buffer_entries"],
        chronogram_window=pipeline_raw["chronogram_window"],
    )
    return SimulationSpec(
        kernel=payload["kernel"],
        scale=payload["scale"],
        policy=EccPolicyKind(payload["policy"]),
        pipeline=pipeline,
        hierarchy=hierarchy,
        interference=interference,
        max_instructions=payload["max_instructions"],
        fault=fault,
    )



@pytest.mark.parametrize("name", scenario_names())
class TestScenarioRoundTrip:
    def test_round_trip_equality(self, name):
        spec = get_scenario(name)
        rebuilt = spec_from_canonical(canonical_json(spec))
        assert rebuilt == spec

    def test_hash_stable_across_round_trip(self, name):
        spec = get_scenario(name)
        rebuilt = spec_from_canonical(canonical_json(spec))
        assert spec_hash(rebuilt) == spec_hash(spec)

    def test_hash_stable_across_encodings(self, name):
        spec = get_scenario(name)
        assert canonical_json(spec) == canonical_json(
            spec_from_canonical(canonical_dict(spec))
        )


class TestHashDiscrimination:
    def test_policy_forms_hash_identically(self):
        # A policy given as string, kind or instance is the same content.
        as_string = SimulationSpec(kernel="matrix", policy="laec")
        as_kind = SimulationSpec(kernel="matrix", policy=EccPolicyKind.LAEC)
        as_instance = SimulationSpec(
            kernel="matrix", policy=as_kind.resolved_policy()
        )
        assert spec_hash(as_string) == spec_hash(as_kind) == spec_hash(as_instance)

    def test_every_field_change_changes_the_hash(self):
        base = SimulationSpec(kernel="matrix", scale=0.3, policy="laec")
        variants = [
            dataclasses.replace(base, kernel="rspeed"),
            dataclasses.replace(base, scale=0.4),
            dataclasses.replace(base, policy="no-ecc"),
            dataclasses.replace(base, pipeline=PipelineConfig(chronogram_window=8)),
            dataclasses.replace(base, max_instructions=1000),
            base.with_fault(FaultSpec(word_address=64, bit=3, at_access=5)),
        ]
        hashes = {spec_hash(spec) for spec in variants}
        hashes.add(spec_hash(base))
        assert len(hashes) == len(variants) + 1

    def test_fault_spec_round_trip(self):
        # Round-tripping normalises the policy to its EccPolicyKind, so
        # equality holds when the spec starts from the normal form.
        spec = SimulationSpec(
            kernel="canrdr",
            scale=0.1,
            policy=EccPolicyKind.EXTRA_CYCLE,
            fault=FaultSpec(target="l2", word_address=128, bit=37, at_access=12),
        )
        rebuilt = spec_from_canonical(canonical_json(spec))
        assert rebuilt == spec
        assert rebuilt.fault == spec.fault
        assert spec_hash(rebuilt) == spec_hash(spec)

    def test_fault_faults_differ(self):
        base = SimulationSpec(kernel="canrdr", policy="laec")
        one = base.with_fault(FaultSpec(word_address=64, bit=1, at_access=5))
        two = base.with_fault(FaultSpec(word_address=64, bit=2, at_access=5))
        assert spec_hash(one) != spec_hash(two)

    def test_l2_fault_encoding_carries_the_deviating_l2_code(self):
        # The outcome of an L2 point depends on the policy-derived L2
        # protection.  Schema v1 assumed an always-SECDED L2, so the
        # code appears in the canonical form only when it deviates from
        # that assumption: protected deployments (and all DL1 targets)
        # keep their historical keys, while no-ecc x l2 points — whose
        # semantics changed from "always corrected" to "silently
        # corrupts" — hash afresh instead of resuming stale outcomes.
        fault = FaultSpec(target="l2", word_address=64, bit=3, at_access=5)
        unprotected = SimulationSpec(kernel="canrdr", policy="no-ecc", fault=fault)
        protected = SimulationSpec(kernel="canrdr", policy="laec", fault=fault)
        dl1 = SimulationSpec(
            kernel="canrdr",
            policy="no-ecc",
            fault=dataclasses.replace(fault, target="dl1"),
        )
        assert canonical_dict(unprotected)["fault"]["l2_code"] == "raw"
        assert "l2_code" not in canonical_dict(protected)["fault"]
        assert "l2_code" not in canonical_dict(dl1)["fault"]
        # And the extra key round-trips to a stable hash.
        rebuilt = spec_from_canonical(canonical_json(unprotected))
        assert spec_hash(rebuilt) == spec_hash(unprotected)

    def test_l2_code_canonicalises_without_importing_the_campaign(self):
        # The store layer sits below the campaign: the policy names the
        # code each array stores, so hashing a no-ecc x l2 point (the one
        # form that encodes its L2 code) imports no campaign module.
        script = (
            "import sys\n"
            "from repro.scenarios import FaultSpec, SimulationSpec\n"
            "from repro.store.canonical import spec_hash\n"
            "fault = FaultSpec(target='l2', word_address=64, bit=3, at_access=5)\n"
            "spec_hash(SimulationSpec(kernel='canrdr', policy='no-ecc', fault=fault))\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[:2] == ['repro', 'campaign']))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = src + os.pathsep + environment.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=environment,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_schema_version_is_enforced(self):
        payload = canonical_dict(SimulationSpec(kernel="matrix"))
        payload["v"] = 99
        with pytest.raises(ValueError):
            spec_from_canonical(payload)

    def test_replacement_key_is_lru_and_nothing_else_decodes(self):
        payload = canonical_dict(SimulationSpec(kernel="matrix"))
        for level in ("l1d", "l1i", "l2"):
            assert payload["hierarchy"][level]["replacement"] == "lru"
        payload["hierarchy"]["l1d"]["replacement"] = "fifo"
        with pytest.raises(ValueError, match="fifo"):
            spec_from_canonical(payload)

    def test_retired_keys_are_constant_and_nothing_else_decodes(self):
        payload = canonical_dict(
            SimulationSpec(kernel="matrix", pipeline=PipelineConfig(chronogram_window=8))
        )
        assert payload["core_index"] == 0 and payload["chronogram_window"] == 0
        assert payload["pipeline"]["chronogram_window"] == 8
        for retired in ("core_index", "chronogram_window"):
            with pytest.raises(ValueError, match=retired):
                spec_from_canonical(dict(payload, **{retired: 1}))


#: Store keys computed before ``core_index`` and the spec-level
#: ``chronogram_window`` left the spec: every stored row must keep
#: resolving, so these literals may never change.
PINNED_HASHES = {
    "default": "5cee87c4064f448e3180e9a79ef6d3a9299cc99fe10fdd69b9d33201017c186b",
    "laec-worst": "73d8182cca75fce64b02dea977caa6b26cafffb390b6f535765533231cd5c07d",
    "dl1-point": "4b3136265822097938a1a41c709c64897bf846e5f49601591e678102d1258e15",
    "l2-point": "5802809ab46754b2a440997d21bfe354663cbbde3aaeb35bb89661673510ec0a",
    "pipeline": "9054f3fa820cd4d88b065f38052e60062956c390da2d1613cfe7e12dbaacd6ab",
}


def _pinned_specs():
    from repro.scenarios.registry import scenario_interference

    return {
        "default": SimulationSpec(),
        "laec-worst": get_scenario("laec-worst"),
        # Campaign points as the engine builds them: DL1 under a
        # contended scenario, and an unprotected L2 (the one form that
        # encodes its L2 code).
        "dl1-point": SimulationSpec(
            kernel="rspeed",
            scale=0.1,
            policy="extra-cycle",
            interference=scenario_interference("laec-worst"),
            fault=FaultSpec(target="dl1", word_address=0x1040, bit=7, at_access=23),
        ),
        "l2-point": SimulationSpec(
            kernel="rspeed",
            scale=0.1,
            policy="no-ecc",
            fault=FaultSpec(target="l2", word_address=0x2008, bit=33, at_access=5),
        ),
        "pipeline": SimulationSpec(
            kernel="matrix",
            scale=0.4,
            policy="laec",
            pipeline=PipelineConfig(
                write_buffer_entries=2, mul_latency=4, chronogram_window=12
            ),
        ),
    }


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_spec_hash_is_pinned(name):
    assert spec_hash(_pinned_specs()[name]) == PINNED_HASHES[name]


def _oracle_text(spec: SimulationSpec) -> str:
    """The canonical text as the whole-dict encoding writes it."""
    return json.dumps(canonical_dict(spec), sort_keys=True, separators=(",", ":"))


_FAULTS = st.none() | st.builds(
    FaultSpec,
    target=st.sampled_from(FAULT_TARGETS),
    word_address=st.integers(min_value=0, max_value=2**40).map(lambda word: 4 * word),
    bit=st.integers(min_value=0, max_value=2**20),
    at_access=st.integers(min_value=1, max_value=2**40),
)


class TestSplicedEncoder:
    """A stratum's keys are spliced from one fault-free text; each must be
    byte-identical to the whole spec's encoding."""

    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(list(EccPolicyKind)),
        scenario=st.sampled_from(["isolation", "laec-worst", "worst"]),
        scale=st.sampled_from([0.1, 0.4, 1.0, 1, 2]),
        kernel=st.sampled_from(["rspeed", "matrix"]),
        faults=st.lists(_FAULTS, min_size=1, max_size=4),
    )
    def test_keyed_matches_the_whole_dict_encoding(
        self, policy, scenario, scale, kernel, faults
    ):
        base = SimulationSpec(
            kernel=kernel,
            scale=scale,
            policy=policy.value,
            interference=(
                None if scenario == "isolation" else scenario_interference(scenario)
            ),
        )
        template = CanonicalTemplate(base)
        for fault in faults:
            spec = dataclasses.replace(base, fault=fault)
            oracle = _oracle_text(spec)
            key, text = template.keyed(fault)
            assert text == oracle
            assert key == hashlib.sha256(oracle.encode("utf-8")).hexdigest()
            assert canonical_json(spec) == oracle
            assert spec_hash(spec) == key

    @pytest.mark.parametrize("policy", [kind.value for kind in EccPolicyKind])
    @pytest.mark.parametrize("target", FAULT_TARGETS)
    def test_every_policy_and_target(self, policy, target):
        base = SimulationSpec(kernel="canrdr", scale=0.2, policy=policy)
        fault = FaultSpec(target=target, word_address=0xFFFF_FFFC, bit=71, at_access=10**9)
        text = CanonicalTemplate(base).text(fault)
        assert text == _oracle_text(dataclasses.replace(base, fault=fault))
        # Only the unprotected L2 deviates from schema v1's SECDED L2.
        assert ('"l2_code":"raw"' in text) == (policy == "no-ecc" and target == "l2")

    def test_fault_free_text_is_the_spec_encoding(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert CanonicalTemplate(spec).text(None) == _oracle_text(spec)


class TestScaleKeys:
    def test_integer_and_float_scale_share_every_key(self):
        fault = FaultSpec(target="dl1", word_address=0x40, bit=3, at_access=2)
        for spec_fault in (None, fault):
            as_int = SimulationSpec(kernel="rspeed", scale=1, fault=spec_fault)
            as_float = SimulationSpec(kernel="rspeed", scale=1.0, fault=spec_fault)
            assert canonical_json(as_int) == canonical_json(as_float)
            assert spec_hash(as_int) == spec_hash(as_float)
        assert fault_space_key("rspeed", 1) == fault_space_key("rspeed", 1.0)

    def test_scale_is_encoded_as_a_float(self):
        assert canonical_dict(SimulationSpec(kernel="rspeed", scale=2))["scale"] == 2.0
        assert '"scale":2.0' in canonical_json(SimulationSpec(kernel="rspeed", scale=2))

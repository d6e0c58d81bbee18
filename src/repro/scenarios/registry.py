"""Named-scenario registry.

The registry maps short, stable names to :class:`SimulationSpec`
*factories*, so campaigns, the CLI and tests can request "the
worst-contention LAEC configuration" without re-deriving the plumbing.
Factories (rather than constant specs) keep every lookup independent:
callers can freely ``replace()`` fields on what they receive.

Built-in scenarios cover the paper's evaluation matrix: each ECC policy
in isolation, plus the three interference settings of the WCET study
applied to the LAEC and WT+parity configurations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.policies import EccPolicyKind
from repro.scenarios.interference import OTHER_CORES, InterferenceScenario
from repro.scenarios.spec import SimulationSpec

ScenarioFactory = Callable[[], SimulationSpec]

_REGISTRY: Dict[str, ScenarioFactory] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register_scenario(
    name: str, factory: ScenarioFactory, *, description: str = "", replace: bool = False
) -> None:
    """Register a named scenario factory.

    ``replace=True`` allows overwriting (useful for test fixtures);
    otherwise double registration is an error, catching copy-paste slips.
    """
    key = name.strip().lower()
    if not replace and key in _REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered")
    _REGISTRY[key] = factory
    _DESCRIPTIONS[key] = description


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def scenario_description(name: str) -> str:
    return _DESCRIPTIONS.get(name.strip().lower(), "")


def scenario_interference(name: str) -> Optional[InterferenceScenario]:
    """The interference component of the named scenario.

    This is what the fault-campaign sweep grid consumes: its policy axis
    is separate, so a scenario name only contributes the contention
    setting under which the faulty runs execute.  ``None`` means the
    task runs in isolation (the historical campaign behaviour — specs
    built that way hash identically to pre-sweep campaign points, so old
    stores keep resuming).
    """
    return get_scenario(name).interference


def get_scenario(name: str, **overrides) -> SimulationSpec:
    """Build the named scenario's spec, optionally overriding fields.

    ``overrides`` are applied with :func:`dataclasses.replace`, e.g.
    ``get_scenario("laec-worst", kernel="matrix", scale=0.2)``.
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    spec = _REGISTRY[key]()
    if overrides:
        from dataclasses import replace as _replace

        spec = _replace(spec, **overrides)
    return spec


# ---------------------------------------------------------------------- #
# built-in scenarios                                                     #
# ---------------------------------------------------------------------- #
def _register_builtins() -> None:
    for kind in EccPolicyKind:
        policy = kind  # bind per iteration

        def factory(policy: EccPolicyKind = policy) -> SimulationSpec:
            return SimulationSpec(policy=policy)

        register_scenario(
            kind.value,
            factory,
            description=f"{kind.value} policy, single core, no interference",
        )

    wcet_settings = (
        ("isolation", "none", "task alone on the SoC"),
        ("average", "average", "all other cores busy, average round-robin wait"),
        (
            "worst",
            "worst",
            "all other cores busy, full round-robin round per transaction",
        ),
    )
    # Policy-agnostic interference scenarios: what the fault-campaign
    # sweep grid combines with its own policy axis.  "isolation" keeps
    # interference=None (the historical single-core campaign spec, so
    # its points hash identically to pre-sweep stores).
    register_scenario(
        "isolation",
        lambda: SimulationSpec(),
        description="task alone on the SoC, no interference (campaign default)",
    )
    for scenario_name, mode, text in wcet_settings[1:]:

        def interference_factory(
            scenario_name: str = scenario_name, mode: str = mode
        ) -> SimulationSpec:
            return SimulationSpec(
                interference=InterferenceScenario(scenario_name, OTHER_CORES, mode)
            )

        register_scenario(
            scenario_name,
            interference_factory,
            description=f"any policy with {text}",
        )

    for policy_kind, label in (
        (EccPolicyKind.LAEC, "laec"),
        (EccPolicyKind.WT_PARITY, "wt-parity"),
    ):
        for scenario_name, mode, text in wcet_settings:

            def factory(
                policy_kind: EccPolicyKind = policy_kind,
                scenario_name: str = scenario_name,
                mode: str = mode,
            ) -> SimulationSpec:
                contenders = 0 if mode == "none" else OTHER_CORES
                return SimulationSpec(
                    policy=policy_kind,
                    interference=InterferenceScenario(scenario_name, contenders, mode),
                )

            register_scenario(
                f"{label}-{scenario_name}",
                factory,
                description=f"{label} DL1 with {text}",
            )


_register_builtins()

"""Scenario-first simulation layer.

This package turns "what should be simulated" into a first-class,
declarative value: :class:`SimulationSpec` captures workload, scale, ECC
policy, pipeline and hierarchy configuration and interference in one
frozen object, and the registry names the recurring
combinations (``laec-worst``, ``wt-parity-isolation``, every single
policy, ...).

All simulation entry paths funnel through a spec — see
:func:`repro.simulation.simulate_spec` — which is what makes campaigns
shardable and cacheable: a spec is a plain value that can be compared,
hashed into cache keys, shipped to worker processes, or enumerated by a
sweep without touching any imperative plumbing.
"""

from repro.scenarios.spec import FaultSpec, SimulationSpec

__all__ = ["FaultSpec", "SimulationSpec"]

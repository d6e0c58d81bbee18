"""repro — reproduction of LAEC (DATE 2019).

LAEC: Look-Ahead Error Correction Codes in Embedded Processors L1 Data Cache.

The package provides, from the bottom up:

* :mod:`repro.isa` — a small SPARC-V8-like instruction set, assembler and
  program container used by all workloads.
* :mod:`repro.functional` — an architectural (functional) interpreter that
  produces the columnar instruction stream driving the timing model.
* :mod:`repro.ecc` — parity / Hamming / Hsiao-SECDED codecs and a fault
  injection engine.
* :mod:`repro.memory` — set-associative caches, write buffer, shared bus,
  L2 and main memory.
* :mod:`repro.pipeline` — the cycle-accurate 7/8-stage in-order pipeline
  of an NGMP/LEON4-class core, with chronogram recording and statistics.
* :mod:`repro.core` — the paper's contribution: the ECC deployment
  policies (No-ECC, Extra Cache Cycle, Extra Stage, LAEC) and the LAEC
  look-ahead unit.
* :mod:`repro.soc` — a 4-core NGMP-like SoC model with shared bus and L2.
* :mod:`repro.workloads` — EEMBC-Automotive-like kernels and synthetic
  trace generation.
* :mod:`repro.scenarios` — the declarative :class:`SimulationSpec` and
  the named-scenario registry every entry path funnels through.
* :mod:`repro.analysis` — metrics, energy/leakage model, WCET analysis
  and report rendering.
* :mod:`repro.experiments` — one module per paper table/figure plus
  ablations, unified behind the :class:`Experiment` registry served by
  the ``python -m repro`` CLI.
"""

from repro.core.policies import (
    EccPolicyKind,
    ExtraCacheCyclePolicy,
    ExtraStagePolicy,
    LaecPolicy,
    NoEccPolicy,
    WriteThroughParityPolicy,
    make_policy,
)
from repro.memory.config import CacheConfig, MemoryHierarchyConfig
from repro.pipeline.config import CoreConfig, PipelineConfig
from repro.scenarios import (
    FaultSpec,
    InterferenceScenario,
    SimulationSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.simulation import (
    SimulationResult,
    simulate_kernel,
    simulate_program,
    simulate_spec,
)

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "EccPolicyKind",
    "ExtraCacheCyclePolicy",
    "ExtraStagePolicy",
    "FaultSpec",
    "InterferenceScenario",
    "LaecPolicy",
    "MemoryHierarchyConfig",
    "NoEccPolicy",
    "PipelineConfig",
    "SimulationResult",
    "SimulationSpec",
    "WriteThroughParityPolicy",
    "get_scenario",
    "make_policy",
    "register_scenario",
    "scenario_names",
    "simulate_kernel",
    "simulate_program",
    "simulate_spec",
]

__version__ = "1.0.0"

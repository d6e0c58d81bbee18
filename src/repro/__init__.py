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
* :mod:`repro.workloads` — EEMBC-Automotive-like kernels and synthetic
  trace generation.
* :mod:`repro.scenarios` — the declarative :class:`SimulationSpec` and
  the named-scenario registry every entry path funnels through.
* :mod:`repro.analysis` — metrics, energy/leakage model and report
  rendering.
* :mod:`repro.experiments` — one module per paper table/figure plus
  ablations, listed as one row each in the catalogue the
  ``python -m repro`` CLI serves.

The top-level names are the three entry points::

    from repro import get_scenario, simulate_kernel, simulate_spec

Everything else is imported from the module that defines it.
"""

import importlib

#: The documented top-level API, resolved on first access so that
#: ``import repro`` loads no submodule.
_API = {
    "get_scenario": "repro.scenarios.registry",
    "simulate_kernel": "repro.simulation",
    "simulate_spec": "repro.simulation",
}

__all__ = sorted(_API)

__version__ = "1.0.0"


def __getattr__(name: str):
    module = _API.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)

"""Content-addressed, persistent result store.

Results are keyed by the SHA-256 of the canonical JSON form of the
:class:`~repro.scenarios.spec.SimulationSpec` that produced them — a
pure content address, so identical work is never repeated across
processes, campaign restarts or machines sharing a store file.

* :mod:`repro.store.canonical` — canonical spec encoding and hashing,
  plus the key of each kernel's stored fault space.
* :mod:`repro.store.sharding` — per-worker shard files and their
  order-independent merge.
* :mod:`repro.store.result_store` — the SQLite-backed key/JSON store
  with hit/miss accounting, and the fault spaces a resume samples from.
* :mod:`repro.store.serialize` — lossless timing-result payloads for
  the :func:`repro.simulation.simulate_spec` / experiment-runner cache.
"""

from repro.store.result_store import ResultStore

__all__ = ["ResultStore"]

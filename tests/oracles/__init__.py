"""The slow oracles of the production fast paths, and the code only they use.

Each fast path under ``src/repro`` has its seed implementation here,
kept verbatim apart from its imports, and the equivalence tests compare
the two.  Where production dropped a method only an oracle called
(``Program.instruction_at``, ``Instruction.memory_bytes``, the policy
timing contract, ``WriteBuffer.record_load_wait``), the oracle calls a
function with the same body from :mod:`oracles.isa` or
:mod:`oracles.pipeline` instead:

* :mod:`oracles.ecc` — the bit-by-bit codecs (``tests/test_ecc_equivalence.py``);
* :mod:`oracles.functional` — the object interpreter, with its
  memory (:mod:`oracles.memory`) and its registers, condition codes and
  program accessors (:mod:`oracles.isa`)
  (``tests/test_functional_simulator.py``);
* :mod:`oracles.timing` — the seed scheduling loop, with the seed
  look-ahead unit and policy timing contract (:mod:`oracles.pipeline`),
  the seed write buffer (:mod:`oracles.write_buffer`) and the seed
  memory hierarchy object graph (:mod:`oracles.hierarchy`)
  (``tests/test_timing_equivalence.py``, ``tests/test_write_buffer_equivalence.py``,
  ``tests/test_cache_equivalence.py``);
* :mod:`oracles.cache` — the object cache (``tests/test_cache_equivalence.py``);
* :mod:`oracles.campaign` — the full faulty re-execution
  (``tests/test_batched_replay.py``).

The package sits outside ``src/``, so no production module can import
it and ``setup.py`` does not ship it; ``tests/test_production_callers.py``
checks that nothing under ``src/``, ``examples/`` or ``perfbench/``
names it.  Pytest puts ``tests/`` on ``sys.path`` (the suite has no
``__init__.py``), so test modules import it as ``oracles``.
"""

"""Cache, bus-contention and write-buffer timing models.

The hierarchy mirrors the NGMP organisation used in the paper's
evaluation: each core has private L1 instruction and data caches; all
cores share a bus to a unified L2; the L2 connects to off-chip memory.
Only *timing* is modelled here: architectural data values live in the
functional interpreter.  Every cache level is a
:class:`~repro.memory.cache.SetAssociativeCache` of lazily created
:class:`~repro.memory.cache.LruSet` sets, configured by
:mod:`repro.memory.config`; the bus charge per transaction is
:class:`~repro.memory.bus.ContentionModel`'s.  One loop,
:func:`repro.pipeline.timing.memory_tape`, replays a trace through the
L1I, DL1 and L2 with main memory's open row and the bus charges in
locals; the write buffer (:mod:`repro.memory.write_buffer`) is the one
cycle-dependent model and lives in the scheduling loop.

The seed object cache and the seed hierarchy object graph (bus, L2 and
main-memory objects) are test oracles, ``tests/oracles/cache.py`` and
``tests/oracles/hierarchy.py``.
"""

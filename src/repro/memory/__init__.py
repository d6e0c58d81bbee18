"""Cache and bus-contention timing models.

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
locals.  The write buffer, the one cycle-dependent model, is a few
locals of the scheduling loop (:class:`repro.pipeline.timing.TimingPipeline`).

The seed object cache, the seed hierarchy object graph (bus, L2 and
main-memory objects) and the seed write buffer are test oracles,
``tests/oracles/cache.py``, ``tests/oracles/hierarchy.py`` and
``tests/oracles/write_buffer.py``.
"""

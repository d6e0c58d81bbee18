"""Cache and memory-hierarchy timing models.

The hierarchy mirrors the NGMP organisation used in the paper's
evaluation: each core has private L1 instruction and data caches; all
cores share a bus to a unified L2; the L2 connects to off-chip memory.
Only *timing* is modelled here: architectural data values live in the
functional interpreter.  Every cache level is a
:class:`SetAssociativeCache` of lazily created :class:`LruSet` sets; the
seed object cache is the test oracle :mod:`repro.memory.reference_cache`.
"""

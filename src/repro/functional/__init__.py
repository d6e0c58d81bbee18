"""Architectural (functional) simulation.

:func:`repro.functional.interpreter.golden_pass` interprets a
:class:`repro.isa.program.Program` with full architectural semantics and
records its *architectural stream* as a columnar
:class:`~repro.functional.interpreter.FunctionalTrace`: per retired
instruction its pc, static instruction, effective address (memory
operations) and taken flag (control transfers).  The cycle-accurate
timing model in :mod:`repro.pipeline` replays this stream (a standard
functional-first / timing-directed decomposition, as used by many
academic simulators).  The object interpreter is its test oracle,
:mod:`oracles.functional` (``tests/oracles/functional.py``).
"""

"""A small SPARC-V8-flavoured RISC instruction set.

The ISA is deliberately simple: 32 general-purpose registers (``r0`` is
hard-wired to zero, as ``%g0`` on SPARC), integer condition codes
(N/Z/V/C), word-addressed 32-bit instructions, three-operand register/
immediate arithmetic, displacement and register-indexed loads/stores, and
condition-code branches.  It is rich enough to express the EEMBC-like
kernels used by the paper's evaluation while remaining easy to assemble
and simulate cycle-accurately.

Public entry points:

* :func:`repro.isa.assembler.assemble` — assemble a source string into a
  :class:`repro.isa.program.Program`.
* :class:`repro.isa.instructions.Instruction` — decoded instruction
  record consumed by the functional and timing simulators.
"""

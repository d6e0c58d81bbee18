"""Error detection and correction codes.

The paper deploys SECDED (Single-Error-Correction, Double-Error-Detection)
in the write-back DL1 cache and contrasts it with parity-protected
write-through designs.  This package implements the actual codes at the
bit level so that the fault-injection experiments exercise the same
encode/decode/correct path a hardware implementation would:

* :class:`repro.ecc.parity.ParityCode` — single even/odd parity bit
  (detection only; what LEON3/LEON4 use in their WT DL1).
* :class:`repro.ecc.hamming.HammingSecCode` — Hamming single-error
  correction without double-error detection (included as a baseline for
  the reliability analytics; double errors are silently mis-corrected).
* :class:`repro.ecc.secded.HsiaoSecDedCode` — Hsiao odd-weight-column
  SECDED(39,32), the code assumed throughout the paper.
"""

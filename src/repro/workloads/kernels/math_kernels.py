"""Arithmetic-heavy kernels: a2time, basefp, idctrn, matrix.

* ``a2time`` — angle-to-time conversion: per tooth-wheel sample, mask the
  raw angle, look the correction factor up in a table and accumulate the
  firing time.
* ``basefp`` — emulated floating-point style arithmetic on a fixed-point
  mantissa/exponent representation (normalisation shifts + adds).
* ``idctrn`` — 8x8 inverse discrete cosine transform, row pass followed
  by column pass with multiply-accumulate over a coefficient table.
* ``matrix`` — dense matrix multiply; element addresses are produced by
  the instruction right before each load, which prevents LAEC
  anticipation (one of the four benchmarks the paper singles out).
"""

from __future__ import annotations

from repro.workloads.builder import (
    deterministic_values,
    scaled,
    sine_table,
    words_directive,
)


def build_a2time_source(scale: float = 1.0) -> str:
    """Angle-to-time conversion (a2time)."""
    samples = scaled(200, scale, minimum=8)
    repeats = scaled(6, scale, minimum=1)
    angles = deterministic_values(samples, seed=41, low=0, high=1 << 14)
    correction = deterministic_values(64, seed=42, low=1, high=1 << 8)
    return f"""
; a2time: angle-to-time conversion with a 64-entry correction table
.data
angles:
{words_directive(angles)}
correction:
{words_directive(correction)}
firing:
    .space {4 * samples}
wheel:
    .word 0, 36, 720, 0          ; accumulated_time, tooth_pitch, rev_degrees, rev_count

.text
main:
    set {repeats}, r25
repeat:
    set angles, r1
    set firing, r5
    set correction, r6
    set wheel, r7
    set {samples}, r24
sample_loop:
    ld [r1], r10                ; raw angle  (pointer bumped at loop end)
    ld [r7+4], r18              ; tooth pitch (wheel struct, batched)
    ld [r7+8], r19              ; degrees per revolution
    and r10, 4095, r11          ; wrap the angle into one revolution
    srl r10, 6, r12             ; table index from the coarse angle bits
    and r12, 63, r12
    sll r12, 2, r12
    ld [r6+r12], r13            ; correction factor (index computed above)
    smul r11, r13, r14          ; corrected angle
    sra r14, 8, r14
    smul r14, r18, r14          ; angle -> time via the tooth pitch
    sub r14, r19, r14
    ld [r7], r20                ; accumulated firing time
    add r20, r14, r20           ; accumulate the firing time
    st r20, [r7]
    st r14, [r5]
    add r5, 4, r5
    add r1, 4, r1
    subcc r24, 1, r24
    bg sample_loop
    subcc r25, 1, r25
    bg repeat
    halt
"""


def build_basefp_source(scale: float = 1.0) -> str:
    """Emulated floating-point arithmetic (basefp)."""
    samples = scaled(180, scale, minimum=8)
    repeats = scaled(6, scale, minimum=1)
    mantissas = deterministic_values(samples, seed=51, low=1, high=1 << 20)
    exponents = deterministic_values(samples, seed=52, low=0, high=16)
    return f"""
; basefp: software floating-point style mantissa/exponent arithmetic
.data
mantissas:
{words_directive(mantissas)}
exponents:
{words_directive(exponents)}
results:
    .space {4 * samples}
fpstate:
    .word 1024, 10, 127          ; running mantissa (Q10), shift, exponent bias

.text
main:
    set {repeats}, r25
repeat:
    set mantissas, r1
    set exponents, r2
    set results, r5
    set fpstate, r6
    set {samples}, r24
loop:
    ld [r1], r10                ; mantissa  (pointer walks)
    ld [r2], r11                ; exponent
    ld [r6+4], r15              ; normalisation shift (batched)
    ld [r6+8], r16              ; exponent bias
    sll r10, 1, r12             ; pre-normalise
    srl r12, r15, r12
    add r12, 1, r12             ; avoid zero mantissa
    ld [r6], r20                ; running product mantissa
    smul r20, r12, r13          ; multiply the running product
    sra r13, 10, r20
    st r20, [r6]
    sub r11, r16, r11           ; unbias the exponent
    sra r20, r11, r14           ; denormalise by the exponent
    add r14, r11, r14
    st r14, [r5]
    add r5, 4, r5
    add r1, 4, r1
    add r2, 4, r2
    subcc r24, 1, r24
    bg loop
    subcc r25, 1, r25
    bg repeat
    halt
"""


def build_idctrn_source(scale: float = 1.0) -> str:
    """8x8 inverse DCT (idctrn)."""
    blocks = scaled(3, scale, minimum=1)
    coefficients = deterministic_values(64, seed=61, low=1, high=1 << 10)
    block = sine_table(64, seed=62, amplitude=1 << 10)
    return f"""
; idctrn: 8x8 inverse DCT, row pass then column pass
.data
cosines:
{words_directive(coefficients)}
block:
{words_directive(block)}
workspace:
    .space 256

.text
main:
    set {blocks}, r25
block_loop:
    ; ---------------- row pass ----------------
    set 0, r22                  ; row index
row_loop:
    sll r22, 5, r15             ; row byte offset (8 words)
    set 0, r21                  ; column index
row_col_loop:
    set 0, r10                  ; accumulator
    set 0, r20                  ; k
row_mac_loop:
    sll r20, 2, r16             ; k byte offset
    set block, r2
    add r2, r15, r17            ; &block[row][0]   (fresh address each time)
    ld [r17+r16], r11           ; block[row][k]
    sll r21, 3, r18             ; cosine row offset
    add r18, r20, r18
    sll r18, 2, r18
    set cosines, r3
    ld [r3+r18], r12            ; cosines[col][k]
    smul r11, r12, r13
    sra r13, 8, r13
    add r10, r13, r10
    add r20, 1, r20
    cmp r20, 8
    bl row_mac_loop
    ; store workspace[row][col]
    sll r21, 2, r16
    set workspace, r4
    add r4, r15, r17
    st r10, [r17+r16]
    add r21, 1, r21
    cmp r21, 8
    bl row_col_loop
    add r22, 1, r22
    cmp r22, 8
    bl row_loop
    ; ---------------- column pass ----------------
    set 0, r22                  ; column index
col_loop:
    set 0, r21                  ; row index
col_row_loop:
    set 0, r10
    set 0, r20
col_mac_loop:
    sll r20, 5, r16             ; k row byte offset
    add r16, r22, r17
    sll r22, 2, r18
    add r16, r18, r16
    set workspace, r4
    ld [r4+r16], r11            ; workspace[k][col]
    sll r21, 3, r18
    add r18, r20, r18
    sll r18, 2, r18
    set cosines, r3
    ld [r3+r18], r12
    smul r11, r12, r13
    sra r13, 8, r13
    add r10, r13, r10
    add r20, 1, r20
    cmp r20, 8
    bl col_mac_loop
    sll r21, 5, r16
    sll r22, 2, r18
    add r16, r18, r16
    set block, r2
    st r10, [r2+r16]
    add r21, 1, r21
    cmp r21, 8
    bl col_row_loop
    add r22, 1, r22
    cmp r22, 8
    bl col_loop
    subcc r25, 1, r25
    bg block_loop
    halt
"""


def build_matrix_source(scale: float = 1.0) -> str:
    """Dense matrix multiply (matrix)."""
    size = 12
    row_stride = 1 << size.bit_length()     # rows padded to a power of two
    repeats = scaled(2, scale, minimum=1)
    a = deterministic_values(size * row_stride, seed=71, low=0, high=1 << 8)
    b = deterministic_values(size * row_stride, seed=72, low=0, high=1 << 8)
    return f"""
; matrix: {size}x{size} integer matrix multiply, C = A * B (rows padded to {row_stride})
.data
mat_a:
{words_directive(a)}
mat_b:
{words_directive(b)}
mat_c:
    .space {4 * size * row_stride}

.text
main:
    set {repeats}, r25
repeat:
    set 0, r22                  ; i
i_loop:
    set 0, r21                  ; j
j_loop:
    set 0, r10                  ; accumulator
    set 0, r20                  ; k
k_loop:
    ; A[i][k]: the (strength-reduced) index arithmetic lands right before
    ; the load, so the address register is produced by the preceding
    ; instruction and LAEC cannot anticipate it (paper Section IV-A,
    ; matrix row).
    sll r22, {size.bit_length()}, r15
    add r15, r20, r15
    sll r15, 2, r15
    set mat_a, r2
    ld [r2+r15], r11            ; A[i][k]
    sll r20, {size.bit_length()}, r16
    add r16, r21, r16
    sll r16, 2, r16
    set mat_b, r3
    ld [r3+r16], r12            ; B[k][j]
    smul r11, r12, r13
    add r10, r13, r10
    add r20, 1, r20
    cmp r20, {size}
    bl k_loop
    ; store C[i][j]
    sll r22, {size.bit_length()}, r17
    add r17, r21, r17
    sll r17, 2, r17
    set mat_c, r4
    st r10, [r4+r17]
    add r21, 1, r21
    cmp r21, {size}
    bl j_loop
    add r22, 1, r22
    cmp r22, {size}
    bl i_loop
    subcc r25, 1, r25
    bg repeat
    halt
"""

// AVX2 float32 kernels for the f32 serving fast path (DESIGN.md §6.4):
// the eight-lane gate activations, the packed-panel group kernels and
// the layer-0 row sum. Each is verified element-for-element against its
// portable float32 body (act32.go, panel.go, batch.go) in the mat
// tests.

#include "textflag.h"

// Eight-lane f32 activation kernels for the decode fleet's gates
// (act32.go holds the shared constant table ·exp32Consts and the
// bit-identical portable transcription). EXPCORE32 is the common exp
// core — clamp, round-to-nearest-even argument reduction, FMA Horner
// polynomial, exponent-field scale — operating on Y0 with BX holding
// the constant table base; it clobbers Y1-Y3. Table rows (32 bytes
// each): +0 HI, +32 LO, +64 log2(e), +96 ln2 high, +128 ln2 low,
// +160..+320 the six polynomial coefficients C5..C0, +352 1.0,
// +384 int32 127 (exponent bias), +416 the sign mask.
//
// The clamp turns every special case into ordinary arithmetic: inputs
// above HI or below LO (and NaNs, which MINPS/MAXPS resolve to the
// bound) saturate, k stays in [-126, 127], and the 2^k scale factor is
// always a normal float32.
#define EXPCORE32 \
	VMINPS 0(BX), Y0, Y0 \
	VMAXPS 32(BX), Y0, Y0 \
	VMULPS 64(BX), Y0, Y1 \
	VCVTPS2DQ Y1, Y1 \
	VCVTDQ2PS Y1, Y2 \
	VFNMADD231PS 96(BX), Y2, Y0 \
	VFNMADD231PS 128(BX), Y2, Y0 \
	VMOVUPS 160(BX), Y3 \
	VFMADD213PS 192(BX), Y0, Y3 \
	VFMADD213PS 224(BX), Y0, Y3 \
	VFMADD213PS 256(BX), Y0, Y3 \
	VFMADD213PS 288(BX), Y0, Y3 \
	VFMADD213PS 320(BX), Y0, Y3 \
	VMULPS Y0, Y0, Y2 \
	VFMADD213PS Y0, Y2, Y3 \
	VADDPS 352(BX), Y3, Y3 \
	VPADDD 384(BX), Y1, Y1 \
	VPSLLD $23, Y1, Y1 \
	VMULPS Y1, Y3, Y0

// func sigmoid32AVX2(dst, x *float32, n int)
//
// dst[i] = 1/(1+exp(-x[i])) for i in [0, n), n a positive multiple
// of 8. Negate via the sign mask, exp core, then a full-precision
// divide (no reciprocal approximation: VDIVPS rounds correctly, which
// is what the portable path computes).
TEXT ·sigmoid32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	MOVQ $·exp32Consts(SB), BX

sigloop:
	VMOVUPS (SI), Y0
	VXORPS  416(BX), Y0, Y0 // -x
	EXPCORE32
	VADDPS  352(BX), Y0, Y2 // e + 1
	VMOVUPS 352(BX), Y3
	VDIVPS  Y2, Y3, Y0      // 1 / (e + 1)
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sigloop
	VZEROUPPER
	RET

// func tanh32AVX2(dst, x *float32, n int)
//
// dst[i] = tanh(x[i]) for i in [0, n), n a positive multiple of 8,
// via e = exp(2x) and (e-1)/(e+1). The clamp inside the exp core
// saturates both tails to ±1 without special cases.
TEXT ·tanh32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	MOVQ $·exp32Consts(SB), BX

tanhloop:
	VMOVUPS (SI), Y0
	VADDPS  Y0, Y0, Y0 // 2x
	EXPCORE32
	VMOVUPS 352(BX), Y4
	VSUBPS  Y4, Y0, Y2 // e - 1
	VADDPS  Y4, Y0, Y3 // e + 1
	VDIVPS  Y3, Y2, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     tanhloop
	VZEROUPPER
	RET

// Packed-panel f32 group kernels (DESIGN.md §6.5): the eight-lane
// counterparts of gemmPacked16AVX2/gemmPacked4AVX2. Each sweeps a group
// of one to three consecutive j-tiles of a packed panel across all m
// activation rows with sequential panel loads, every tile's
// accumulators in registers at once, matching mulAddTile's separate
// multiply-then-add rounding.

// S32STEP is one k step of one 32-column tile: the panel row at P times
// the broadcast a[i][kk] in Y12, into accumulators A0-A3; P advances
// one 128-byte panel row.
#define S32STEP(P, A0, A1, A2, A3) \
	VMULPS (P), Y12, Y13   \
	VADDPS Y13, A0, A0     \
	VMULPS 32(P), Y12, Y14 \
	VADDPS Y14, A1, A1     \
	VMULPS 64(P), Y12, Y15 \
	VADDPS Y15, A2, A2     \
	VMULPS 96(P), Y12, Y13 \
	VADDPS Y13, A3, A3     \
	ADDQ   $128, P

#define S32LOAD(off, A0, A1, A2, A3) \
	VMOVUPS off(DI), A0    \
	VMOVUPS off+32(DI), A1 \
	VMOVUPS off+64(DI), A2 \
	VMOVUPS off+96(DI), A3

#define S32STORE(off, A0, A1, A2, A3) \
	VMOVUPS A0, off(DI)    \
	VMOVUPS A1, off+32(DI) \
	VMOVUPS A2, off+64(DI) \
	VMOVUPS A3, off+96(DI)

// SROWSTART resets the per-row cursors: R13, R14 and R11 at the group's
// first, second and third tile (R12 bytes apart), AX at &a[i][0], R8 =
// the k countdown.
#define SROWSTART \
	MOVQ DX, R13          \
	LEAQ (DX)(R12*1), R14 \
	LEAQ (DX)(R12*2), R11 \
	MOVQ SI, AX           \
	MOVQ R9, R8

// SROWEND steps to the next dst row (R10 bytes on) and a row (k*4
// bytes on) and loops to label while rows remain.
#define SROWEND(label) \
	ADDQ R10, DI        \
	LEAQ (SI)(R9*4), SI \
	DECQ CX             \
	JNZ  label

// func gemmPacked32AVX2(dst, a, p *float32, m, k, n, tiles int)
//
// dst[i*n + j] += Σ_kk a[i*k + kk] * p[t*k*32 + kk*32 + j%32], t = j/32,
// for i in [0, m), j in [0, 32·tiles), tiles in [1, 3]. dst row stride
// n*4 bytes; a rows contiguous (k*4 bytes); p is the group's tiles,
// k×32 each, back to back. m and k must be positive.
TEXT ·gemmPacked32AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ tiles+48(FP), BX
	SHLQ $2, R10 // dst row stride, bytes
	MOVQ R9, R12
	SHLQ $7, R12 // tile stride in the panel, k*128 bytes
	CMPQ BX, $2
	JLT  sp32t1
	JEQ  sp32t2

sp32t3:
	S32LOAD(0, Y0, Y1, Y2, Y3)
	S32LOAD(128, Y4, Y5, Y6, Y7)
	S32LOAD(256, Y8, Y9, Y10, Y11)
	SROWSTART

sp32k3:
	VBROADCASTSS (AX), Y12
	S32STEP(R13, Y0, Y1, Y2, Y3)
	S32STEP(R14, Y4, Y5, Y6, Y7)
	S32STEP(R11, Y8, Y9, Y10, Y11)
	ADDQ         $4, AX
	DECQ         R8
	JNZ          sp32k3
	S32STORE(0, Y0, Y1, Y2, Y3)
	S32STORE(128, Y4, Y5, Y6, Y7)
	S32STORE(256, Y8, Y9, Y10, Y11)
	SROWEND(sp32t3)
	VZEROUPPER
	RET

sp32t2:
	S32LOAD(0, Y0, Y1, Y2, Y3)
	S32LOAD(128, Y4, Y5, Y6, Y7)
	SROWSTART

sp32k2:
	VBROADCASTSS (AX), Y12
	S32STEP(R13, Y0, Y1, Y2, Y3)
	S32STEP(R14, Y4, Y5, Y6, Y7)
	ADDQ         $4, AX
	DECQ         R8
	JNZ          sp32k2
	S32STORE(0, Y0, Y1, Y2, Y3)
	S32STORE(128, Y4, Y5, Y6, Y7)
	SROWEND(sp32t2)
	VZEROUPPER
	RET

sp32t1:
	S32LOAD(0, Y0, Y1, Y2, Y3)
	SROWSTART

sp32k1:
	VBROADCASTSS (AX), Y12
	S32STEP(R13, Y0, Y1, Y2, Y3)
	ADDQ         $4, AX
	DECQ         R8
	JNZ          sp32k1
	S32STORE(0, Y0, Y1, Y2, Y3)
	SROWEND(sp32t1)
	VZEROUPPER
	RET

// S8STEP is S32STEP for an 8-column tile: one accumulator, 32-byte
// panel rows.
#define S8STEP(P, A) \
	VMULPS (P), Y12, Y13 \
	VADDPS Y13, A, A     \
	ADDQ   $32, P

// func gemmPacked8AVX2(dst, a, p *float32, m, k, n, tiles int)
//
// gemmPacked32AVX2 over a group of 8-column narrow tiles (k×8 each,
// 32-byte panel rows), tiles in [1, 3].
TEXT ·gemmPacked8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ tiles+48(FP), BX
	SHLQ $2, R10 // dst row stride, bytes
	MOVQ R9, R12
	SHLQ $5, R12 // tile stride in the panel, k*32 bytes
	CMPQ BX, $2
	JLT  sp8t1
	JEQ  sp8t2

sp8t3:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	SROWSTART

sp8k3:
	VBROADCASTSS (AX), Y12
	S8STEP(R13, Y0)
	S8STEP(R14, Y1)
	S8STEP(R11, Y2)
	ADDQ         $4, AX
	DECQ         R8
	JNZ          sp8k3
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	SROWEND(sp8t3)
	VZEROUPPER
	RET

sp8t2:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	SROWSTART

sp8k2:
	VBROADCASTSS (AX), Y12
	S8STEP(R13, Y0)
	S8STEP(R14, Y1)
	ADDQ         $4, AX
	DECQ         R8
	JNZ          sp8k2
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	SROWEND(sp8t2)
	VZEROUPPER
	RET

sp8t1:
	VMOVUPS (DI), Y0
	SROWSTART

sp8k1:
	VBROADCASTSS (AX), Y12
	S8STEP(R13, Y0)
	ADDQ         $4, AX
	DECQ         R8
	JNZ          sp8k1
	VMOVUPS      Y0, (DI)
	SROWEND(sp8t1)
	VZEROUPPER
	RET

// func rowSum32AVX2(dst, x, b *float32, n int, idx *uint8, cnt int)
//
// The layer-0 row-sum kernel (DESIGN.md §6.2): dst[j] += Σ_e x[k]·b[k*n+j],
// k = idx[e] for e ascending in [0, cnt), over columns [0, n&^7), in
// 96-column blocks of twelve accumulators, then 32- and 8-column blocks.
// A block stays in registers across the whole list. A term whose x[k]
// is exactly 1.0 is a bare VADDPS; any other is VMULPS then VADDPS, never
// FMA. cnt must be positive.
TEXT ·rowSum32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R10
	MOVQ R10, R11 // R11 = (n &^ 7) * 4: column limit, bytes
	ANDQ $-8, R11
	SHLQ $2, R11
	SHLQ $2, R10  // R10 = n*4: b row stride, bytes
	XORQ BX, BX   // j, bytes

srj96:
	LEAQ 384(BX), AX
	CMPQ AX, R11
	JGT  srj32
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	VMOVUPS 128(DI)(BX*1), Y4
	VMOVUPS 160(DI)(BX*1), Y5
	VMOVUPS 192(DI)(BX*1), Y6
	VMOVUPS 224(DI)(BX*1), Y7
	VMOVUPS 256(DI)(BX*1), Y8
	VMOVUPS 288(DI)(BX*1), Y9
	VMOVUPS 320(DI)(BX*1), Y10
	VMOVUPS 352(DI)(BX*1), Y11
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    idx+32(FP), R8
	MOVQ    cnt+40(FP), R9

srk96:
	MOVBLZX (R8), AX
	LEAQ    (SI)(AX*4), CX // &x[k]
	IMULQ   R10, AX
	ADDQ    R13, AX         // &b[k][j]
	CMPL    (CX), $0x3F800000 // bits of 1.0
	JNE     srm96
	VADDPS  (AX), Y0, Y0
	VADDPS  32(AX), Y1, Y1
	VADDPS  64(AX), Y2, Y2
	VADDPS  96(AX), Y3, Y3
	VADDPS  128(AX), Y4, Y4
	VADDPS  160(AX), Y5, Y5
	VADDPS  192(AX), Y6, Y6
	VADDPS  224(AX), Y7, Y7
	VADDPS  256(AX), Y8, Y8
	VADDPS  288(AX), Y9, Y9
	VADDPS  320(AX), Y10, Y10
	VADDPS  352(AX), Y11, Y11

srn96:
	INCQ R8
	DECQ R9
	JNZ  srk96
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	VMOVUPS Y4, 128(DI)(BX*1)
	VMOVUPS Y5, 160(DI)(BX*1)
	VMOVUPS Y6, 192(DI)(BX*1)
	VMOVUPS Y7, 224(DI)(BX*1)
	VMOVUPS Y8, 256(DI)(BX*1)
	VMOVUPS Y9, 288(DI)(BX*1)
	VMOVUPS Y10, 320(DI)(BX*1)
	VMOVUPS Y11, 352(DI)(BX*1)
	ADDQ    $384, BX
	JMP     srj96

srm96:
	VBROADCASTSS (CX), Y12
	VMULPS       (AX), Y12, Y13
	VADDPS       Y13, Y0, Y0
	VMULPS       32(AX), Y12, Y14
	VADDPS       Y14, Y1, Y1
	VMULPS       64(AX), Y12, Y13
	VADDPS       Y13, Y2, Y2
	VMULPS       96(AX), Y12, Y14
	VADDPS       Y14, Y3, Y3
	VMULPS       128(AX), Y12, Y13
	VADDPS       Y13, Y4, Y4
	VMULPS       160(AX), Y12, Y14
	VADDPS       Y14, Y5, Y5
	VMULPS       192(AX), Y12, Y13
	VADDPS       Y13, Y6, Y6
	VMULPS       224(AX), Y12, Y14
	VADDPS       Y14, Y7, Y7
	VMULPS       256(AX), Y12, Y13
	VADDPS       Y13, Y8, Y8
	VMULPS       288(AX), Y12, Y14
	VADDPS       Y14, Y9, Y9
	VMULPS       320(AX), Y12, Y13
	VADDPS       Y13, Y10, Y10
	VMULPS       352(AX), Y12, Y14
	VADDPS       Y14, Y11, Y11
	JMP          srn96

srj32:
	LEAQ 128(BX), AX
	CMPQ AX, R11
	JGT  srj8
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    idx+32(FP), R8
	MOVQ    cnt+40(FP), R9

srk32:
	MOVBLZX (R8), AX
	LEAQ    (SI)(AX*4), CX // &x[k]
	IMULQ   R10, AX
	ADDQ    R13, AX         // &b[k][j]
	CMPL    (CX), $0x3F800000 // bits of 1.0
	JNE     srm32
	VADDPS  (AX), Y0, Y0
	VADDPS  32(AX), Y1, Y1
	VADDPS  64(AX), Y2, Y2
	VADDPS  96(AX), Y3, Y3

srn32:
	INCQ R8
	DECQ R9
	JNZ  srk32
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     srj32

srm32:
	VBROADCASTSS (CX), Y12
	VMULPS       (AX), Y12, Y13
	VADDPS       Y13, Y0, Y0
	VMULPS       32(AX), Y12, Y14
	VADDPS       Y14, Y1, Y1
	VMULPS       64(AX), Y12, Y13
	VADDPS       Y13, Y2, Y2
	VMULPS       96(AX), Y12, Y14
	VADDPS       Y14, Y3, Y3
	JMP          srn32

srj8:
	LEAQ 32(BX), AX
	CMPQ AX, R11
	JGT  srdone
	VMOVUPS (DI)(BX*1), Y0
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    idx+32(FP), R8
	MOVQ    cnt+40(FP), R9

srk8:
	MOVBLZX (R8), AX
	LEAQ    (SI)(AX*4), CX // &x[k]
	IMULQ   R10, AX
	ADDQ    R13, AX         // &b[k][j]
	CMPL    (CX), $0x3F800000 // bits of 1.0
	JNE     srm8
	VADDPS  (AX), Y0, Y0

srn8:
	INCQ R8
	DECQ R9
	JNZ  srk8
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     srj8

srm8:
	VBROADCASTSS (CX), Y12
	VMULPS       (AX), Y12, Y13
	VADDPS       Y13, Y0, Y0
	JMP          srn8

srdone:
	VZEROUPPER
	RET

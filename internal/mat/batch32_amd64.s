// AVX2 float32 GEMM kernel for the f32 serving fast path (DESIGN.md
// §6.4): an eight-lane transcription of the float64 gemmAVX2 schedule —
// 32-column register tiles with an 8-column cleanup tile, k innermost
// and ascending — with separate VMULPS+VADDPS, matching the portable
// fallback's plain float32 multiply-then-add rounding. Verified
// element-for-element against that fallback in mat32_test.go.

#include "textflag.h"

// func gemm32AVX2(dst, a, b *float32, m, k, n int)
//
// dst[i][j] += sum_k a[i][k]*b[k][j] over columns [0, n&^7), with
// 32-column register tiles and an 8-column cleanup tile. The k loop is
// innermost and ascending, and every product feeds a separate add.
TEXT ·gemm32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10

	TESTQ CX, CX
	JLE   sgdone
	TESTQ R9, R9
	JLE   sgdone

	MOVQ R10, R11 // R11 = (n &^ 7) * 4: 8-wide column limit, bytes
	ANDQ $-8, R11
	SHLQ $2, R11
	MOVQ R10, R12 // R12 = (n &^ 31) * 4: 32-wide column limit, bytes
	ANDQ $-32, R12
	SHLQ $2, R12
	SHLQ $2, R10  // R10 = n*4: dst/b row stride, bytes

sgrowi:
	XORQ BX, BX // j, bytes

sgj32:
	CMPQ BX, R12
	JGE  sgj8
	VMOVUPS (DI)(BX*1), Y0
	VMOVUPS 32(DI)(BX*1), Y1
	VMOVUPS 64(DI)(BX*1), Y2
	VMOVUPS 96(DI)(BX*1), Y3
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    SI, AX          // &a[i][0]
	MOVQ    R9, R8          // k countdown

sgk32:
	VBROADCASTSS (AX), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R13), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(R13), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(R13), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, AX
	ADDQ         R10, R13
	DECQ         R8
	JNZ          sgk32
	VMOVUPS      Y0, (DI)(BX*1)
	VMOVUPS      Y1, 32(DI)(BX*1)
	VMOVUPS      Y2, 64(DI)(BX*1)
	VMOVUPS      Y3, 96(DI)(BX*1)
	ADDQ         $128, BX
	JMP          sgj32

sgj8:
	CMPQ BX, R11
	JGE  sgrowiend
	VMOVUPS (DI)(BX*1), Y0
	LEAQ    (DX)(BX*1), R13
	MOVQ    SI, AX
	MOVQ    R9, R8

sgk8:
	VBROADCASTSS (AX), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, AX
	ADDQ         R10, R13
	DECQ         R8
	JNZ          sgk8
	VMOVUPS      Y0, (DI)(BX*1)
	ADDQ         $32, BX
	JMP          sgj8

sgrowiend:
	ADDQ R10, DI        // next dst row
	LEAQ (SI)(R9*4), SI // next a row
	DECQ CX
	JNZ  sgrowi

sgdone:
	VZEROUPPER
	RET

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

// Packed-panel f32 tile kernels (DESIGN.md §6.5): the eight-lane
// counterparts of gemmPacked16AVX2/gemmPacked4AVX2. Each processes ONE
// j-tile of a packed panel across all m activation rows with sequential
// panel loads, matching mulAddTile's separate
// multiply-then-add rounding.

// func gemmPacked32AVX2(dst, a, p *float32, m, k, n int)
//
// dst[i*n + j] += Σ_kk a[i*k + kk] * p[kk*32 + j] for i in [0, m),
// j in [0, 32). dst row stride n*4 bytes; a rows contiguous (k*4
// bytes); p is one k×32 panel tile (rows 128 bytes apart, sequential).
TEXT ·gemmPacked32AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R10 // dst row stride, bytes

sp32row:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    DX, R13 // panel cursor, reset per row
	MOVQ    SI, AX  // &a[i][0]
	MOVQ    R9, R8  // k countdown

sp32k:
	VBROADCASTSS (AX), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R13), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(R13), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(R13), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, AX
	ADDQ         $128, R13
	DECQ         R8
	JNZ          sp32k
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         R10, DI        // next dst row
	LEAQ         (SI)(R9*4), SI // next a row
	DECQ         CX
	JNZ          sp32row
	VZEROUPPER
	RET

// func gemmPacked8AVX2(dst, a, p *float32, m, k, n int)
//
// The 8-column narrow-tile variant: one YMM accumulator, panel rows
// 32 bytes apart.
TEXT ·gemmPacked8AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	SHLQ $2, R10

sp8row:
	VMOVUPS (DI), Y0
	MOVQ    DX, R13
	MOVQ    SI, AX
	MOVQ    R9, R8

sp8k:
	VBROADCASTSS (AX), Y4
	VMULPS       (R13), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, AX
	ADDQ         $32, R13
	DECQ         R8
	JNZ          sp8k
	VMOVUPS      Y0, (DI)
	ADDQ         R10, DI
	LEAQ         (SI)(R9*4), SI
	DECQ         CX
	JNZ          sp8row
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

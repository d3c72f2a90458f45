// AVX2 kernels for the continuous-batching decode path (DESIGN.md
// §6.2). Every kernel is bit-identical to its portable reference and is
// verified against it element-for-element in batch_test.go:
//
//   - gemmAVX2 accumulates each dst element's k terms in ascending
//     order with separate VMULPD+VADDPD. No FMA: the scalar reference
//     rounds the product and the sum separately, and fusing them would
//     change low bits.
//
//   - expAVX2 is a four-lane transcription of math.Exp's amd64 FMA
//     path (exp_amd64.s, the Shibata/SLEEF reduction): the same FMA
//     reduction, polynomial, squaring chain and ldexp product,
//     instruction for instruction. A vector whose lanes all have |x| <=
//     708 takes none of the scalar code's branches and runs only that;
//     any other vector also runs those branches (overflow, underflow,
//     the two-step denormal ldexp, NaN, ±Inf) as masked blends. It is
//     used only when the CPU also makes math.Exp take the FMA path (see
//     haveBatchASM), so the two always agree. sigmoidAVX2 and tanhAVX2
//     fuse 1/(1+Exp(-x)) and math.Tanh around the same body.
//
//   - lstmCellAVX2 is a whole LSTM cell for all rows of a decode step:
//     the bias add, those two bodies over the gate segments, and the
//     c / h updates in separate VMULPD and VADDPD.

#include "textflag.h"

// func cpuHasAVX2FMA() bool
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<12 | 1<<27 | 1<<28), BX
	CMPL BX, $(1<<12 | 1<<27 | 1<<28)
	JNE  nosupport

	// XGETBV(0) — OS enabled XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  nosupport

	// CPUID.(7,0):EBX — AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   nosupport

	MOVB $1, ret+0(FP)
	RET

nosupport:
	MOVB $0, ret+0(FP)
	RET

// func gemmAVX2(dst, a, b *float64, m, k, n int)
//
// dst[i][j] += sum_k a[i][k]*b[k][j] over columns [0, n&^3), with
// 16-column register tiles and a 4-column cleanup tile. The k loop is
// innermost and ascending, and every product feeds a separate add.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10

	TESTQ CX, CX
	JLE   gdone
	TESTQ R9, R9
	JLE   gdone

	MOVQ R10, R11 // R11 = (n &^ 3) * 8: 4-wide column limit, bytes
	ANDQ $-4, R11
	SHLQ $3, R11
	MOVQ R10, R12 // R12 = (n &^ 15) * 8: 16-wide column limit, bytes
	ANDQ $-16, R12
	SHLQ $3, R12
	SHLQ $3, R10  // R10 = n*8: dst/b row stride, bytes

growi:
	XORQ BX, BX // j, bytes

gj16:
	CMPQ BX, R12
	JGE  gj4
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    SI, AX          // &a[i][0]
	MOVQ    R9, R8          // k countdown

gk16:
	VBROADCASTSD (AX), Y4
	VMULPD       (R13), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R13), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R13), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R13), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, AX
	ADDQ         R10, R13
	DECQ         R8
	JNZ          gk16
	VMOVUPD      Y0, (DI)(BX*1)
	VMOVUPD      Y1, 32(DI)(BX*1)
	VMOVUPD      Y2, 64(DI)(BX*1)
	VMOVUPD      Y3, 96(DI)(BX*1)
	ADDQ         $128, BX
	JMP          gj16

gj4:
	CMPQ BX, R11
	JGE  growiend
	VMOVUPD (DI)(BX*1), Y0
	LEAQ    (DX)(BX*1), R13
	MOVQ    SI, AX
	MOVQ    R9, R8

gk4:
	VBROADCASTSD (AX), Y4
	VMULPD       (R13), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, AX
	ADDQ         R10, R13
	DECQ         R8
	JNZ          gk4
	VMOVUPD      Y0, (DI)(BX*1)
	ADDQ         $32, BX
	JMP          gj4

growiend:
	ADDQ R10, DI        // next dst row
	LEAQ (SI)(R9*8), SI // next a row
	DECQ CX
	JNZ  growi

gdone:
	VZEROUPPER
	RET

// Broadcast constant table for expAVX2: each 32-byte row is one
// float64 (or int64) replicated four times. The float values are the
// exact constants of math's exp_amd64.s.
DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920    // LOG2E
DATA expc<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA expc<>+32(SB)/8, $7.09782712893384e+02                   // Overflow
DATA expc<>+40(SB)/8, $7.09782712893384e+02
DATA expc<>+48(SB)/8, $7.09782712893384e+02
DATA expc<>+56(SB)/8, $7.09782712893384e+02
DATA expc<>+64(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expc<>+72(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+80(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+88(SB)/8, $0.69314718055966295651160180568695068359375
DATA expc<>+96(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expc<>+104(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+112(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+120(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA expc<>+128(SB)/8, $0.0625
DATA expc<>+136(SB)/8, $0.0625
DATA expc<>+144(SB)/8, $0.0625
DATA expc<>+152(SB)/8, $0.0625
DATA expc<>+160(SB)/8, $2.4801587301587301587e-5
DATA expc<>+168(SB)/8, $2.4801587301587301587e-5
DATA expc<>+176(SB)/8, $2.4801587301587301587e-5
DATA expc<>+184(SB)/8, $2.4801587301587301587e-5
DATA expc<>+192(SB)/8, $1.9841269841269841270e-4
DATA expc<>+200(SB)/8, $1.9841269841269841270e-4
DATA expc<>+208(SB)/8, $1.9841269841269841270e-4
DATA expc<>+216(SB)/8, $1.9841269841269841270e-4
DATA expc<>+224(SB)/8, $1.3888888888888888889e-3
DATA expc<>+232(SB)/8, $1.3888888888888888889e-3
DATA expc<>+240(SB)/8, $1.3888888888888888889e-3
DATA expc<>+248(SB)/8, $1.3888888888888888889e-3
DATA expc<>+256(SB)/8, $8.3333333333333333333e-3
DATA expc<>+264(SB)/8, $8.3333333333333333333e-3
DATA expc<>+272(SB)/8, $8.3333333333333333333e-3
DATA expc<>+280(SB)/8, $8.3333333333333333333e-3
DATA expc<>+288(SB)/8, $4.1666666666666666667e-2
DATA expc<>+296(SB)/8, $4.1666666666666666667e-2
DATA expc<>+304(SB)/8, $4.1666666666666666667e-2
DATA expc<>+312(SB)/8, $4.1666666666666666667e-2
DATA expc<>+320(SB)/8, $1.6666666666666666667e-1
DATA expc<>+328(SB)/8, $1.6666666666666666667e-1
DATA expc<>+336(SB)/8, $1.6666666666666666667e-1
DATA expc<>+344(SB)/8, $1.6666666666666666667e-1
DATA expc<>+352(SB)/8, $0.5
DATA expc<>+360(SB)/8, $0.5
DATA expc<>+368(SB)/8, $0.5
DATA expc<>+376(SB)/8, $0.5
DATA expc<>+384(SB)/8, $1.0
DATA expc<>+392(SB)/8, $1.0
DATA expc<>+400(SB)/8, $1.0
DATA expc<>+408(SB)/8, $1.0
DATA expc<>+416(SB)/8, $2.0
DATA expc<>+424(SB)/8, $2.0
DATA expc<>+432(SB)/8, $2.0
DATA expc<>+440(SB)/8, $2.0
DATA expc<>+448(SB)/8, $0x3FF // exponent bias
DATA expc<>+456(SB)/8, $0x3FF
DATA expc<>+464(SB)/8, $0x3FF
DATA expc<>+472(SB)/8, $0x3FF
DATA expc<>+480(SB)/8, $1 // for biased <= 0 as 1 > biased
DATA expc<>+488(SB)/8, $1
DATA expc<>+496(SB)/8, $1
DATA expc<>+504(SB)/8, $1
DATA expc<>+512(SB)/8, $-52 // deepest representable denormal shift
DATA expc<>+520(SB)/8, $-52
DATA expc<>+528(SB)/8, $-52
DATA expc<>+536(SB)/8, $-52
DATA expc<>+544(SB)/8, $0x7FE // for biased >= 0x7FF as biased > 0x7FE
DATA expc<>+552(SB)/8, $0x7FE
DATA expc<>+560(SB)/8, $0x7FE
DATA expc<>+568(SB)/8, $0x7FE
DATA expc<>+576(SB)/8, $0x3FE // bias-1 for the denormal two-step
DATA expc<>+584(SB)/8, $0x3FE
DATA expc<>+592(SB)/8, $0x3FE
DATA expc<>+600(SB)/8, $0x3FE
DATA expc<>+608(SB)/8, $0x0010000000000000 // bits of 2^-1022
DATA expc<>+616(SB)/8, $0x0010000000000000
DATA expc<>+624(SB)/8, $0x0010000000000000
DATA expc<>+632(SB)/8, $0x0010000000000000
DATA expc<>+640(SB)/8, $0x7FF0000000000000 // +Inf
DATA expc<>+648(SB)/8, $0x7FF0000000000000
DATA expc<>+656(SB)/8, $0x7FF0000000000000
DATA expc<>+664(SB)/8, $0x7FF0000000000000
DATA expc<>+672(SB)/4, $0x00000000 // -Inf (split to fit the int range)
DATA expc<>+676(SB)/4, $0xFFF00000
DATA expc<>+680(SB)/4, $0x00000000
DATA expc<>+684(SB)/4, $0xFFF00000
DATA expc<>+688(SB)/4, $0x00000000
DATA expc<>+692(SB)/4, $0xFFF00000
DATA expc<>+696(SB)/4, $0x00000000
DATA expc<>+700(SB)/4, $0xFFF00000
GLOBL expc<>+0(SB), RODATA, $704

// Scalar constants of the activation kernels, broadcast into registers
// before each loop (the 32-byte rows of expc<> are the memory operands).
DATA actc<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF // abs mask
DATA actc<>+8(SB)/8, $708.0              // fast-path bound on |x|
DATA actc<>+16(SB)/4, $0x00000000        // sign mask (split to fit the int range)
DATA actc<>+20(SB)/4, $0x80000000
DATA actc<>+24(SB)/8, $0.625                      // math.Tanh's polynomial cutoff
DATA actc<>+32(SB)/8, $44.014845965556527147994   // 0.5*MAXLOG, its saturation cutoff
DATA actc<>+40(SB)/8, $-9.64399179425052238628e-1 // tanhP[0..2]
DATA actc<>+48(SB)/8, $-9.92877231001918586564e1
DATA actc<>+56(SB)/8, $-1.61468768441708447952e3
DATA actc<>+64(SB)/8, $1.12811678491632931402e2   // tanhQ[0..2]
DATA actc<>+72(SB)/8, $2.23548839060100448583e3
DATA actc<>+80(SB)/8, $4.84406305325125486048e3
GLOBL actc<>+0(SB), RODATA, $88

// EXPCORE is archExp's FMA path between its tests on x and its stores,
// with no branch taken, four lanes at a time: Y0 = x in; Y0 = f =
// exp(x - k·ln2), Y7 = biased = k+1023 (int64 lanes) and Y11 = f·2^k
// out; clobbers Y1-Y3 and Y13. Argument reduction k = round(x·log2(e))
// by the split-constant FNMAs and r /= 16, the FMA Horner Taylor
// polynomial, exp(r)-1 through the squaring chain f = f*(f+2) four
// times (the last fused with the final +1), and the scalar code's
// lastStep product f * float64frombits(biased<<52).
#define EXPCORE \
	VMULPD       expc<>+0(SB), Y0, Y1 \
	VCVTPD2DQY   Y1, X13 \
	VCVTDQ2PD    X13, Y3 \
	VFNMADD231PD expc<>+64(SB), Y3, Y0 \
	VFNMADD231PD expc<>+96(SB), Y3, Y0 \
	VMULPD       expc<>+128(SB), Y0, Y0 \
	VMOVUPD      expc<>+160(SB), Y1 \
	VFMADD213PD  expc<>+192(SB), Y0, Y1 \
	VFMADD213PD  expc<>+224(SB), Y0, Y1 \
	VFMADD213PD  expc<>+256(SB), Y0, Y1 \
	VFMADD213PD  expc<>+288(SB), Y0, Y1 \
	VFMADD213PD  expc<>+320(SB), Y0, Y1 \
	VFMADD213PD  expc<>+352(SB), Y0, Y1 \
	VFMADD213PD  expc<>+384(SB), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       expc<>+416(SB), Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       expc<>+416(SB), Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       expc<>+416(SB), Y0, Y2 \
	VMULPD       Y2, Y0, Y0 \
	VADDPD       expc<>+416(SB), Y0, Y2 \
	VFMADD213PD  expc<>+384(SB), Y2, Y0 \
	VPMOVSXDQ    X13, Y7 \
	VPADDQ       expc<>+448(SB), Y7, Y7 \
	VPSLLQ       $52, Y7, Y11 \
	VMULPD       Y11, Y0, Y11

// EXPNORMAL is the whole of Exp for a vector whose lanes are all normal:
// x in Y0 gives Exp(x) in Y11 by EXPCORE and nothing else. It keeps x in
// Y12 for EXPSLOW and leaves "every lane has |x| <= 708" in the flags
// (EQ when so; Y14 = abs mask, Y15 = 708). The test is false for NaN
// and ±Inf and bounds k to [-1021, 1021]; f is in [0.70, 1.42], so
// biased is in [2, 2044] and f·2^k is a normal number: archExp takes
// none of its branches on any lane. On NE the caller runs EXPSLOW, which
// overwrites the lanes that needed one.
#define EXPNORMAL \
	VMOVAPD   Y0, Y12 \
	VANDPD    Y14, Y0, Y1 \
	VCMPPD    $18, Y15, Y1, Y1 \
	VMOVMSKPD Y1, AX \
	EXPCORE \
	CMPL      AX, $15

// EXPSLOW finishes a vector with a lane outside [-708, 708] the way the
// scalar code's branches do, as masked blends over EXPNORMAL's result
// (Y0 = f, Y7 = biased, Y11 = the lastStep product, Y12 = x; clobbers
// Y2-Y4 and Y7-Y10). Lanes with biased > 0x7FE overflow to +Inf; lanes
// with biased <= 0 rescale through the scalar code's two-step denormal
// product, underflowing to 0 below biased = -52. Then the tests archExp
// makes on x itself, in its precedence order: x > Overflow (+Inf, which
// also catches +Inf itself), x == -Inf (0), and NaN (x unchanged,
// payload kept) last.
//
// The denormal product is computed only here because it is speculative
// on every lane: at k = 4 the first factor's bits (k+2045)<<52 wrap into
// the sign bit and read -2^-1022, so with f < 1 (x in [2.43, 2.77)) the
// product f·(-2^-1022) really is denormal — a microcode assist on every
// such vector while this body ran unconditionally.
#define EXPSLOW \
	VMOVDQU   expc<>+480(SB), Y8 \
	VPCMPGTQ  Y7, Y8, Y8 \
	VMOVDQU   expc<>+512(SB), Y9 \
	VPCMPGTQ  Y7, Y9, Y9 \
	VPCMPGTQ  expc<>+544(SB), Y7, Y10 \
	VPADDQ    expc<>+576(SB), Y7, Y7 \
	VPSLLQ    $52, Y7, Y7 \
	VMULPD    Y7, Y0, Y7 \
	VMULPD    expc<>+608(SB), Y7, Y7 \
	VBLENDVPD Y8, Y7, Y11, Y11 \
	VXORPD    Y2, Y2, Y2 \
	VBLENDVPD Y9, Y2, Y11, Y11 \
	VMOVUPD   expc<>+640(SB), Y3 \
	VBLENDVPD Y10, Y3, Y11, Y11 \
	VCMPPD    $30, expc<>+32(SB), Y12, Y4 \
	VBLENDVPD Y4, Y3, Y11, Y11 \
	VCMPPD    $0, expc<>+672(SB), Y12, Y4 \
	VBLENDVPD Y4, Y2, Y11, Y11 \
	VCMPPD    $3, Y12, Y12, Y4 \
	VBLENDVPD Y4, Y12, Y11, Y11

// func expAVX2(dst, x *float64, n int)
//
// dst[i] = Exp(x[i]) for i in [0, n), n a positive multiple of 4.
TEXT ·expAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD actc<>+0(SB), Y14
	VBROADCASTSD actc<>+8(SB), Y15

eloop:
	VMOVUPD (SI), Y0
	EXPNORMAL
	JNE     eslow

estore:
	VMOVUPD Y11, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     eloop
	VZEROUPPER
	RET

eslow:
	EXPSLOW
	JMP estore

// func sigmoidAVX2(dst, x *float64, n int)
//
// dst[i] = 1/(1+Exp(-x[i])) for i in [0, n), n a positive multiple of
// 4: the sign flip, expAVX2's body on -x, then VADDPD and a correctly
// rounded VDIVPD, as the scalar expression rounds.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD actc<>+0(SB), Y14
	VBROADCASTSD actc<>+8(SB), Y15
	VBROADCASTSD actc<>+16(SB), Y5
	VMOVUPD      expc<>+384(SB), Y6

sloop:
	VXORPD (SI), Y5, Y0 // -x
	EXPNORMAL
	JNE    sslow

sstore:
	VADDPD  Y6, Y11, Y11 // 1 + e
	VDIVPD  Y11, Y6, Y11 // 1 / (1 + e)
	VMOVUPD Y11, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sloop
	VZEROUPPER
	RET

sslow:
	EXPSLOW
	JMP sstore

// TANHBODY is math.Tanh (the pure-Go one: amd64 has no assembly tanh) on
// four lanes: x in Y12 gives Tanh(x) in Y0; clobbers Y1-Y3, Y7, Y11 and
// Y13, and reads Y14 = abs mask, Y15 = 708, Y4-Y6 = tanhP[0..2] and
// Y8-Y10 = tanhQ[0..2]. Its three branches are evaluated on every lane
// and blended, with VMULPD/VADDPD wherever it multiplies and adds (the
// compiler does not fuse them) and its one division per element as ONE
// VDIVPD over the blended operands q = 2/(s+1) or x·s2·P(s2)/Q(s2): 1-q
// where |x| >= 0.625 (s = Exp(2|x|)), x+q below it (NaN lanes land here
// and come out NaN), 1 above 0.5·MAXLOG, and x's sign bit ORed onto all
// three — which is "z = -z if x < 0" for the first and last, restores
// Tanh(-0) = -0 (x+q is +0 there) and changes nothing else. Exp runs on
// min(2|x|, 708), which is 708 for NaN and 2|x| itself wherever s is used
// (2|x| <= MAXLOG), so every lane is normal: EXPCORE alone, no test, no
// EXPSLOW.
#define TANHBODY \
	VANDPD       Y14, Y12, Y0 \
	VADDPD       Y0, Y0, Y0 \
	VMINPD       Y15, Y0, Y0 \
	EXPCORE \
	VANDPD       Y14, Y12, Y13 \
	VMULPD       Y12, Y12, Y1 \
	VMULPD       Y1, Y4, Y2 \
	VADDPD       Y5, Y2, Y2 \
	VMULPD       Y1, Y2, Y2 \
	VADDPD       Y6, Y2, Y2 \
	VADDPD       Y8, Y1, Y3 \
	VMULPD       Y1, Y3, Y3 \
	VADDPD       Y9, Y3, Y3 \
	VMULPD       Y1, Y3, Y3 \
	VADDPD       Y10, Y3, Y3 \
	VMULPD       Y1, Y12, Y1 \
	VMULPD       Y2, Y1, Y1 \
	VBROADCASTSD actc<>+24(SB), Y2 \
	VCMPPD       $29, Y2, Y13, Y2 \
	VADDPD       expc<>+384(SB), Y11, Y11 \
	VBLENDVPD    Y2, Y11, Y3, Y3 \
	VBLENDVPD    Y2, expc<>+416(SB), Y1, Y1 \
	VDIVPD       Y3, Y1, Y1 \
	VADDPD       Y1, Y12, Y3 \
	VMOVUPD      expc<>+384(SB), Y7 \
	VSUBPD       Y1, Y7, Y0 \
	VBLENDVPD    Y2, Y0, Y3, Y0 \
	VBROADCASTSD actc<>+32(SB), Y3 \
	VCMPPD       $30, Y3, Y13, Y3 \
	VBLENDVPD    Y3, Y7, Y0, Y0 \
	VANDNPD      Y12, Y14, Y1 \
	VORPD        Y1, Y0, Y0

// TANHCONSTS loads TANHBODY's polynomial coefficients.
#define TANHCONSTS \
	VBROADCASTSD actc<>+40(SB), Y4 \
	VBROADCASTSD actc<>+48(SB), Y5 \
	VBROADCASTSD actc<>+56(SB), Y6 \
	VBROADCASTSD actc<>+64(SB), Y8 \
	VBROADCASTSD actc<>+72(SB), Y9 \
	VBROADCASTSD actc<>+80(SB), Y10

// func tanhAVX2(dst, x *float64, n int)
//
// dst[i] = math.Tanh(x[i]) for i in [0, n), n a positive multiple of 4.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $2, CX
	VBROADCASTSD actc<>+0(SB), Y14
	VBROADCASTSD actc<>+8(SB), Y15
	TANHCONSTS

tloop:
	VMOVUPD (SI), Y12
	TANHBODY
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     tloop
	VZEROUPPER
	RET

// func lstmCellAVX2(z, b, c, h *float64, m, hd int)
//
// Everything between a layer's recurrent GEMM and the next layer, for m
// rows of gate pre-activations z (4·hd wide, gate order i, f, g, o),
// cell state c and hidden output h (hd wide), hd a positive multiple of
// 4, m positive. Per row: z += b, then sigmoidAVX2's loop over [0, 2·hd)
// and again over [3·hd, 4·hd), TANHBODY over [2·hd, 3·hd) — z is left
// holding the activated gates — then c = (f·c) + (i·g) and h = o·Tanh(c),
// each a separate VMULPD / VADDPD in the Go loop's operand grouping (no
// FMA outside EXPCORE). For finite inputs that is, bit for bit,
// AddBiasRows + SigmoidSlice / TanhSlice + LSTMCell's portable loops.
// Which payload survives when two NaNs meet in (f·c) + (i·g) or z + b is
// the hardware's first-operand rule here and the compiler's operand
// order there — not a contract; a NaN stays a NaN in both.
//
// The g-gate tanh and the cell tanh are separate loops on purpose:
// chained in one iteration the ~250-cycle dependency no longer fits the
// reorder window and consecutive vectors stop overlapping. A row is
// finished before the next starts, so it stays in L1 across the loops.
TEXT ·lstmCellAVX2(SB), NOSPLIT, $0-48
	MOVQ         z+0(FP), DI
	MOVQ         b+8(FP), SI
	MOVQ         c+16(FP), DX
	MOVQ         h+24(FP), R8
	MOVQ         m+32(FP), CX
	MOVQ         hd+40(FP), R9
	SHLQ         $3, R9 // one gate segment, bytes
	VBROADCASTSD actc<>+0(SB), Y14
	VBROADCASTSD actc<>+8(SB), Y15

crow:
	// The sigmoid and tanh constants share Y5 and Y6 (EXPSLOW clobbers the
	// rest), so each row reloads them.
	VBROADCASTSD actc<>+16(SB), Y5
	VMOVUPD      expc<>+384(SB), Y6
	XORQ         BX, BX          // column, bytes
	LEAQ         (R9)(R9*1), R10 // segment end: 2·hd, then 4·hd

csig:
	VMOVUPD (DI)(BX*1), Y0
	VADDPD  (SI)(BX*1), Y0, Y0
	VXORPD  Y5, Y0, Y0 // -(z + b)
	EXPNORMAL
	JNE     csigslow

csigstore:
	VADDPD  Y6, Y11, Y11 // 1 + e
	VDIVPD  Y11, Y6, Y11 // 1 / (1 + e)
	VMOVUPD Y11, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R10
	JLT     csig
	LEAQ    (R9)(R9*2), BX  // the o gate starts at 3·hd
	CMPQ    R10, BX         // below it: that was [0, 2·hd), run [3·hd, 4·hd)
	LEAQ    (BX)(R9*1), R10 // (LEAQ leaves the flags alone)
	JLT     csig

	TANHCONSTS
	LEAQ (R9)(R9*1), BX
	LEAQ (BX)(R9*1), R10

cg:
	VMOVUPD (DI)(BX*1), Y12
	VADDPD  (SI)(BX*1), Y12, Y12
	TANHBODY
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R10
	JLT     cg

	XORQ BX, BX
	LEAQ (DI)(R9*1), R11  // f
	LEAQ (R11)(R9*1), R12 // g
	LEAQ (R12)(R9*1), R13 // o

cc:
	VMOVUPD (R11)(BX*1), Y0
	VMULPD  (DX)(BX*1), Y0, Y0  // f·c
	VMOVUPD (DI)(BX*1), Y1
	VMULPD  (R12)(BX*1), Y1, Y1 // i·g
	VADDPD  Y1, Y0, Y12
	VMOVUPD Y12, (DX)(BX*1)
	TANHBODY
	VMULPD  (R13)(BX*1), Y0, Y0 // o·Tanh(c)
	VMOVUPD Y0, (R8)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R9
	JLT     cc

	LEAQ (DI)(R9*4), DI
	ADDQ R9, DX
	ADDQ R9, R8
	DECQ CX
	JNZ  crow
	VZEROUPPER
	RET

csigslow:
	EXPSLOW
	JMP csigstore

// Packed-panel group kernels (DESIGN.md §6.5). Each sweeps a group of
// one to three consecutive j-tiles of a packed weight panel across all
// m activation rows. The tiles of a group sit back to back in the panel
// (k×16 or k×4 each, k-major) and their columns are adjacent in dst, so
// one call holds all of the group's accumulators in registers at once:
// at one activation row a 16-column tile alone is four dependent add
// chains, and three tiles are twelve that overlap. The accumulation
// schedule is gemmAVX2's — k innermost and ascending, separate
// VMULPD+VADDPD per term — so neither packing nor grouping can change a
// single output bit.

// P16STEP is one k step of one 16-column tile: the panel row at P times
// the broadcast a[i][kk] in Y12, into accumulators A0-A3 (Y13-Y15 are
// the product temporaries); P advances one 128-byte panel row.
#define P16STEP(P, A0, A1, A2, A3) \
	VMULPD (P), Y12, Y13   \
	VADDPD Y13, A0, A0     \
	VMULPD 32(P), Y12, Y14 \
	VADDPD Y14, A1, A1     \
	VMULPD 64(P), Y12, Y15 \
	VADDPD Y15, A2, A2     \
	VMULPD 96(P), Y12, Y13 \
	VADDPD Y13, A3, A3     \
	ADDQ   $128, P

// P16LOAD and P16STORE move one 16-column tile's accumulators A0-A3
// from and to the dst row at DI, off bytes in.
#define P16LOAD(off, A0, A1, A2, A3) \
	VMOVUPD off(DI), A0    \
	VMOVUPD off+32(DI), A1 \
	VMOVUPD off+64(DI), A2 \
	VMOVUPD off+96(DI), A3

#define P16STORE(off, A0, A1, A2, A3) \
	VMOVUPD A0, off(DI)    \
	VMOVUPD A1, off+32(DI) \
	VMOVUPD A2, off+64(DI) \
	VMOVUPD A3, off+96(DI)

// PROWSTART resets the per-row cursors: R13, R14 and R11 at the group's
// first, second and third tile (R12 bytes apart), AX at &a[i][0], R8 =
// the k countdown.
#define PROWSTART \
	MOVQ DX, R13           \
	LEAQ (DX)(R12*1), R14  \
	LEAQ (DX)(R12*2), R11  \
	MOVQ SI, AX            \
	MOVQ R9, R8

// PROWEND steps to the next dst row (R10 bytes on) and a row (k*8
// bytes on) and loops to label while rows remain.
#define PROWEND(label) \
	ADDQ R10, DI          \
	LEAQ (SI)(R9*8), SI   \
	DECQ CX               \
	JNZ  label

// func gemmPacked16AVX2(dst, a, p *float64, m, k, n, tiles int)
//
// dst[i*n + j] += Σ_kk a[i*k + kk] * p[t*k*16 + kk*16 + j%16], t = j/16,
// for i in [0, m), j in [0, 16·tiles), tiles in [1, 3]. dst is addressed
// at the group's first column (row stride n*8 bytes); a rows are
// contiguous (stride k*8 bytes); p is the group's tiles, k×16 each, back
// to back. m and k must be positive.
TEXT ·gemmPacked16AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ tiles+48(FP), BX
	SHLQ $3, R10 // dst row stride, bytes
	MOVQ R9, R12
	SHLQ $7, R12 // tile stride in the panel, k*128 bytes
	CMPQ BX, $2
	JLT  p16t1
	JEQ  p16t2

p16t3:
	P16LOAD(0, Y0, Y1, Y2, Y3)
	P16LOAD(128, Y4, Y5, Y6, Y7)
	P16LOAD(256, Y8, Y9, Y10, Y11)
	PROWSTART

p16k3:
	VBROADCASTSD (AX), Y12
	P16STEP(R13, Y0, Y1, Y2, Y3)
	P16STEP(R14, Y4, Y5, Y6, Y7)
	P16STEP(R11, Y8, Y9, Y10, Y11)
	ADDQ         $8, AX
	DECQ         R8
	JNZ          p16k3
	P16STORE(0, Y0, Y1, Y2, Y3)
	P16STORE(128, Y4, Y5, Y6, Y7)
	P16STORE(256, Y8, Y9, Y10, Y11)
	PROWEND(p16t3)
	VZEROUPPER
	RET

p16t2:
	P16LOAD(0, Y0, Y1, Y2, Y3)
	P16LOAD(128, Y4, Y5, Y6, Y7)
	PROWSTART

p16k2:
	VBROADCASTSD (AX), Y12
	P16STEP(R13, Y0, Y1, Y2, Y3)
	P16STEP(R14, Y4, Y5, Y6, Y7)
	ADDQ         $8, AX
	DECQ         R8
	JNZ          p16k2
	P16STORE(0, Y0, Y1, Y2, Y3)
	P16STORE(128, Y4, Y5, Y6, Y7)
	PROWEND(p16t2)
	VZEROUPPER
	RET

p16t1:
	P16LOAD(0, Y0, Y1, Y2, Y3)
	PROWSTART

p16k1:
	VBROADCASTSD (AX), Y12
	P16STEP(R13, Y0, Y1, Y2, Y3)
	ADDQ         $8, AX
	DECQ         R8
	JNZ          p16k1
	P16STORE(0, Y0, Y1, Y2, Y3)
	PROWEND(p16t1)
	VZEROUPPER
	RET

// P4STEP is P16STEP for a 4-column tile: one accumulator, 32-byte panel
// rows.
#define P4STEP(P, A) \
	VMULPD (P), Y12, Y13 \
	VADDPD Y13, A, A     \
	ADDQ   $32, P

// func gemmPacked4AVX2(dst, a, p *float64, m, k, n, tiles int)
//
// gemmPacked16AVX2 over a group of 4-column narrow tiles (k×4 each,
// 32-byte panel rows), tiles in [1, 3].
TEXT ·gemmPacked4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), DX
	MOVQ m+24(FP), CX
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ tiles+48(FP), BX
	SHLQ $3, R10 // dst row stride, bytes
	MOVQ R9, R12
	SHLQ $5, R12 // tile stride in the panel, k*32 bytes
	CMPQ BX, $2
	JLT  p4t1
	JEQ  p4t2

p4t3:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	PROWSTART

p4k3:
	VBROADCASTSD (AX), Y12
	P4STEP(R13, Y0)
	P4STEP(R14, Y1)
	P4STEP(R11, Y2)
	ADDQ         $8, AX
	DECQ         R8
	JNZ          p4k3
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	PROWEND(p4t3)
	VZEROUPPER
	RET

p4t2:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	PROWSTART

p4k2:
	VBROADCASTSD (AX), Y12
	P4STEP(R13, Y0)
	P4STEP(R14, Y1)
	ADDQ         $8, AX
	DECQ         R8
	JNZ          p4k2
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	PROWEND(p4t2)
	VZEROUPPER
	RET

p4t1:
	VMOVUPD (DI), Y0
	PROWSTART

p4k1:
	VBROADCASTSD (AX), Y12
	P4STEP(R13, Y0)
	ADDQ         $8, AX
	DECQ         R8
	JNZ          p4k1
	VMOVUPD      Y0, (DI)
	PROWEND(p4t1)
	VZEROUPPER
	RET

// func rowSumAVX2(dst, x, b *float64, n int, idx *uint8, cnt int)
//
// The layer-0 row-sum kernel (DESIGN.md §6.2): dst[j] += Σ_e x[k]·b[k*n+j],
// k = idx[e] for e ascending in [0, cnt), over columns [0, n&^3), in
// 48-column blocks of twelve accumulators, then 16- and 4-column blocks.
// A block stays in registers across the whole list. A term whose x[k]
// is exactly 1.0 is a bare VADDPD; any other is VMULPD then VADDPD, never
// FMA. cnt must be positive.
TEXT ·rowSumAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), R10
	MOVQ $0x3FF0000000000000, R12 // bits of 1.0
	MOVQ R10, R11 // R11 = (n &^ 3) * 8: column limit, bytes
	ANDQ $-4, R11
	SHLQ $3, R11
	SHLQ $3, R10  // R10 = n*8: b row stride, bytes
	XORQ BX, BX   // j, bytes

rj48:
	LEAQ 384(BX), AX
	CMPQ AX, R11
	JGT  rj16
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	VMOVUPD 128(DI)(BX*1), Y4
	VMOVUPD 160(DI)(BX*1), Y5
	VMOVUPD 192(DI)(BX*1), Y6
	VMOVUPD 224(DI)(BX*1), Y7
	VMOVUPD 256(DI)(BX*1), Y8
	VMOVUPD 288(DI)(BX*1), Y9
	VMOVUPD 320(DI)(BX*1), Y10
	VMOVUPD 352(DI)(BX*1), Y11
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    idx+32(FP), R8
	MOVQ    cnt+40(FP), R9

rk48:
	MOVBLZX (R8), AX
	LEAQ    (SI)(AX*8), CX // &x[k]
	IMULQ   R10, AX
	ADDQ    R13, AX         // &b[k][j]
	CMPQ    (CX), R12
	JNE     rm48
	VADDPD  (AX), Y0, Y0
	VADDPD  32(AX), Y1, Y1
	VADDPD  64(AX), Y2, Y2
	VADDPD  96(AX), Y3, Y3
	VADDPD  128(AX), Y4, Y4
	VADDPD  160(AX), Y5, Y5
	VADDPD  192(AX), Y6, Y6
	VADDPD  224(AX), Y7, Y7
	VADDPD  256(AX), Y8, Y8
	VADDPD  288(AX), Y9, Y9
	VADDPD  320(AX), Y10, Y10
	VADDPD  352(AX), Y11, Y11

rn48:
	INCQ R8
	DECQ R9
	JNZ  rk48
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	VMOVUPD Y4, 128(DI)(BX*1)
	VMOVUPD Y5, 160(DI)(BX*1)
	VMOVUPD Y6, 192(DI)(BX*1)
	VMOVUPD Y7, 224(DI)(BX*1)
	VMOVUPD Y8, 256(DI)(BX*1)
	VMOVUPD Y9, 288(DI)(BX*1)
	VMOVUPD Y10, 320(DI)(BX*1)
	VMOVUPD Y11, 352(DI)(BX*1)
	ADDQ    $384, BX
	JMP     rj48

rm48:
	VBROADCASTSD (CX), Y12
	VMULPD       (AX), Y12, Y13
	VADDPD       Y13, Y0, Y0
	VMULPD       32(AX), Y12, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       64(AX), Y12, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       96(AX), Y12, Y14
	VADDPD       Y14, Y3, Y3
	VMULPD       128(AX), Y12, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(AX), Y12, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(AX), Y12, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       224(AX), Y12, Y14
	VADDPD       Y14, Y7, Y7
	VMULPD       256(AX), Y12, Y13
	VADDPD       Y13, Y8, Y8
	VMULPD       288(AX), Y12, Y14
	VADDPD       Y14, Y9, Y9
	VMULPD       320(AX), Y12, Y13
	VADDPD       Y13, Y10, Y10
	VMULPD       352(AX), Y12, Y14
	VADDPD       Y14, Y11, Y11
	JMP          rn48

rj16:
	LEAQ 128(BX), AX
	CMPQ AX, R11
	JGT  rj4
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    idx+32(FP), R8
	MOVQ    cnt+40(FP), R9

rk16:
	MOVBLZX (R8), AX
	LEAQ    (SI)(AX*8), CX // &x[k]
	IMULQ   R10, AX
	ADDQ    R13, AX         // &b[k][j]
	CMPQ    (CX), R12
	JNE     rm16
	VADDPD  (AX), Y0, Y0
	VADDPD  32(AX), Y1, Y1
	VADDPD  64(AX), Y2, Y2
	VADDPD  96(AX), Y3, Y3

rn16:
	INCQ R8
	DECQ R9
	JNZ  rk16
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     rj16

rm16:
	VBROADCASTSD (CX), Y12
	VMULPD       (AX), Y12, Y13
	VADDPD       Y13, Y0, Y0
	VMULPD       32(AX), Y12, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       64(AX), Y12, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       96(AX), Y12, Y14
	VADDPD       Y14, Y3, Y3
	JMP          rn16

rj4:
	LEAQ 32(BX), AX
	CMPQ AX, R11
	JGT  rdone
	VMOVUPD (DI)(BX*1), Y0
	LEAQ    (DX)(BX*1), R13 // &b[0][j]
	MOVQ    idx+32(FP), R8
	MOVQ    cnt+40(FP), R9

rk4:
	MOVBLZX (R8), AX
	LEAQ    (SI)(AX*8), CX // &x[k]
	IMULQ   R10, AX
	ADDQ    R13, AX         // &b[k][j]
	CMPQ    (CX), R12
	JNE     rm4
	VADDPD  (AX), Y0, Y0

rn4:
	INCQ R8
	DECQ R9
	JNZ  rk4
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     rj4

rm4:
	VBROADCASTSD (CX), Y12
	VMULPD       (AX), Y12, Y13
	VADDPD       Y13, Y0, Y0
	JMP          rn4

rdone:
	VZEROUPPER
	RET

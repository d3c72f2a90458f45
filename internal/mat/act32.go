package mat

import "math"

// Native float32 gate activations for the f32 serving fast path
// (DESIGN.md §6.4). The f32 decode fleet's sigmoid and tanh run here at
// eight lanes per YMM register instead of widening each gate row to
// float64 and paying the four-lane f64 exp — the activation share of a
// decode step drops from over half the step to a sliver.
//
// Determinism contract: the assembly kernels and the portable scalar
// path below are bit-identical. Both execute the same operation
// sequence — clamp, round-to-nearest-even reduction, FMA Horner
// polynomial, exponent-field scale — with every fused multiply-add on
// the portable path reproduced exactly by fma32. The clamp bounds are
// chosen so the scale factor is always a normal float32: no overflow,
// underflow, or denormal branches exist in either path. These kernels
// use FMA (like the f64 expAVX2); the GEMMs that feed them never do.
//
// Accuracy: the reduced-range polynomial is Cephes' expf (~2 ulp), so
// sigmoid and tanh land within a few float32 ulps of the correctly
// rounded value — far inside the published f32 decode tolerances
// (core.ValidateF32 measures the end-to-end effect per snapshot).

// The exp32 constant set. exp32HI/exp32LO clamp the argument so the
// scaled exponent k stays in [-126, 127]: the 2^k scale factor is
// always a normal float32 and the top end cannot overflow. The final
// multiply may still graze the denormal range at the very bottom —
// identically on both paths, since it is the same single multiply.
const (
	exp32HI    float32 = 88.02969193111305  // ln(2^127)
	exp32LO    float32 = -87.33654475055310 // ln(2^-126)
	exp32LOG2E float32 = 1.44269504088896341
	exp32LN2H  float32 = 0.693359375 // ln2 high split (Cephes)
	exp32LN2L  float32 = -2.12194440054690583e-4
	exp32C5    float32 = 1.9875691500e-4
	exp32C4    float32 = 1.3981999507e-3
	exp32C3    float32 = 8.3334519073e-3
	exp32C2    float32 = 4.1665795894e-2
	exp32C1    float32 = 1.6666665459e-1
	exp32C0    float32 = 5.0000001201e-1
)

// exp32Consts is the broadcast constant table the assembly kernels
// load from: one 8-lane row (32 bytes) per constant, in the order of
// the offsets documented in batch32_amd64.s. Sharing one table between
// the assembly and the portable constants above is what guarantees the
// two paths agree bit-for-bit. The last two rows are integer bit
// patterns (the exponent bias and the sign mask) stored through
// Float32frombits.
var exp32Consts [14 * 8]float32

func init() {
	cs := [...]float32{
		exp32HI, exp32LO, exp32LOG2E, exp32LN2H, exp32LN2L,
		exp32C5, exp32C4, exp32C3, exp32C2, exp32C1, exp32C0,
		1.0,
		math.Float32frombits(127),        // exponent bias, as int32 lanes
		math.Float32frombits(0x80000000), // sign mask
	}
	for i, c := range cs {
		for j := 0; j < 8; j++ {
			exp32Consts[i*8+j] = c
		}
	}
}

// minps32 and maxps32 reproduce the exact MINPS/MAXPS lane semantics
// (result is b when the comparison is unordered, i.e. on NaN), so the
// portable clamp matches the vector clamp on every input.
func minps32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxps32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// exp32 is the portable scalar transcription of the assembly exp core:
// same clamp, same VCVTPS2DQ round-to-nearest-even reduction, same FMA
// Horner polynomial (via fma32), same exponent-field scale.
func exp32(x float32) float32 {
	x = maxps32(minps32(x, exp32HI), exp32LO)
	kf := x * exp32LOG2E
	ki := int32(math.RoundToEven(float64(kf)))
	k := float32(ki)
	r := fma32(-k, exp32LN2H, x)
	r = fma32(-k, exp32LN2L, r)
	z := exp32C5
	z = fma32(z, r, exp32C4)
	z = fma32(z, r, exp32C3)
	z = fma32(z, r, exp32C2)
	z = fma32(z, r, exp32C1)
	z = fma32(z, r, exp32C0)
	rr := r * r
	y := fma32(z, rr, r) + 1
	return y * math.Float32frombits(uint32(ki+127)<<23)
}

func sigmoid32(x float32) float32 { return 1 / (1 + exp32(-x)) }

func tanh32(x float32) float32 {
	e := exp32(x + x)
	return (e - 1) / (e + 1)
}

// SigmoidSlice32 sets dst[i] = 1/(1+exp(-x[i])) in float32 for every i,
// bit-identical across the AVX2 and portable paths. dst and x may alias
// exactly.
func SigmoidSlice32(dst, x []float32) {
	if len(dst) != len(x) {
		panic("mat: SigmoidSlice32 length mismatch")
	}
	i := 0
	if useBatchASM {
		if n8 := len(x) &^ 7; n8 > 0 {
			sigmoid32AVX2(&dst[0], &x[0], n8)
			i = n8
		}
	}
	for ; i < len(x); i++ {
		dst[i] = sigmoid32(x[i])
	}
}

// TanhSlice32 sets dst[i] = tanh(x[i]) in float32 via exp(2x),
// bit-identical across the AVX2 and portable paths. dst and x may alias
// exactly.
func TanhSlice32(dst, x []float32) {
	if len(dst) != len(x) {
		panic("mat: TanhSlice32 length mismatch")
	}
	i := 0
	if useBatchASM {
		if n8 := len(x) &^ 7; n8 > 0 {
			tanh32AVX2(&dst[0], &x[0], n8)
			i = n8
		}
	}
	for ; i < len(x); i++ {
		dst[i] = tanh32(x[i])
	}
}

package mat

import "math"

// Float32 scalar helpers of the f32 serving fast path (DESIGN.md §6.4);
// the f32 matrix type and GEMM kernels are the float32 instantiations
// of the generic bodies in mat.go, batch.go and panel.go, and the
// native f32 gate activations live in act32.go.

// fma32 returns a*b+c with a single float32 rounding — exactly what
// VFMADD231PS computes per lane — in portable Go. The float64 product
// is exact (24+24 significand bits fit in 53), but rounding the double
// sum straight to float32 would double-round; instead the sum is taken
// round-to-odd at double precision (sticky the inexact low bits into
// the last significand bit), after which the final float32 rounding is
// correct for every input (53 ≥ 24+2). Used only by the portable f32
// exp (act32.go), where exactness beats speed.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b) // exact: 48-bit significand
	s := p + float64(c)
	if math.IsNaN(s) || math.IsInf(s, 0) {
		// Specials carry through conversion exactly (Inf inputs, Inf*0).
		return float32(s)
	}
	// 2Sum: e is the exact rounding error of the double addition.
	t := s - p
	e := (p - (s - t)) + (float64(c) - t)
	if e != 0 && math.Float64bits(s)&1 == 0 {
		// Inexact and the nearest double is even: round to odd by taking
		// the neighbor on the side of the exact sum.
		if e > 0 {
			s = math.Nextafter(s, math.Inf(1))
		} else {
			s = math.Nextafter(s, math.Inf(-1))
		}
	}
	return float32(s)
}

// expChunk32 is the widening buffer length of ExpSlice32 — a multiple
// of 4 (the f64 vector kernel's lane granule) small enough to stay on
// the stack.
const expChunk32 = 128

// ExpSlice32 sets dst[i] = float32(math.Exp(float64(x[i]))) for every
// i: each f32 input is widened (exact), exponentiated at full double
// precision, and rounded once back to float32 — a correctly rounded f32
// exp for all practical purposes, with identical bits on every path.
// On amd64 the bulk widens through a stack chunk into the 4-lane
// expAVX2 kernel; elsewhere (and for the tail) it calls math.Exp. dst
// and x may alias exactly.
func ExpSlice32(dst, x []float32) {
	if len(dst) != len(x) {
		panic("mat: ExpSlice32 length mismatch")
	}
	i := 0
	if useBatchASM {
		var buf [expChunk32]float64
		for i+4 <= len(x) {
			n := len(x) - i
			if n > expChunk32 {
				n = expChunk32
			}
			n &^= 3
			for j := 0; j < n; j++ {
				buf[j] = float64(x[i+j])
			}
			expAVX2(&buf[0], &buf[0], n)
			for j := 0; j < n; j++ {
				dst[i+j] = float32(buf[j])
			}
			i += n
		}
	}
	for ; i < len(x); i++ {
		dst[i] = float32(math.Exp(float64(x[i])))
	}
}

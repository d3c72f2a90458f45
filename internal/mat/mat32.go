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

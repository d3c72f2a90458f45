package mat

import (
	"math"
	"testing"
)

// withBatchASM runs f twice when assembly kernels are available — once
// with them and once forced onto the portable fallback — so every
// exactness property is checked on both paths.
func withBatchASM(t *testing.T, f func(t *testing.T)) {
	t.Run("fallback", func(t *testing.T) {
		saved := useBatchASM
		useBatchASM = false
		defer func() { useBatchASM = saved }()
		f(t)
	})
	if !haveBatchASM() {
		return
	}
	t.Run("asm", func(t *testing.T) {
		saved := useBatchASM
		useBatchASM = true
		defer func() { useBatchASM = saved }()
		f(t)
	})
}

// TestMulAddBatchedBitExact checks MulAddBatched against the axpy-row
// oracle (MulAdd, which the serial decode path uses, now shares the
// batched kernel at small shapes and is pinned to the same oracle by
// TestMulAddSmallShapesBitExact), over shapes that exercise the
// 16-wide tiles, the 4-wide cleanup, and the scalar column tail.
func TestMulAddBatchedBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		shapes := [][3]int{
			{8, 24, 96}, {1, 24, 96}, {64, 24, 96}, // decode gate panels
			{8, 24, 18}, {8, 24, 48}, // head shapes
			{7, 23, 97}, {3, 5, 3}, {2, 1, 1}, // tails everywhere
			{5, 31, 16}, {1, 1, 17}, {9, 2, 130},
		}
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := denseRand(m, k, 1)
			b := denseRand(k, n, 2)
			want := denseRand(m, n, 3)
			got := want.Clone()
			mulAddRows(want, a, b, 0, m)
			MulAddBatched(got, a, b)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
						m, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	})
}

// expCases returns inputs that exercise every branch of math.Exp: the
// ordinary range, both sides of the overflow cutoff, the denormal
// result band, underflow, and the non-finite specials.
func expCases() []float64 {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-9, -1e-9,
		87.3, -87.3, 300, -300, 700, -700,
		709.782712893384, 709.7827128933841, 709.78271289338397,
		-708.3964185322641, -708.39641853226408, -708.4,
		-744, -745, -745.1, -745.1332191019412, -746, -800,
		710, 1000, 1e9, -1e9,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF8000000000001), // NaN with payload
		4.503599627370496e15, 1e-320, -1e-320,
	}
	// Dense sweeps across the interesting boundaries.
	for x := -746.0; x < -707.0; x += 0.001953125 {
		cases = append(cases, x)
	}
	for x := 709.0; x < 710.5; x += 0.0009765625 {
		cases = append(cases, x)
	}
	// Pseudo-random coverage of the ordinary range (fixed LCG so the
	// test is deterministic without the rng package).
	s := uint64(12345)
	for i := 0; i < 20000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		x := (float64(s>>11)/float64(1<<53) - 0.5) * 1500 // [-750, 750)
		cases = append(cases, x)
	}
	for i := 0; i < 4000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		x := (float64(s>>11)/float64(1<<53) - 0.5) * 20 // [-10, 10)
		cases = append(cases, x)
	}
	return cases
}

// TestExpSliceBitExact checks ExpSlice against math.Exp bit-for-bit
// over every branch of the scalar implementation, in bulk (so the
// vector path runs) and with the inputs rotated so each case visits
// every lane.
func TestExpSliceBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		cases := expCases()
		for rot := 0; rot < 4; rot++ {
			x := make([]float64, len(cases))
			for i, v := range cases {
				x[(i+rot)%len(x)] = v
			}
			dst := make([]float64, len(x))
			ExpSlice(dst, x)
			for i, v := range x {
				want := math.Exp(v)
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("rot %d: Exp(%v) = %x, want %x",
						rot, v, math.Float64bits(dst[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// TestExpSliceAlias checks the documented exact-alias contract.
func TestExpSliceAlias(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		x := []float64{-3, -0.5, 0, 0.5, 1, 2, 3, 4, 5}
		want := make([]float64, len(x))
		for i, v := range x {
			want[i] = math.Exp(v)
		}
		ExpSlice(x, x)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("elem %d: got %v want %v", i, x[i], want[i])
			}
		}
	})
}

// TestBatchKernelsNoAlloc pins the batched kernels at zero allocations.
func TestBatchKernelsNoAlloc(t *testing.T) {
	a := denseRand(8, 24, 1)
	b := denseRand(24, 96, 2)
	dst := NewDense(8, 96)
	x := denseRand(1, 96, 3).Data
	y := make([]float64, 96)
	if n := testing.AllocsPerRun(100, func() {
		MulAddBatched(dst, a, b)
		ExpSlice(y, x)
	}); n != 0 {
		t.Fatalf("batched kernels allocated %v per run", n)
	}
}

func BenchmarkMulAddBatchedDecodeShape(b *testing.B) {
	a := denseRand(8, 24, 1)
	bm := denseRand(24, 96, 2)
	dst := NewDense(8, 96)
	b.SetBytes(8 * int64(len(a.Data)+len(bm.Data)+len(dst.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddBatched(dst, a, bm)
	}
}

func BenchmarkExpSlice96(b *testing.B) {
	x := denseRand(1, 96, 1).Data
	dst := make([]float64, 96)
	b.SetBytes(8 * 2 * 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpSlice(dst, x)
	}
}

func BenchmarkExpScalar96(b *testing.B) {
	x := denseRand(1, 96, 1).Data
	dst := make([]float64, 96)
	b.SetBytes(8 * 2 * 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			dst[j] = math.Exp(v)
		}
	}
}

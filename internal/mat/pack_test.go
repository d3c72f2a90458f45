package mat

import (
	"math"
	"testing"
)

// mulATBRef is the plain MulATB loop (k outer, rows of b scaled into
// dst rows), the bit-exactness reference of MulATB.
func mulATBRef(dst, a, b *Dense) {
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		brow := b.Data[k*n : k*n+n]
		for i, av := range a.Row(k) {
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulABTRef is the plain MulABT loop (full dot rounded before the
// single add into dst), the reference the zeroed-panel trick must
// reproduce for every dst — zeroed or mid-accumulation.
func mulABTRef(dst, a, b *Dense) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] += dot(arow, b.Row(j))
		}
	}
}

// packShapes spans both sides of packMinFlops, BPTT-like panels, and
// tails in every dimension (odd k, odd n, sub-tile m).
var packShapes = [][3]int{ // {k, m, n} for ATB: a is k×m, b is k×n
	{768, 72, 192}, {768, 48, 192}, {96, 24, 96}, // BPTT gradient panels
	{96, 24, 17}, {96, 24, 47}, // one-row shard weight gradients
	{33, 7, 129}, {65, 3, 5}, {129, 31, 33}, // tails everywhere
	{8, 4, 8}, {1, 1, 1}, {64, 64, 64},
	{40, 100, 3}, {40, 3, 100},
}

// forPackShapes calls f on every entry of packShapes and fails unless
// they straddle packMinFlops, so MulATB's and MulABT's one path is
// proven on both arms of mulAdd.
func forPackShapes(t *testing.T, f func(k, m, n int)) {
	below, above := false, false
	for _, sh := range packShapes {
		k, m, n := sh[0], sh[1], sh[2]
		if k*m*n >= packMinFlops {
			above = true
		} else {
			below = true
		}
		f(k, m, n)
	}
	if !below || !above {
		t.Fatalf("packShapes no longer straddle packMinFlops = %d", packMinFlops)
	}
}

// TestMulATBPackedBitExact checks MulATB — a pooled transpose, then
// mulAdd, which packs per call at or above packMinFlops — against the
// plain reference, bit for bit, on both kernel tiers, accumulating into
// a nonzero dst.
func TestMulATBPackedBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		forPackShapes(t, func(k, m, n int) {
			a := denseRand(k, m, 1)
			b := denseRand(k, n, 2)
			want := denseRand(m, n, 3)
			got := want.Clone()
			mulATBRef(want, a, b)
			MulATB(got, a, b)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("MulATB %dx%dx%d: elem %d: got %x want %x",
						k, m, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		})
	})
}

// TestMulABTPackedBitExact is the MulABT counterpart. The nonzero dst
// matters doubly here: the zeroed-panel construction must keep the
// dot-then-single-add rounding into a running sum.
func TestMulABTPackedBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		forPackShapes(t, func(k, m, n int) { // a is m×k, b is n×k
			a := denseRand(m, k, 1)
			b := denseRand(n, k, 2)
			want := denseRand(m, n, 3)
			got := want.Clone()
			mulABTRef(want, a, b)
			MulABT(got, a, b)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("MulABT %dx%dx%d: elem %d: got %x want %x",
						m, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		})
	})
}

// TestPackedSteadyStateNoAlloc pins the packed paths at zero
// steady-state allocations (one warm call fills the pool; afterwards
// every buffer is recycled).
func TestPackedSteadyStateNoAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race-mode sync.Pool.Put randomly drops items, so the pool is not allocation-free under the detector")
	}
	a := denseRand(768, 48, 1)
	b := denseRand(768, 192, 2)
	dstT := NewDense(48, 192)
	a2 := denseRand(768, 192, 3)
	b2 := denseRand(48, 192, 4)
	dst2 := NewDense(768, 48)
	MulATB(dstT, a, b)
	MulABT(dst2, a2, b2)
	if n := testing.AllocsPerRun(50, func() {
		MulATB(dstT, a, b)
		MulABT(dst2, a2, b2)
	}); n != 0 {
		t.Fatalf("packed backward GEMMs allocated %v per run", n)
	}
}

func BenchmarkMulATBPackedBPTTShape(b *testing.B) {
	a := denseRand(768, 48, 1)
	g := denseRand(768, 192, 2)
	dst := NewDense(48, 192)
	b.SetBytes(8 * int64(len(a.Data)+len(g.Data)+len(dst.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulATB(dst, a, g)
	}
}

func BenchmarkMulABTPackedBPTTShape(b *testing.B) {
	a := denseRand(768, 192, 1)
	w := denseRand(48, 192, 2)
	dst := NewDense(768, 48)
	b.SetBytes(8 * int64(len(a.Data)+len(w.Data)+len(dst.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulABT(dst, a, w)
	}
}

// TestMulAddSmallShapesBitExact pins MulAdd to the plain-loop oracle at
// the shapes a one-row training shard and a one-row fleet produce, with
// column tails (n mod 4 ≠ 0), a single column, and k on both sides of
// the oracle's 64-term block edge — on the assembly and portable
// kernels (the largest shapes cross packMinFlops, so they take the
// per-call pack), into a nonzero dst.
func TestMulAddSmallShapesBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		for m := 1; m <= 9; m++ {
			for _, k := range []int{1, 7, 24, 64, 65} {
				for _, n := range []int{1, 3, 4, 17, 96, 97} {
					a := denseRand(m, k, 1)
					b := denseRand(k, n, 2)
					want := denseRand(m, n, 3)
					got := want.Clone()
					mulAddRows(want, a, b, 0, m)
					MulAdd(got, a, b)
					for i := range want.Data {
						if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
							t.Fatalf("%dx%dx%d: elem %d: got %x want %x", m, k, n,
								i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	})
}

// specialValues are the operand values the special-value pins plant:
// signed zeros, denormals, the smallest normal, infinities, NaN, and
// the unit coefficients the row-sum kernel treats as a bare add.
var specialValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
}

// plantSpecials overwrites every stride-th element of m with the next
// of specialValues.
func plantSpecials(m *Dense, stride int) {
	for i := 0; i < len(m.Data); i += stride {
		m.Data[i] = specialValues[(i/stride)%len(specialValues)]
	}
}

// TestMulAddRowSumsBitExact pins MulAdd's row-sum arm (mulAddRowSums,
// called directly so it is proven at every shape, across the
// sparseChunk edge at k = 257 too) and MulAdd itself to the plain-loop
// oracle, with the specials planted in both operands and in dst. Every
// column is listed, so unlike MulAddSparse nothing is skipped: every
// bit must be the oracle's, ±0 and ±Inf included, and a NaN must come
// out NaN (which NaN payload survives is the compiler's operand order;
// see bitsDiffer).
func TestMulAddRowSumsBitExact(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, m := range []int{1, 8, 96} {
		for _, k := range []int{17, 24, 96, 257} {
			for _, n := range []int{17, 24, 47, 96} {
				shapes = append(shapes, shape{m, k, n})
			}
		}
		shapes = append(shapes, shape{m, 0, 24}, shape{m, 24, 0})
	}
	withBatchASM(t, func(t *testing.T) {
		for _, sh := range shapes {
			m, k, n := sh.m, sh.k, sh.n
			for _, special := range []bool{false, true} {
				a, b, base := denseRand(m, k, 1), denseRand(k, n, 2), denseRand(m, n, 3)
				if special {
					plantSpecials(a, 3)
					plantSpecials(b, 7)
					plantSpecials(base, 11)
				}
				want, rows, got := base.Clone(), base.Clone(), base.Clone()
				mulAddRows(want, a, b, 0, m)
				mulAddRowSums(rows, a, b)
				MulAdd(got, a, b)
				for i, w := range want.Data {
					if bitsDiffer(rows.Data[i], w) || bitsDiffer(got.Data[i], w) {
						t.Fatalf("%dx%dx%d special=%v: elem %d: row sums %x MulAdd %x want %x", m, k, n, special, i,
							math.Float64bits(rows.Data[i]), math.Float64bits(got.Data[i]), math.Float64bits(w))
					}
				}
			}
		}
	})
}

// bitsDiffer reports whether got and want differ as bit patterns,
// treating any two NaNs as equal: when an add meets two NaNs (a planted
// one and the default NaN of 0·Inf) x86 keeps the first operand's, and
// which operand the compiler puts first differs between the scalar
// loops, the tiles and a -race build. No caller reads a NaN's payload.
func bitsDiffer(got, want float64) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return false
	}
	return math.Float64bits(got) != math.Float64bits(want)
}

// TestMulAddOnTransposeMatchesMulABT pins the identity every product of
// Backward against a weight's transpose relies on (the per-step
// recurrent gradient, the layer-input gradient, the head's): on a
// zeroed dst, MulAdd against an
// explicitly transposed b gives MulABT's bits (on both sides of its
// pack threshold) and the dot-then-add reference's, with signed zeros,
// denormals, infinities and NaNs planted in both operands.
func TestMulAddOnTransposeMatchesMulABT(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		shapes := [][3]int{ // {m, k, n}: a is m×k, b is n×k
			{1, 96, 24}, {1, 72, 24}, {3, 96, 24}, {8, 192, 48}, // per-step dz·whᵀ
			{1, 1, 1}, {1, 20, 5}, {2, 7, 3}, {5, 65, 17}, {768, 17, 24},
			// The products Backward runs on a window's hoisted transposes,
			// at a one-row shard's training shape: DZ·Wx₁ᵀ and the flavor
			// and lifetime heads' DY·Wyᵀ.
			{96, 96, 24}, {96, 17, 24}, {96, 47, 24},
		}
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, special := range []bool{false, true} {
				a := denseRand(m, k, 1)
				b := denseRand(n, k, 2)
				if special {
					plantSpecials(a, 3)
					plantSpecials(b, 7)
				}
				bT := NewDense(k, n)
				TransposeInto(bT, b)
				want, got, viaMulABT := NewDense(m, n), NewDense(m, n), NewDense(m, n)
				mulABTRef(want, a, b)
				MulAdd(got, a, bT)
				MulABT(viaMulABT, a, b)
				for i := range want.Data {
					if bitsDiffer(got.Data[i], want.Data[i]) || bitsDiffer(viaMulABT.Data[i], want.Data[i]) {
						t.Fatalf("%dx%dx%d special=%v: elem %d: MulAdd %x MulABT %x want %x",
							m, k, n, special, i, math.Float64bits(got.Data[i]),
							math.Float64bits(viaMulABT.Data[i]), math.Float64bits(want.Data[i]))
					}
				}
			}
		}
	})
}

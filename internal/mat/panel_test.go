package mat

import (
	"fmt"
	"math"
	"testing"
)

// packedWidths are the output widths of the packed-walk pins, per
// element type: every count of wide tiles in one kernel call (1–3, and
// several calls), of narrow tiles (0–3) and every tail length, plus the
// decode shapes (gates 4h = 96, the lifetime head 47, hidden 200's 800).
var packedWidths = map[bool][]int{ // keyed by "is float32"
	false: {1, 2, 3, 4, 8, 16, 17, 26, 32, 47, 48, 96, 99, 111, 800},
	true:  {1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 33, 52, 64, 95, 96, 192, 199, 223, 1600},
}

// forPackedShapes calls f on every m × k × n the packed walk
// distinguishes: one and two rows (always three tiles a call), three and
// 64 (as many as stay L1-resident), k from 1 to 200 (where one wide tile
// alone is 25 KB), and the widths above.
func forPackedShapes(f32 bool, f func(m, k, n int)) {
	for _, m := range []int{1, 2, 3, 64} {
		for _, k := range []int{1, 24, 200} {
			for _, n := range packedWidths[f32] {
				f(m, k, n)
			}
		}
	}
}

// TestMulAddPackedBitExact pins the packed f64 walk against the scalar
// axpy-row oracle (mulAddRows) — neither the panel layout nor the tile
// grouping may change a single output bit — on the assembly and portable
// paths.
func TestMulAddPackedBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		forPackedShapes(false, func(m, k, n int) {
			a := denseRand(m, k, 1)
			b := denseRand(k, n, 2)
			want := denseRand(m, n, 3)
			got := want.Clone()
			mulAddRows(want, a, b, 0, m)
			MulAddPacked(got, a, b.Pack())
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
						m, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		})
	})
}

// TestMulAddPacked32BitExact is the float32 pin, against the naive
// float32 loop.
func TestMulAddPacked32BitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		noFMA(t, func(t *testing.T) {
			forPackedShapes(true, func(m, k, n int) {
				a := dense32Rand(m, k, 1)
				b := dense32Rand(k, n, 2)
				want := dense32Rand(m, n, 3)
				got := NewDense32(m, n)
				copy(got.Data, want.Data)
				mulAdd32Ref(want, a, b)
				MulAddPacked32(got, a, b.Pack32())
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
							m, k, n, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			})
		})
	})
}

// TestMulAddPackedDispatchBitExact pins both arms of MulAdd's size
// dispatch to the axpy-row oracle, each called directly at shapes on
// both sides of packMinFlops (the training/BPTT sizes the dispatch
// targets), so neither is proven only at the sizes MulAdd happens to
// send it: subtest "nopack" is the unpacked kernel (gemmRaw), "pack" the
// repack-and-tile path (mulAddPackedB). MulAdd itself, whichever arm it
// picks, must match too.
func TestMulAddPackedDispatchBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		shapes := [][3]int{
			{64, 64, 256}, {32, 96, 256}, {64, 24, 96}, // BPTT gate GEMMs
			{128, 64, 64}, {7, 61, 67}, {200, 10, 17},
			{8, 24, 96}, {1, 24, 96}, {3, 5, 3}, // below packMinFlops
		}
		below, above := false, false
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			if m*k*n >= packMinFlops {
				above = true
			} else {
				below = true
			}
			a := denseRand(m, k, 1)
			b := denseRand(k, n, 2)
			base := denseRand(m, n, 3)
			want := base.Clone()
			mulAddRows(want, a, b, 0, m)
			check := func(t *testing.T, got *Dense) {
				for i, w := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
						t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
							m, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(w))
					}
				}
			}
			t.Run("nopack", func(t *testing.T) {
				got := base.Clone()
				gemmRaw(got.Data, a.Data, b.Data, m, k, n)
				check(t, got)
			})
			t.Run("pack", func(t *testing.T) {
				got := base.Clone()
				mulAddPackedB(got, a, b)
				check(t, got)
			})
			got := base.Clone()
			MulAdd(got, a, b)
			check(t, got)
		}
		if !below || !above {
			t.Fatalf("shapes no longer straddle packMinFlops = %d", packMinFlops)
		}
	})
}

// FuzzMulAddPacked feeds random shapes and data through the packed f64
// walk followed by a bias sweep — the fleet's head — and through the
// f32 walk, bit-comparing against the scalar oracles (mulAddRows, the
// naive f32 loop), both assembly and portable.
func FuzzMulAddPacked(f *testing.F) {
	f.Add(uint8(8), uint16(24), uint16(96), int64(1))
	f.Add(uint8(64), uint16(64), uint16(255), int64(2))
	f.Add(uint8(1), uint16(1), uint16(1), int64(3))
	f.Add(uint8(7), uint16(23), uint16(97), int64(4))
	f.Add(uint8(3), uint16(2), uint16(17), int64(5))
	f.Add(uint8(1), uint16(24), uint16(96), int64(6))
	f.Add(uint8(2), uint16(24), uint16(47), int64(7))
	f.Add(uint8(1), uint16(200), uint16(800), int64(8))
	f.Fuzz(func(t *testing.T, mm uint8, kk, nn uint16, seed int64) {
		m, k, n := int(mm)%65, int(kk)%257, int(nn)%1025
		if m == 0 || k == 0 || n == 0 {
			return
		}
		a := denseRand(m, k, seed)
		b := denseRand(k, n, seed+1)
		base := denseRand(m, n, seed+2)
		bias := denseRand(1, n, seed+3).Data
		p := b.Pack()
		want := base.Clone()
		mulAddRows(want, a, b, 0, m)
		AddBiasRows(want, bias)

		a32, b32, base32 := a.Dense32(), b.Dense32(), base.Dense32()
		p32 := b32.Pack()
		want32 := base32.Clone()
		mulAdd32Ref(want32, a32, b32)

		withBatchASM(t, func(t *testing.T) {
			got := base.Clone()
			MulAddPacked(got, a, p)
			AddBiasRows(got, bias)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
						m, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
			got32 := base32.Clone()
			MulAddPacked(got32, a32, p32)
			for i := range want32.Data {
				if math.Float32bits(got32.Data[i]) != math.Float32bits(want32.Data[i]) {
					t.Fatalf("f32 %dx%dx%d: elem %d: got %x want %x",
						m, k, n, i, math.Float32bits(got32.Data[i]), math.Float32bits(want32.Data[i]))
				}
			}
		})
	})
}

// BenchmarkMulAddPackedDecode times one packed GEMM at the decode shapes:
// the hidden-24 gate matrix (k 24, n 96), the lifetime head (24 × 47,
// every group count of the walk in one matrix) and the hidden-200 gate
// matrix (200 × 800), at one, two and 64 activation rows.
func BenchmarkMulAddPackedDecode(b *testing.B) {
	for _, sh := range [][2]int{{24, 96}, {24, 47}, {200, 800}} {
		k, n := sh[0], sh[1]
		for _, m := range []int{1, 2, 64} {
			b.Run(fmt.Sprintf("f64/%dx%dx%d", m, k, n), func(b *testing.B) {
				a, p, dst := denseRand(m, k, 1), denseRand(k, n, 2).Pack(), NewDense(m, n)
				for i := 0; i < b.N; i++ {
					MulAddPacked(dst, a, p)
				}
			})
			b.Run(fmt.Sprintf("f32/%dx%dx%d", m, k, n), func(b *testing.B) {
				a, p, dst := dense32Rand(m, k, 1), dense32Rand(k, n, 2).Pack(), NewDense32(m, n)
				for i := 0; i < b.N; i++ {
					MulAddPacked(dst, a, p)
				}
			})
		}
	}
}

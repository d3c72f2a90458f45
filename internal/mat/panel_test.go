package mat

import (
	"math"
	"testing"
)

// panelShapes exercises every region of the panel layout: multiple
// wide tiles, the narrow cleanup tiles, the scalar column tail, and
// degenerate edges (single row/col, k=1, wide-only, tail-only). The
// decode shapes (gates 4h=96/256, heads 18/48) are included verbatim.
var panelShapes = [][3]int{
	{8, 24, 96}, {1, 24, 96}, {64, 24, 96}, {64, 64, 256},
	{8, 24, 18}, {8, 24, 48}, {64, 64, 64},
	{7, 23, 97}, {3, 5, 3}, {2, 1, 1}, {5, 31, 16}, {1, 1, 17},
	{9, 2, 130}, {4, 6, 35}, {6, 3, 7}, {2, 2, 39}, {3, 4, 40},
}

// TestMulAddPackedBitExact pins the packed f64 kernel against
// MulAddBatched on the unpacked matrix — the panel layout must not
// change a single output bit, on the assembly and portable paths.
func TestMulAddPackedBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		for _, sh := range panelShapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := denseRand(m, k, 1)
			b := denseRand(k, n, 2)
			want := denseRand(m, n, 3)
			got := want.Clone()
			MulAddBatched(want, a, b)
			MulAddPacked(got, a, b.Pack())
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
						m, k, n, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	})
}

// TestMulAddPacked32BitExact is the float32 pin.
func TestMulAddPacked32BitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		noFMA(t, func(t *testing.T) {
			for _, sh := range panelShapes {
				m, k, n := sh[0], sh[1], sh[2]
				a := dense32Rand(m, k, 1)
				b := dense32Rand(k, n, 2)
				want := dense32Rand(m, n, 3)
				got := NewDense32(m, n)
				copy(got.Data, want.Data)
				MulAddBatched(want, a, b)
				MulAddPacked32(got, a, b.Pack32())
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%dx%dx%d: elem %d: got %x want %x",
							m, k, n, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			}
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
// kernel followed by a bias sweep — the fleet's head — and bit-compares
// against the unpacked batched reference, both assembly and portable.
func FuzzMulAddPacked(f *testing.F) {
	f.Add(uint8(8), uint8(24), uint8(96), int64(1))
	f.Add(uint8(64), uint8(64), uint8(255), int64(2))
	f.Add(uint8(1), uint8(1), uint8(1), int64(3))
	f.Add(uint8(7), uint8(23), uint8(97), int64(4))
	f.Add(uint8(3), uint8(2), uint8(17), int64(5))
	f.Fuzz(func(t *testing.T, mm, kk, nn uint8, seed int64) {
		m, k, n := int(mm)%65, int(kk)%65, int(nn)%130
		if m == 0 || k == 0 || n == 0 {
			return
		}
		a := denseRand(m, k, seed)
		b := denseRand(k, n, seed+1)
		base := denseRand(m, n, seed+2)
		bias := denseRand(1, n, seed+3).Data
		p := b.Pack()

		want := base.Clone()
		MulAddBatched(want, a, b)
		AddBiasRows(want, bias)

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
		})
	})
}

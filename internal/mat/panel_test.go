package mat

import (
	"math"
	"sort"
	"testing"
	"time"
)

// withPackedB runs f with the packed-B MulAdd dispatch forced on and
// off, restoring the global afterwards — the in-process analog of the
// REPRO_NOPACK tier in scripts/check.sh.
func withPackedB(t *testing.T, f func(t *testing.T)) {
	for _, on := range []bool{false, true} {
		name := "nopack"
		if on {
			name = "pack"
		}
		t.Run(name, func(t *testing.T) {
			saved := usePackedB
			usePackedB = on
			defer func() { usePackedB = saved }()
			f(t)
		})
	}
}

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

// TestPackUnpackRoundTrip pins that packing is a pure permutation:
// Unpack(Pack(m)) reproduces every element bit-for-bit.
func TestPackUnpackRoundTrip(t *testing.T) {
	for _, sh := range panelShapes {
		k, n := sh[1], sh[2]
		b := denseRand(k, n, 7)
		got := b.Pack().Unpack()
		for i := range b.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("%dx%d: elem %d changed across pack round-trip", k, n, i)
			}
		}
	}
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

// TestMulAddPackedDispatchBitExact pins that MulAdd produces identical
// bits whether or not the packed-B dispatch is taken, at shapes
// straddling packMinFlops (the training/BPTT sizes the dispatch
// targets).
func TestMulAddPackedDispatchBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		shapes := [][3]int{
			{64, 64, 256}, {32, 96, 256}, {64, 24, 96}, // BPTT gate GEMMs
			{128, 64, 64}, {7, 61, 67}, {200, 10, 17},
		}
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := denseRand(m, k, 1)
			b := denseRand(k, n, 2)
			base := denseRand(m, n, 3)
			var packed, unpacked *Dense
			withPackedB(t, func(t *testing.T) {
				got := base.Clone()
				MulAdd(got, a, b)
				if usePackedB {
					packed = got
				} else {
					unpacked = got
				}
			})
			for i := range packed.Data {
				if math.Float64bits(packed.Data[i]) != math.Float64bits(unpacked.Data[i]) {
					t.Fatalf("%dx%dx%d: elem %d differs across pack dispatch", m, k, n, i)
				}
			}
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

// TestPairedForwardGEMMMeasure extends the paired-measure methodology
// to the forward GEMM at the batched/sharded BPTT shapes: the shipped
// packed-B dispatch against the pre-PR scalar-axpy path, round-robin in
// one process with per-round medians, so clock drift cannot pick the
// winner. It documents the packMinFlops crossover; it never fails.
func TestPairedForwardGEMMMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement, skipped in -short")
	}
	shapes := [][3]int{
		{64, 64, 256}, // batched BPTT gate GEMM (h=64)
		{32, 96, 256}, // sharded BPTT with stacked input
		{64, 64, 64},  // BPTT cell-grad GEMM
		{8, 24, 96},   // below packMinFlops: dispatch must not regress it
	}
	const rounds, iters = 60, 20
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := denseRand(m, k, 1)
		b := denseRand(k, n, 2)
		dst := NewDense(m, n)
		measure := func(f func()) time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			return time.Since(start)
		}
		var packed, axpy []time.Duration
		for r := 0; r < rounds; r++ {
			packed = append(packed, measure(func() { mulAddPackedB(dst, a, b) }))
			axpy = append(axpy, measure(func() { mulAddRows(dst, a, b, 0, m) }))
		}
		flops := m * k * n
		t.Logf("%dx%dx%d (%d flops, packMinFlops=%d): packed %v, axpy %v per %d calls",
			m, k, n, flops, packMinFlops, median(packed), median(axpy), iters)
	}
}

package mat

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Micro-benchmarks backing the DESIGN.md "Parallel execution" numbers:
// dense vs sparse GEMM kernels (the dense path dropped its per-element
// zero test; the sparse path keeps it for one-hot inputs) and the
// shipped straight-loop Dot/Axpy against the rejected 4-way unrolled
// variants. Both sides of each pair run the same vector length.
//
// Caveat: on hosts with unstable clocks, consecutive benchmark blocks
// drift enough to swamp a ~5% kernel delta. The Dot/Axpy decisions come
// from paired alternating-median timing (variants interleaved
// round-robin in one process, TestPairedKernelMeasure), which cancels
// the drift: as direct in-package calls the straight dot wins by
// nearly 2× in every build measured, while axpy shows no robust
// difference (the sign flips with code layout between builds), so the
// simpler straight loop ships there too. The compiler eliminates
// bounds checks from the range loops; the manual unrolls keep theirs
// and gain nothing on the serial dependency chain dot is pinned to
// for bit-exact summation order.

func denseRand(r, c int, seed int64) *Dense {
	g := rng.New(seed)
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = g.NormFloat64()
	}
	return m
}

// oneHotRows mimics a layer-0 input batch: one nonzero per row.
func oneHotRows(r, c int, seed int64) *Dense {
	g := rng.New(seed)
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		m.Row(i)[g.Intn(c)] = 1
	}
	return m
}

func benchMulAdd(b *testing.B, a *Dense, kernel func(dst, a, bm *Dense)) {
	bm := denseRand(a.Cols, 128, 2)
	dst := NewDense(a.Rows, 128)
	b.SetBytes(8 * int64(len(a.Data)+len(bm.Data)+len(dst.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, a, bm)
	}
}

// Dense input through both kernels: the dense kernel's branch-free inner
// loop should win even though the sparse kernel would skip nothing.
func BenchmarkMulAddDenseKernel(b *testing.B) {
	benchMulAdd(b, denseRand(64, 256, 1), MulAdd)
}

func BenchmarkMulAddSparseKernelDenseInput(b *testing.B) {
	benchMulAdd(b, denseRand(64, 256, 1), MulAddSparse)
}

// One-hot input through both kernels: here the zero-skip pays for itself
// by a wide margin, which is why layer 0 dispatches on sparsity.
func BenchmarkMulAddDenseKernelOneHot(b *testing.B) {
	benchMulAdd(b, oneHotRows(64, 256, 1), MulAdd)
}

func BenchmarkMulAddSparseKernelOneHot(b *testing.B) {
	benchMulAdd(b, oneHotRows(64, 256, 1), MulAddSparse)
}

// dotUnrolled4 and axpyUnrolled4 are the rejected 4-way manual
// unrolls, kept only as benchmark baselines for the shipped straight
// loops (the accumulation order is identical, so either variant would
// be bit-exact — the choice is purely a speed call).
func dotUnrolled4(a, b []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

func axpyUnrolled4(alpha float64, x, y []float64) {
	i := 0
	for ; i+4 <= len(x) && i+4 <= len(y); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

const vecLen = 1024

// BenchmarkDot times the shipped kernel exactly as the GEMM inner
// loops consume it: a direct (inlinable) call to the package-private
// straight loop. The exported Dot wrapper adds a shape check the hot
// paths never pay.
func BenchmarkDot(b *testing.B) {
	x := denseRand(1, vecLen, 1).Data
	y := denseRand(1, vecLen, 2).Data
	b.SetBytes(8 * 2 * vecLen)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += dot(x, y)
	}
	_ = sink
}

// BenchmarkDotUnrolled times the rejected 4-way unroll at the same
// vector length.
func BenchmarkDotUnrolled(b *testing.B) {
	x := denseRand(1, vecLen, 1).Data
	y := denseRand(1, vecLen, 2).Data
	b.SetBytes(8 * 2 * vecLen)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += dotUnrolled4(x, y)
	}
	_ = sink
}

// BenchmarkAxpy times the shipped kernel as the GEMM inner loops
// consume it (direct call of the package-private straight loop).
func BenchmarkAxpy(b *testing.B) {
	x := denseRand(1, vecLen, 1).Data
	y := denseRand(1, vecLen, 2).Data
	b.SetBytes(8 * 2 * vecLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		axpy(1e-9, x, y)
	}
}

// BenchmarkAxpyUnrolled times the rejected 4-way unroll at the same
// vector length.
func BenchmarkAxpyUnrolled(b *testing.B) {
	x := denseRand(1, vecLen, 1).Data
	y := denseRand(1, vecLen, 2).Data
	b.SetBytes(8 * 2 * vecLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		axpyUnrolled4(1e-9, x, y)
	}
}

// TestUnrolledVariantsBitExact pins the claim above: the rejected
// unrolls compute bit-identical results to the shipped straight loops,
// including at lengths that exercise the unroll tail.
func TestUnrolledVariantsBitExact(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1023} {
		x := denseRand(1, n+1, 1).Data[:n]
		y := denseRand(1, n+1, 2).Data[:n]
		if got, want := dotUnrolled4(x, y), Dot(x, y); got != want {
			t.Fatalf("n=%d: dotUnrolled4=%v, Dot=%v", n, got, want)
		}
		y2 := append([]float64(nil), y...)
		Axpy(0.37, x, y)
		axpyUnrolled4(0.37, x, y2)
		for i := range y {
			if y[i] != y2[i] {
				t.Fatalf("n=%d: axpy mismatch at %d: %v vs %v", n, i, y[i], y2[i])
			}
		}
	}
}

// BenchmarkLSTMCell24 is LSTMCell at the decode hidden size on fresh
// normal pre-activations, one row and a 64-row batch; ns/op is one call
// (scripts/bench.sh prints it per row).
func BenchmarkLSTMCell24(b *testing.B) {
	for _, m := range []int{1, 64} {
		b.Run(fmt.Sprintf("m%d", m), func(b *testing.B) {
			pre, z := denseRand(m, 96, 1), NewDense(m, 96)
			bias := denseRand(1, 96, 2).Data
			c, h := denseRand(m, 24, 3), NewDense(m, 24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(z.Data, pre.Data)
				LSTMCell(z, bias, c, h)
			}
		})
	}
}

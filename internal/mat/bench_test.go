package mat

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Micro-benchmarks backing the DESIGN.md "Parallel execution" numbers:
// dense vs sparse GEMM kernels (the dense path dropped its per-element
// zero test; the sparse path keeps it for one-hot inputs) and the
// straight-loop Dot kernel.
//
// Caveat: on hosts with unstable clocks, consecutive benchmark blocks
// drift enough to swamp a ~5% kernel delta; a speed claim is made from
// alternating pairs (scripts/pairs.sh), not from two blocks of this
// file.

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
				LSTMCell(z, bias, c, h, nil)
			}
		})
	}
}

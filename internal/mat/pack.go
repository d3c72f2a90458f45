package mat

import "sync"

// Packed cache-blocked backward GEMM fast paths. MulATB and MulABT feed
// BPTT's gradient products ((T·b)-row activations against gate panels);
// above packMinFlops they transpose one operand once into pooled
// scratch and then run the batched AVX2 kernel (gemmAVX2, or its tiled
// portable fallback) over contiguous rows, instead of the strided
// axpy/dot loops the small-shape paths keep. Like every kernel in the
// package they run on the calling goroutine at any size; the concurrent
// callers are the training shards, one per row, which is why the
// scratch is pooled rather than global (packPool).
//
// Bit-compatibility: both fast paths reproduce the small-shape paths'
// bits exactly, so the threshold (and any future retuning of it) can
// never change a trained weight:
//
//   - MulATB accumulates directly into dst with ascending-k adds — the
//     same per-element rounding sequence as the axpy loops.
//
//   - MulABT's reference rounds each dot product fully before the
//     single add into dst. The fast path preserves that by accumulating
//     into a zeroed scratch panel (ascending-k from zero computes the
//     dot's bits exactly) and then adding the panel to dst elementwise.

const (
	// packMinFlops is the multiply-add count above which the packed
	// paths win: below it the extra transpose pass and pool traffic cost
	// more than the strided reads they remove (paired-measured at the
	// BPTT shapes, per-call transpose included). It prices that per-call
	// pass, not the kernel: a caller that hoists the transpose out of its
	// loop — a training window's weight transposes, via TransposeInto —
	// calls MulAdd on the transposed operand, whose small products take
	// the contiguous kernel at any size (no pass to pay).
	packMinFlops = 1 << 14
	// packTile is the square blocking granule of the transpose, sized so
	// a tile of the source and destination both sit in L1.
	packTile = 32
)

// packPool recycles transpose/panel scratch across calls. Training
// shards call MulATB/MulABT concurrently, so the scratch cannot be a
// package global; a Pool keeps the steady state allocation-free per P
// without serializing the shards.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func packGet(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func packPut(p *[]float64) { packPool.Put(p) }

// transposeInto writes aᵀ (c×r) into dst, tile-blocked so neither side
// streams with a large stride.
func transposeInto(dst []float64, a *Dense) {
	r, c := a.Rows, a.Cols
	for i0 := 0; i0 < c; i0 += packTile {
		i1 := i0 + packTile
		if i1 > c {
			i1 = c
		}
		for k0 := 0; k0 < r; k0 += packTile {
			k1 := k0 + packTile
			if k1 > r {
				k1 = r
			}
			for i := i0; i < i1; i++ {
				drow := dst[i*r : i*r+r]
				for k := k0; k < k1; k++ {
					drow[k] = a.Data[k*c+i]
				}
			}
		}
	}
}

// mulATBPacked computes dst += aᵀ·b by transposing a once into pooled
// scratch and running the contiguous kernel. Bit-identical to MulATB's
// small-shape path.
func mulATBPacked(dst, a, b *Dense) {
	m, n, kk := a.Cols, b.Cols, a.Rows
	sp := packGet(m * kk)
	at := *sp
	transposeInto(at, a)
	gemmRaw(dst.Data, at, b.Data, m, kk, n)
	packPut(sp)
}

// mulABTPacked computes dst += a·bᵀ by transposing b once into pooled
// scratch and running the contiguous kernel into a zeroed pooled panel,
// which is then added to dst: that keeps MulABT's dot-then-add rounding
// (see the file comment), bit-identical to its small-shape path for
// every dst (zeroed or not).
func mulABTPacked(dst, a, b *Dense) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	sp := packGet(kk * n)
	bt := *sp
	transposeInto(bt, b)
	pp := packGet(m * n)
	p := *pp
	clear(p)
	gemmRaw(p, a.Data, bt, m, kk, n)
	for i, v := range p {
		dst.Data[i] += v
	}
	packPut(pp)
	packPut(sp)
}

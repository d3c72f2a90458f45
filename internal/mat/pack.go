package mat

import "sync"

// Per-call scratch of the training products. MulATB and MulABT
// transpose one operand into pooled scratch and multiply it by mulAdd;
// MulAdd at or above packMinFlops packs B per call onto panels
// (mulAddPackedB). Like every kernel in the package they run on the
// calling goroutine at any size; the concurrent callers are the
// training shards, one per row, which is why the scratch is pooled
// rather than global (packPool). None of it moves a bit: a transpose
// or a pack permutes addresses, and every path takes each dst element's
// k terms in ascending order.

const (
	// packMinFlops is the multiply-add count at or above which MulAdd
	// packs B per call; below it, where the pack pass would cost more
	// than the contiguous panel loads save, the product runs as row
	// sums. A caller that multiplies by one matrix many times — a
	// training window's recurrent weights — packs it once
	// (Packed.Repack) and calls MulAddPacked at any size.
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

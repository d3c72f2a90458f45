package mat

import (
	"fmt"
	"math"
)

// Float32 serving fast path (DESIGN.md §6.4). Dense32 and the kernels
// below exist only for inference: the f32 decode engines run their step
// GEMMs at twice the AVX2 lane width of the float64 kernels, trading
// bounded output divergence (validated at snapshot publish) for
// throughput. Training and the bit-exact f64 serving path never touch
// this file.
//
// Determinism contract (same as the f64 kernels): every f32 GEMM path —
// assembly, portable fallback, any tiling — accumulates each dst
// element's k terms in ascending order with one float32 rounding per
// multiply and one per add, so results are bit-identical across paths
// and independent of batch composition.

// Dense32 is a row-major matrix of float32.
type Dense32 struct {
	Rows, Cols int
	Data       []float32
}

// NewDense32 allocates a zeroed r-by-c float32 matrix.
func NewDense32(r, c int) *Dense32 {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense32{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// FromSlice32 wraps data (not copied) as an r-by-c matrix.
func FromSlice32(r, c int, data []float32) *Dense32 {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice32 %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Dense32{Rows: r, Cols: c, Data: data}
}

// Row returns a view (not a copy) of row i.
func (m *Dense32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets all elements of m to zero.
func (m *Dense32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func (m *Dense32) String() string {
	return fmt.Sprintf("Dense32(%dx%d)", m.Rows, m.Cols)
}

// Dense32 returns a rounded float32 copy of m (round-to-nearest-even
// per element). This is the weight-slab conversion the f32 serving path
// performs once at snapshot publish.
func (m *Dense) Dense32() *Dense32 {
	out := NewDense32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// MulAddBatched32 computes dst += a * b in float32, the serving
// fast-path counterpart of MulAddBatched: single-goroutine, AVX2
// 8-lane on amd64 (twice MulAddBatched's vector width), register-tiled
// portable fallback elsewhere, bit-identical across all paths: product
// and sum round separately, the fallback's plain float32 expression.
func MulAddBatched32(dst, a, b *Dense32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulAddBatched32 shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	n8 := n &^ 7
	if useBatchASM && n8 > 0 {
		gemm32AVX2(&dst.Data[0], &a.Data[0], &b.Data[0], m, k, n)
	} else {
		mulAddJTiles32(dst, a, b, n8)
	}
	for j := n8; j < n; j++ {
		for i := 0; i < m; i++ {
			arow := a.Row(i)
			s := dst.Data[i*n+j]
			for kk := 0; kk < k; kk++ {
				s += arow[kk] * b.Data[kk*n+j]
			}
			dst.Data[i*n+j] = s
		}
	}
}

// mulAddJTiles32 is the portable f32 batched GEMM kernel: per dst row,
// 8-column register tiles across the k sweep — the schedule gemm32AVX2
// vectorizes. Covers columns [0, n8).
func mulAddJTiles32(dst, a, b *Dense32, n8 int) {
	n := b.Cols
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j+8 <= n8; j += 8 {
			s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
			s4, s5, s6, s7 := drow[j+4], drow[j+5], drow[j+6], drow[j+7]
			for kk := 0; kk < k; kk++ {
				al := arow[kk]
				brow := b.Data[kk*n+j : kk*n+j+8]
				s0 += al * brow[0]
				s1 += al * brow[1]
				s2 += al * brow[2]
				s3 += al * brow[3]
				s4 += al * brow[4]
				s5 += al * brow[5]
				s6 += al * brow[6]
				s7 += al * brow[7]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			drow[j+4], drow[j+5], drow[j+6], drow[j+7] = s4, s5, s6, s7
		}
	}
}

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

// MulAddSparse32 computes dst += a * b skipping zero elements of a —
// the f32 counterpart of MulAddSparse for the decode path's one-hot
// step inputs. Serial by design (the fleet drives it per row).
func MulAddSparse32(dst, a, b *Dense32) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulAddSparse32 shape mismatch")
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// AddBiasRows32 adds bias vector b to every row of m in place.
func AddBiasRows32(m *Dense32, b []float32) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("mat: AddBiasRows32 bias len %d != cols %d", len(b), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range b {
			row[j] += v
		}
	}
}

// expChunk32 is the widening buffer length of ExpSlice32 — a multiple
// of 4 (the f64 vector kernel's lane granule) small enough to stay on
// the stack.
const expChunk32 = 128

// ExpSlice32 sets dst[i] = float32(math.Exp(float64(x[i]))) for every
// i: each f32 input is widened (exact), exponentiated at full double
// precision, and rounded once back to float32 — a correctly rounded f32
// exp for all practical purposes, with identical bits on every path.
// On amd64 the bulk widens through a stack chunk into the 4-lane
// expAVX2 kernel; elsewhere (and for the tail) it calls math.Exp. dst
// and x may alias exactly.
func ExpSlice32(dst, x []float32) {
	if len(dst) != len(x) {
		panic("mat: ExpSlice32 length mismatch")
	}
	i := 0
	if useBatchASM {
		var buf [expChunk32]float64
		for i+4 <= len(x) {
			n := len(x) - i
			if n > expChunk32 {
				n = expChunk32
			}
			n &^= 3
			for j := 0; j < n; j++ {
				buf[j] = float64(x[i+j])
			}
			expAVX2(&buf[0], &buf[0], n)
			for j := 0; j < n; j++ {
				dst[i+j] = float32(buf[j])
			}
			i += n
		}
	}
	for ; i < len(x); i++ {
		dst[i] = float32(math.Exp(float64(x[i])))
	}
}

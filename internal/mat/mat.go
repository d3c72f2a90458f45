// Package mat provides small dense linear-algebra primitives used by the
// neural-network and regression packages. Matrices are row-major and
// sized once — float64 everywhere but the f32 serving path — and all
// operations check dimensions and panic on mismatch, since a shape error
// is always a programming bug in this codebase. Every kernel runs on the
// calling goroutine: concurrency belongs to the callers (the training
// shards' and the experiment tasks' par.Do, the decode schedulers), so a
// product never opens a parallel region of its own.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a row-major matrix of float64 or float32. The two element
// types share every shape operation and, in the decode kernels, one
// generic body each (batch.go, panel.go); everything that trains or
// regresses is written against Dense alone.
type Matrix[T float32 | float64] struct {
	Rows, Cols int
	Data       []T
}

// Dense is the float64 matrix: training, regression and the bit-exact
// decode path.
type Dense = Matrix[float64]

// Dense32 is the float32 matrix of the f32 serving fast path (DESIGN.md
// §6.4): inference only, at twice the float64 kernels' AVX2 lane width,
// trading bounded output divergence (validated at snapshot publish) for
// throughput. Training never touches it.
type Dense32 = Matrix[float32]

func newMatrix[T float32 | float64](r, c int) *Matrix[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix[T]{Rows: r, Cols: c, Data: make([]T, r*c)}
}

// NewDense allocates a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense { return newMatrix[float64](r, c) }

// NewDense32 allocates a zeroed r-by-c float32 matrix.
func NewDense32(r, c int) *Dense32 { return newMatrix[float32](r, c) }

// FromSlice wraps data (not copied) as an r-by-c matrix.
func FromSlice[T float32 | float64](r, c int, data []T) *Matrix[T] {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Matrix[T]{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix[T]) Clone() *Matrix[T] {
	out := newMatrix[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Dense32 returns a rounded float32 copy of m (round-to-nearest-even
// per element). This is the weight-slab conversion the f32 serving path
// performs once at snapshot publish.
func (m *Matrix[T]) Dense32() *Dense32 {
	out := NewDense32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Zero sets all elements of m to zero.
func (m *Matrix[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements of m to v.
func (m *Matrix[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix[T]) SameShape(n *Matrix[T]) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

// SliceRows returns a view (not a copy) of rows [lo, hi).
func (m *Matrix[T]) SliceRows(lo, hi int) *Matrix[T] {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("mat: SliceRows [%d,%d) of %v", lo, hi, m))
	}
	return &Matrix[T]{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

func (m *Matrix[T]) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
}

// MulAdd computes dst += a * b with the dense kernel, with no
// per-element zero test (dense data makes that branch a mispredict;
// layer-0 feature encodings — one-hots, thermometers — call
// MulAddSparse instead). Every path accumulates each dst element's k
// terms in ascending order with a separately rounded multiply and add,
// so the dispatch below can never change a bit.
func MulAdd(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAdd shape mismatch %v * %v -> %v", a, b, dst))
	}
	k, n := a.Cols, b.Cols
	rowFlops := k * n
	if a.Rows*rowFlops >= packMinFlops {
		// Above the threshold the transpose-packed backward kernels
		// use, repack B into panel scratch and run the packed tile
		// kernel: contiguous panel loads amortised over the row sweep.
		mulAddPackedB(dst, a, b)
		return
	}
	// Below it — the one-row recurrent products of a training shard and
	// of StepForward (1×H · H×4H) — the product runs on the row-major
	// kernel: B is read once per row either way, so there
	// is nothing for a pack pass to amortise, and gemmRaw's register
	// tiles (AVX2, or the portable 4-column tiles) beat a
	// store-and-reload axpy sweep per k.
	gemmRaw(dst.Data, a.Data, b.Data, a.Rows, k, n)
}

// MulAddSparse computes dst += a * b, skipping zero elements of a: each
// row of a is scanned once for its non-zeros and the selected rows of b
// are summed into dst by the row-sum kernel (rowSum), so a row costs
// what its non-zeros cost — a 61-of-151 thermometer row as much as a
// one-hot — and a fully dense row costs the dense product plus the
// scan. It is the layer-0 kernel of every forward path. On finite b the
// result is MulAdd's bit for bit when dst holds no -0 (a skipped term
// would have added ±0; every dst element still takes its kept terms in
// ascending k); on a non-finite b element the skipped 0·Inf terms are
// the one difference. Allocation-free at any size.
func MulAddSparse[T float32 | float64](dst, a, b *Matrix[T]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAddSparse shape mismatch %v * %v -> %v", a, b, dst))
	}
	n := b.Cols
	var idx [sparseChunk]uint8
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k0 := 0; k0 < len(arow); k0 += sparseChunk {
			x := arow[k0:min(k0+sparseChunk, len(arow))]
			// Store every column, keep the non-zero ones: the conditional
			// increment compiles branch-free, and where a row's runs of ones
			// begin and end is not something a predictor can learn.
			cnt := 0
			for k, v := range x {
				idx[uint8(cnt)] = uint8(k)
				if v != 0 {
					cnt++
				}
			}
			if cnt > 0 {
				rowSum(drow, x, b.Data[k0*n:], idx[:cnt])
			}
		}
	}
}

// sparseChunk is how many columns of a row are scanned per rowSum call:
// a chunk's non-zero columns fit a uint8 index list on the stack, so
// the kernel needs no heap and no scratch parameter. Chunks run in
// ascending order and dst round-trips through memory exactly between
// them, so chunking cannot reorder an element's sum.
const sparseChunk = 256

// MulATB computes dst += aᵀ * b (a is kxm, b is kxn, dst is mxn).
// Above packMinFlops it packs aᵀ once and runs the cache-blocked
// batched kernel (see pack.go). Below, it streams a and b row-major
// (k outer). Both paths accumulate each dst element's k terms in
// ascending order, so they are bit-identical.
func MulATB(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATB shape mismatch %vᵀ * %v -> %v", a, b, dst))
	}
	m, n := a.Cols, b.Cols
	if m*a.Rows*n >= packMinFlops {
		mulATBPacked(dst, a, b)
		return
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Data[k*n : k*n+n]
		for i, av := range arow {
			axpy(av, brow, dst.Row(i))
		}
	}
}

// MulATBSparse computes dst += aᵀ * b, skipping zero elements of a —
// the gradient-side counterpart of MulAddSparse (a is then a one-hot
// input batch and almost every term vanishes).
func MulATBSparse(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulATBSparse shape mismatch %vᵀ * %v -> %v", a, b, dst))
	}
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Data[k*n : k*n+n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			axpy(av, brow, dst.Row(i))
		}
	}
}

// MulABT computes dst += a * bᵀ (a is mxk, b is nxk, dst is mxn), each
// dot product rounded before its one add into dst. Above packMinFlops
// it packs bᵀ once and runs the cache-blocked batched kernel through a
// zeroed panel, bit-identical to the dot-then-add loop (see pack.go).
// Training no longer calls it: a window's Backward multiplies by weight
// transposes taken once before its shard fan-out (TransposeInto, then
// MulAdd on a zeroed dst). Its one caller is the frozen benchmark's
// mat.abt_us probe, and the next benchmark revision decides whether it
// stays.
func MulABT(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulABT shape mismatch %v * %vᵀ -> %v", a, b, dst))
	}
	if a.Rows*a.Cols*b.Rows >= packMinFlops {
		mulABTPacked(dst, a, b)
		return
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] += dot(arow, b.Row(j))
		}
	}
}

// TransposeInto sets dst = aᵀ (dst is a.Cols x a.Rows and must not
// alias a). A caller that multiplies many x against one bᵀ — a training
// window, whose shards' Backward multiply by the same weight transposes
// at every step and layer — transposes once and calls MulAdd(dst, x,
// bT) on a zeroed dst instead of MulABT per product: from +0 the
// ascending-k sum is MulABT's dot bit for bit, and adding that dot to
// +0 returns it unchanged (a sum that starts at +0 can never be -0).
func TransposeInto(dst, a *Dense) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic(fmt.Sprintf("mat: TransposeInto shape mismatch %vᵀ -> %v", a, dst))
	}
	transposeInto(dst.Data, a)
}

// AddBiasRows adds bias vector b to every row of m in place.
func AddBiasRows[T float32 | float64](m *Matrix[T], b []T) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("mat: AddBiasRows bias len %d != cols %d", len(b), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range b {
			row[j] += v
		}
	}
}

// SumRows accumulates the column-wise sum of m into dst (len m.Cols).
func SumRows(dst []float64, m *Dense) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: SumRows dst len %d != cols %d", len(dst), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// Dot returns the inner product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return dot(a, b)
}

// dot is the unchecked kernel behind Dot. The adds stay sequential
// into one accumulator on purpose: the strict ascending-index
// summation order is what keeps every GEMM path — row-major, blocked,
// or packed — bit-identical, so a multi-accumulator split is off
// the table here. With the dependency chain serial either way, a
// 4-way manual unroll buys nothing and in fact ran nearly 2× slower
// on this host by paired alternating-median measurement of direct
// in-package calls (the compiler already eliminates the bounds checks
// from the range loop).
func dot(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes y += alpha*x element-wise.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	axpy(alpha, x, y)
}

// axpy is the unchecked kernel behind Axpy and the GEMM inner loops.
// Updates are element-wise, so the iteration shape cannot change the
// result. Re-measurement did not reproduce the +12% once claimed for
// a 4-way manual unroll: paired alternating-median timing of direct
// in-package calls swings ±20% between otherwise-identical builds as
// unrelated edits move code layout, with neither variant robustly
// ahead. The straight range loop ships because it is simpler and the
// compiler eliminates its bounds checks, which the unroll's double
// length guard defeats.
func axpy[T float32 | float64](alpha T, x, y []T) {
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// MaxAbs returns the largest absolute value in x (0 for empty input).
func MaxAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// SolveCholesky solves the symmetric positive-definite system A x = b in
// place, returning x. A is modified (its lower triangle holds the
// Cholesky factor on return). Returns false if A is not positive
// definite to working precision.
func SolveCholesky(a *Dense, b []float64) ([]float64, bool) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("mat: SolveCholesky shape mismatch")
	}
	// Cholesky factorization A = L Lᵀ, stored in lower triangle.
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := a.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 {
			return nil, false
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	x := make([]float64, n)
	copy(x, b)
	// Forward solve L y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		for k := 0; k < i; k++ {
			s -= a.At(i, k) * x[k]
		}
		x[i] = s / a.At(i, i)
	}
	// Back solve Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= a.At(k, i) * x[k]
		}
		x[i] = s / a.At(i, i)
	}
	return x, true
}

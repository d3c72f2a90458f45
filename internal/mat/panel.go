package mat

import (
	"fmt"
	"unsafe"
)

// Packed weight panels (DESIGN.md §6.5). The decode hot path
// multiplies small activation batches against the same immutable
// weight matrices every round; a row-major sweep of those matrices
// loads B with an n-element stride at every k step and re-fetches a
// gate slab wider than L1 from L2 once per activation row. Packed
// converts a weight matrix once — at snapshot publish, or per training
// window (Repack) — into j-tile-major panels: the columns are split
// into register-width tiles (16 then 4 float64 columns; 32 then 8
// float32 columns; a column-major tail below that), and each tile
// stores its k rows contiguously. The packed kernels then sweep a
// group of one to three adjacent tiles across all activation rows with
// sequential panel loads, so the group (k×16 float64 = 8 KB a tile at
// k=64) stays L1-resident for the whole row sweep instead of the full
// matrix streaming from L2 per row.
//
// Bit-compatibility: the panel layout permutes only the ADDRESS of
// each B element, never the accumulation order. Every packed kernel —
// assembly and portable, one tile or a group — accumulates each dst
// element's k terms in ascending k with a separate multiply and add,
// exactly like the scalar oracle mulAddRows. Packing therefore cannot
// change a single output bit, which is what lets a packed fleet be
// pinned against nn's scalar reference forward.
//
// One generic body serves both element types. What differs per type is
// the tile width — four AVX2 registers wide, one register narrow, so
// 16/4 float64 and 32/8 float32 columns (lanes) — and the assembly
// group kernels mulAddPackedRows calls for each.

const cacheLineBytes = 64

// alignedFloats returns an n-element zeroed slice whose backing array
// starts on a cache-line boundary. The Go allocator only guarantees
// element alignment, which lets two small slabs land on the same line;
// over-allocating by one line and slicing at the aligned offset means a
// panel never straddles a line it need not, and two decode fleets
// stepped on different cores never falsely share one. Alignment
// changes addresses only, never values.
func alignedFloats[T float32 | float64](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	raw := make([]T, n+cacheLineBytes/size)
	off := 0
	if rem := int(uintptr(unsafe.Pointer(&raw[0])) % cacheLineBytes); rem != 0 {
		off = (cacheLineBytes - rem) / size
	}
	return raw[off : off+n]
}

// NewAligned allocates a zeroed r-by-c matrix on a cache-line boundary
// (see alignedFloats): the slab allocator of the decode fleets.
func NewAligned[T float32 | float64](r, c int) *Matrix[T] {
	return FromSlice(r, c, alignedFloats[T](r*c))
}

// Packed is a weight matrix converted into j-tile-major panels for the
// packed kernels. A published model's panels are never repacked
// (scripts/check.sh), so they are safe to share across fleets.
type Packed[T float32 | float64] struct {
	Rows, Cols int // shape of the original (k×n) matrix
	data       []T
}

// PackedDense and PackedDense32 are the two panel types in use.
type (
	PackedDense   = Packed[float64]
	PackedDense32 = Packed[float32]
)

// Pack converts m into cache-blocked panels (see the file comment for
// the layout). The conversion is a pure copy — every element keeps its
// value — and allocates once; call it at publish time, not per GEMM.
func (m *Matrix[T]) Pack() *Packed[T] {
	p := &Packed[T]{Rows: m.Rows, Cols: m.Cols, data: alignedFloats[T](m.Rows * m.Cols)}
	panelCopy(p.data, m.Data, m.Rows, m.Cols)
	return p
}

// Pack32 is Pack. The name survives because bench/ packs its float32
// probe matrix through it and the harness is frozen; it goes with the
// next PR allowed to edit bench/.
func (m *Matrix[T]) Pack32() *Packed[T] { return m.Pack() }

// Repack refreshes p's panels in place from m, which must have p's
// shape: the per-window refresh of a training window's recurrent
// weights. It allocates nothing.
func (p *Packed[T]) Repack(m *Matrix[T]) {
	if m.Rows != p.Rows || m.Cols != p.Cols {
		panic(fmt.Sprintf("mat: Repack %dx%d into %dx%d panels", m.Rows, m.Cols, p.Rows, p.Cols))
	}
	panelCopy(p.data, m.Data, m.Rows, m.Cols)
}

func (p *Packed[T]) String() string {
	return fmt.Sprintf("PackedDense(%dx%d)", p.Rows, p.Cols)
}

// panelCopy packs the k×n row-major matrix rm into panel order: wide
// tiles first, then narrow tiles, then the column-major tail (a tail
// column is a tile of width 1), each tile k-major. Both slices hold k*n
// elements.
func panelCopy[T float32 | float64](panel, rm []T, k, n int) {
	narrow := lanes[T]()
	off, w := 0, 4*narrow
	for j0 := 0; j0 < n; j0 += w {
		if j0+w > n { // past the last tile of this width: narrow, then tail columns
			if w = narrow; j0+w > n {
				w = 1
			}
		}
		for kk := 0; kk < k; kk++ {
			copy(panel[off:off+w], rm[kk*n+j0:kk*n+j0+w])
			off += w
		}
	}
}

// MulAddPacked computes dst += a * b against a packed panel,
// bit-identically to MulAdd on the row-major matrix: same ascending-k
// accumulation per element, separate multiply and add. It stays on the
// calling goroutine at any size — the decode scheduler owns its own
// concurrency.
func MulAddPacked[T float32 | float64](dst, a *Matrix[T], b *Packed[T]) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulAddPacked shape mismatch %v * %v -> %v", a, b, dst))
	}
	mulAddPackedRows(dst, a, b)
}

// MulAddPacked32 is MulAddPacked; like Pack32, the name is kept for the
// frozen bench/ harness only.
func MulAddPacked32(dst, a *Dense32, b *PackedDense32) { MulAddPacked(dst, a, b) }

// groupL1Bytes bounds the panel one kernel call sweeps across more than
// two activation rows: a group of tiles serves the second and later rows
// from L1 only while its panel fits there beside the a and dst rows. A
// 48-column group at k = 200 (77 KB) does not, and ran 17 % slower than
// one tile a call at 64 rows.
const groupL1Bytes = 32 << 10

// groupTiles is how many consecutive tiles of tileBytes panel bytes each
// one kernel call takes at m activation rows: three at m <= 2, where the
// panel is read at most twice and residency buys nothing, otherwise as
// many as fit in groupL1Bytes, from one to three.
func groupTiles(m, tileBytes int) int {
	if m <= 2 {
		return 3
	}
	return max(1, min(3, groupL1Bytes/tileBytes))
}

// mulAddPackedRows runs the packed kernels over every dst row: the
// wide tiles in groups of up to three per kernel call (groupTiles), the
// narrow tiles (at most three) the same way, then the tail columns as
// interleaved chains. A group holds all its tiles' accumulators at once,
// so at one activation row a 96-column f64 gate matrix is two calls of
// twelve independent add chains instead of six calls of four.
func mulAddPackedRows[T float32 | float64](dst, a *Matrix[T], b *Packed[T]) {
	m, k, n := a.Rows, b.Rows, b.Cols
	if m == 0 || k == 0 {
		return
	}
	ad, dd := a.Data, dst.Data
	narrow := lanes[T]()
	off, j0 := 0, 0
	for w := 4 * narrow; w >= narrow; w /= 4 { // wide tiles, then narrow ones
		g := groupTiles(m, k*w*int(unsafe.Sizeof(dd[0])))
		for tiles := (n - j0) / w; tiles > 0; {
			t := min(g, tiles)
			group := b.data[off : off+t*k*w]
			if !useBatchASM {
				for i := 0; i < t; i++ {
					mulAddTile(dd[j0+i*w:], ad, group[i*k*w:(i+1)*k*w], m, k, n, w)
				}
			} else {
				// The assembly group kernel of T and w, called directly: a
				// helper, a func value or a type switch here costs a few
				// nanoseconds per call, which shows at one activation row.
				// The size test is a constant in each instantiation, and it
				// is what licenses the pointer casts.
				dp, ap, gp := unsafe.Pointer(&dd[j0]), unsafe.Pointer(&ad[0]), unsafe.Pointer(&group[0])
				switch is64, wide := unsafe.Sizeof(dd[0]) == 8, w > narrow; {
				case is64 && wide:
					gemmPacked16AVX2((*float64)(dp), (*float64)(ap), (*float64)(gp), m, k, n, t)
				case is64:
					gemmPacked4AVX2((*float64)(dp), (*float64)(ap), (*float64)(gp), m, k, n, t)
				case wide:
					gemmPacked32AVX2((*float32)(dp), (*float32)(ap), (*float32)(gp), m, k, n, t)
				default:
					gemmPacked8AVX2((*float32)(dp), (*float32)(ap), (*float32)(gp), m, k, n, t)
				}
			}
			j0 += t * w
			off += t * k * w
			tiles -= t
		}
	}
	if j0 < n {
		mulAddTail(dd[j0:], ad, b.data[off:], m, k, n, n-j0)
	}
}

// mulAddTail adds a panel's t tail columns (column-major, k elements
// each, at cols) into dst columns [0, t) for m rows. At one row a
// column's sum is a chain of k dependent adds, so three or four columns
// go in one pass of four interleaved chains (dot4), which costs about
// what one chain does; three columns run their last one twice and the
// spare chain's sum, computed exactly like the real one, is stored
// over it. One or two columns left run a chain each: a spare chain per
// real one measured slower. Every sum is the tiles' ascending-k
// separate multiply and add. The f64 tails of the decode heads (one
// and three columns) are one pass each.
func mulAddTail[T float32 | float64](dst, a, cols []T, m, k, n, t int) {
	for c := 0; c < t; {
		if t-c < 3 {
			col := cols[c*k:][:k]
			for i := 0; i < m; i++ {
				s := dst[i*n+c]
				for kk, av := range a[i*k:][:k] {
					s += av * col[kk]
				}
				dst[i*n+c] = s
			}
			c++
			continue
		}
		e := min(3, t-1-c) // the pass's last column, relative to c
		c0, c1, c2, c3 := cols[c*k:][:k], cols[(c+1)*k:][:k], cols[(c+2)*k:][:k], cols[(c+e)*k:][:k]
		for i := 0; i < m; i++ {
			d := dst[i*n+c:][:e+1]
			d[0], d[1], d[2], d[e] = dot4(a[i*k:][:k], c0, c1, c2, c3, d[0], d[1], d[2], d[e])
		}
		c += 4
	}
}

// dot4 returns s_j + Σ a[kk]·c_j[kk] for four columns c_j (each at
// least len(a) long), kk ascending, the four chains interleaved. It is
// not inlined: on its own the loop keeps its index and all four sums in
// registers, where inlined into mulAddTail the index spilled to the
// stack and each step waited on a store and a reload.
//
//go:noinline
func dot4[T float32 | float64](a, c0, c1, c2, c3 []T, s0, s1, s2, s3 T) (T, T, T, T) {
	c0, c1, c2, c3 = c0[:len(a)], c1[:len(a)], c2[:len(a)], c3[:len(a)]
	for kk, av := range a {
		s0 += av * c0[kk]
		s1 += av * c1[kk]
		s2 += av * c2[kk]
		s3 += av * c3[kk]
	}
	return s0, s1, s2, s3
}

// mulAddTile is the portable packed kernel: columns [0, w&^3) of one
// w-column panel tile swept across m rows in 4-column register groups,
// k innermost and ascending with separate multiply and add — the
// rounding sequence the assembly kernels vectorize, so assembly on/off
// cannot change bits. dst is addressed at the tile's first column with
// row stride n; tile is the k×w panel tile.
func mulAddTile[T float32 | float64](dst, a, tile []T, m, k, n, w int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		drow := dst[i*n : i*n+w]
		for j := 0; j+4 <= w; j += 4 {
			s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
			for kk, av := range arow {
				trow := tile[kk*w+j : kk*w+j+4]
				s0 += av * trow[0]
				s1 += av * trow[1]
				s2 += av * trow[2]
				s3 += av * trow[3]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
	}
}

// mulAddPackedB is MulAdd's large-product path: pack b once into pooled
// panel scratch, then run the packed kernel over all of a. The pack pass
// costs one extra sweep over b, amortized across a.Rows row sweeps that
// each replace strided B loads with contiguous L1-resident tiles;
// paired measurement at the training and BPTT shapes put the crossover
// below packMinFlops.
// Bit-identical to mulAddRows: same ascending-k order per element.
func mulAddPackedB(dst, a, b *Dense) {
	k, n := b.Rows, b.Cols
	sp := packGet(k * n)
	pb := PackedDense{Rows: k, Cols: n, data: *sp}
	panelCopy(pb.data, b.Data, k, n)
	mulAddPackedRows(dst, a, &pb)
	packPut(sp)
}

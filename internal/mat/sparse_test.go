package mat

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// mulAddSparseRef is the scalar oracle of the row-sum kernel: every
// output element takes the terms of its row's non-zero inputs in
// ascending k, each a separately rounded multiply and add. It never
// skips the multiply, so agreeing with it proves the kernel's bare add
// on x == 1 is exact.
func mulAddSparseRef[T float32 | float64](dst, a, b *Matrix[T]) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := dst.Data[i*n+j]
			for kk := 0; kk < k; kk++ {
				if v := a.Data[i*k+kk]; v != 0 {
					s += v * b.Data[kk*n+j]
				}
			}
			dst.Data[i*n+j] = s
		}
	}
}

func randMatrix[T float32 | float64](r, c int, seed int64) *Matrix[T] {
	g := rng.New(seed)
	m := newMatrix[T](r, c)
	for i := range m.Data {
		m.Data[i] = T(g.NormFloat64())
	}
	return m
}

// nextAfterOne is the smallest value above 1 at T: 1.0000000000000002
// at float64. The kernel tests x == 1 on the bits, and this neighbour
// must take the multiply.
func nextAfterOne[T float32 | float64]() T {
	var z T
	if _, ok := any(z).(float32); ok {
		return T(math.Nextafter32(1, 2))
	}
	return T(math.Nextafter(1, 2))
}

// sparsePatterns names the input rows of sparseInput, one per row.
var sparsePatterns = []string{
	"all-zero", "all-ones", "thermometer", "lifetime", "one-hot",
	"sparse non-unit", "dense non-unit", "-0 and 1", "1 next to 1+ulp",
}

// sparseInput builds one row per entry of sparsePatterns at width k.
func sparseInput[T float32 | float64](k int, seed int64) *Matrix[T] {
	g := rng.New(seed)
	a := newMatrix[T](len(sparsePatterns), k)
	negZero := T(math.Copysign(0, -1))
	for i := range sparsePatterns {
		row := a.Row(i)
		switch sparsePatterns[i] {
		case "all-ones":
			for j := range row {
				row[j] = 1
			}
		case "thermometer":
			for j := 0; j < (2*k+4)/5; j++ {
				row[j] = 1
			}
		case "lifetime":
			// The hazard LSTM's input in miniature: one-hots, a real-valued
			// column and two thermometer runs, ~40 % non-zero.
			q := k / 4
			row[g.Intn(q+1)] = 1
			row[q] = T(math.Log1p(float64(1 + g.Intn(9))))
			for j := q + 1; j < q+1+(k-q-1)*3/8; j++ {
				row[j] = 1
			}
			for j := k - 1 - g.Intn(q+1); j < k; j++ {
				row[j] = 1
			}
		case "one-hot":
			row[g.Intn(k)] = 1
		case "sparse non-unit":
			for j := range row {
				if g.Intn(4) == 0 {
					row[j] = T(g.NormFloat64())
				}
			}
		case "dense non-unit":
			for j := range row {
				row[j] = T(g.NormFloat64())
			}
		case "-0 and 1":
			for j := range row {
				row[j] = negZero
				if j%3 == 1 {
					row[j] = 1
				}
			}
		case "1 next to 1+ulp":
			for j := range row {
				switch j % 4 {
				case 0:
					row[j] = 1
				case 1:
					row[j] = nextAfterOne[T]()
				}
			}
		}
	}
	return a
}

func sameBits[T float32 | float64](x, y T) bool {
	return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
}

// testMulAddSparseParity pins the row-sum kernel, at element type T and
// on whichever kernel tier is enabled, to the scalar ascending-k oracle
// and — the data being finite and dst free of -0 — to the dense
// product (MulAddPacked): over output widths covering the widest register block,
// both narrower ones and the scalar tail at either type, and input
// widths on both sides of the sparseChunk boundary.
func testMulAddSparseParity[T float32 | float64](t *testing.T) {
	for _, n := range []int{3, 4, 17, 47, 96, 192, 800} {
		for _, k := range []int{1, 26, 151, 255, 256, 257, 600} {
			a := sparseInput[T](k, int64(k))
			b := randMatrix[T](k, n, 2)
			base := randMatrix[T](a.Rows, n, 3)
			want, dense := base.Clone(), base.Clone()
			mulAddSparseRef(want, a, b)
			MulAddPacked(dense, a, b.Pack())
			got := base.Clone()
			MulAddSparse(got, a, b)
			for i := range got.Data {
				if !sameBits(got.Data[i], want.Data[i]) || !sameBits(got.Data[i], dense.Data[i]) {
					t.Fatalf("k=%d n=%d row %q col %d: got %v, oracle %v, dense %v",
						k, n, sparsePatterns[i/n], i%n, got.Data[i], want.Data[i], dense.Data[i])
				}
			}
		}
	}
}

func TestMulAddSparseParity(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		t.Run("f64", testMulAddSparseParity[float64])
		t.Run("f32", testMulAddSparseParity[float32])
	})
}

// TestMulAddSparseSkipsNonFinite pins the one place skip-zero and dense
// part ways: a zero input never touches its weight row, so an Inf or
// NaN there stays out of the sum (the dense product would make it NaN).
func TestMulAddSparseSkipsNonFinite(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		a := sparseInput[float64](151, 1)
		b := randMatrix[float64](151, 96, 2)
		clean := NewDense(a.Rows, 96)
		MulAddSparse(clean, a, b)
		for i := 0; i < a.Rows; i++ {
			// Poison every weight row this input row does not select.
			pb := b.Clone()
			for k, v := range a.Row(i) {
				if v == 0 {
					pb.Row(k)[k%96] = math.Inf(1 - 2*(k%2))
					pb.Row(k)[(k+1)%96] = math.NaN()
				}
			}
			got := NewDense(1, 96)
			MulAddSparse(got, a.SliceRows(i, i+1), pb)
			for j, v := range got.Data {
				if !sameBits(v, clean.At(i, j)) {
					t.Fatalf("row %q col %d: %v with unselected rows poisoned, %v clean", sparsePatterns[i], j, v, clean.At(i, j))
				}
			}
		}
	})
}

// FuzzMulAddSparse feeds random shapes, densities and value mixes
// (ones, non-unit values, -0, 1+ulp) through the row-sum kernel at both
// element types and both kernel tiers and bit-compares against the
// scalar oracle.
func FuzzMulAddSparse(f *testing.F) {
	f.Add(uint8(1), uint16(151), uint8(96), uint8(100), int64(1))
	f.Add(uint8(8), uint16(26), uint8(96), uint8(10), int64(2))
	f.Add(uint8(3), uint16(257), uint8(47), uint8(255), int64(3))
	f.Add(uint8(2), uint16(600), uint8(17), uint8(128), int64(4))
	f.Add(uint8(5), uint16(255), uint8(3), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, mm uint8, kk uint16, nn, density uint8, seed int64) {
		m, k, n := int(mm)%9, int(kk)%700, int(nn)%200
		if m == 0 || k == 0 || n == 0 {
			return
		}
		withBatchASM(t, func(t *testing.T) {
			fuzzMulAddSparse[float64](t, m, k, n, int(density), seed)
			fuzzMulAddSparse[float32](t, m, k, n, int(density), seed)
		})
	})
}

func fuzzMulAddSparse[T float32 | float64](t *testing.T, m, k, n, density int, seed int64) {
	g := rng.New(seed)
	a := newMatrix[T](m, k)
	for i := range a.Data {
		if g.Intn(256) >= density {
			continue
		}
		switch g.Intn(6) {
		case 0:
			a.Data[i] = T(g.NormFloat64())
		case 1:
			a.Data[i] = T(math.Copysign(0, -1))
		case 2:
			a.Data[i] = nextAfterOne[T]()
		default:
			a.Data[i] = 1
		}
	}
	b := randMatrix[T](k, n, seed+1)
	want := randMatrix[T](m, n, seed+2)
	got := want.Clone()
	mulAddSparseRef(want, a, b)
	MulAddSparse(got, a, b)
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%T %dx%dx%d density %d: elem %d: got %v want %v", got.Data[i], m, k, n, density, i, got.Data[i], want.Data[i])
		}
	}
}

// atbInput builds a k×m layer-0 input batch of one encoding: one-hot
// rows, 40 % thermometer rows (the lifetime net's density) or dense
// normal draws.
func atbInput(kind string, k, m int, seed int64) *Dense {
	g := rng.New(seed)
	a := NewDense(k, m)
	for r := 0; r < k; r++ {
		row := a.Row(r)
		switch kind {
		case "one-hot":
			row[g.Intn(m)] = 1
		case "thermometer":
			for j := 0; j < (2*m+4)/5; j++ {
				row[(j+r)%m] = 1
			}
		case "dense":
			for j := range row {
				row[j] = g.NormFloat64()
			}
		}
	}
	return a
}

// TestMulATBSparseMatchesMulATB pins the layer-0 weight-gradient
// kernels to each other: on finite data, into a dst free of -0, the
// skip-zero MulATBSparse and the dense MulATB give the same bits, on
// both tiers, on both sides of packMinFlops (a one-row shard's window
// and the full batch's), for one-hot, thermometer and dense inputs and
// signed zeros and denormals in b. That is what lets Backward choose
// the kernel once per fit rather than per shard-window. The one
// difference, on non-finite b, is pinned below it.
func TestMulATBSparseMatchesMulATB(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		shapes := [][3]int{ // {k, m, n}: a is k×m, b is k×n, dst m×n
			{4, 57, 24}, {3, 20, 5}, {1, 151, 17}, // under packMinFlops
			{96, 57, 96}, {96, 151, 96}, {768, 57, 96}, // over it
		}
		for _, sh := range shapes {
			k, m, n := sh[0], sh[1], sh[2]
			if k*m*n >= packMinFlops != (k >= 96) {
				t.Fatalf("%v is on the wrong side of packMinFlops", sh)
			}
			for _, kind := range []string{"one-hot", "thermometer", "dense"} {
				a := atbInput(kind, k, m, int64(k+m))
				b := denseRand(k, n, 2)
				for i := 0; i < len(b.Data); i += 5 {
					b.Data[i] = []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-308}[(i/5)%4]
				}
				for _, base := range []*Dense{NewDense(m, n), denseRand(m, n, 3)} {
					dense, sparse := base.Clone(), base.Clone()
					MulATB(dense, a, b)
					MulATBSparse(sparse, a, b)
					for i := range dense.Data {
						if !sameBits(sparse.Data[i], dense.Data[i]) {
							t.Fatalf("%v %s: elem %d: MulATBSparse %v, MulATB %v", sh, kind, i, sparse.Data[i], dense.Data[i])
						}
					}
				}
			}
		}
	})
}

// TestMulATBSparseSkipsNonFinite pins the one place the two part ways:
// a zero input never meets its row of b, so an Inf or NaN there stays
// out of the sparse kernel's sums where the dense product makes them
// NaN (a skipped 0·Inf).
func TestMulATBSparseSkipsNonFinite(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		a := atbInput("one-hot", 96, 57, 1)
		b := denseRand(96, 24, 2)
		clean := NewDense(57, 24)
		MulATBSparse(clean, a, b)
		for r := 0; r < b.Rows; r++ {
			b.Row(r)[r%24] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r%3]
		}
		sparse, dense := NewDense(57, 24), NewDense(57, 24)
		MulATBSparse(sparse, a, b)
		MulATB(dense, a, b)
		skipped := 0
		for i := 0; i < 57; i++ {
			for j := 0; j < 24; j++ {
				// Does a selected row of b (a[r][i] != 0) carry the poison at
				// column j, and does an unselected one?
				var hit, miss bool
				for r := 0; r < a.Rows; r++ {
					if !math.IsInf(b.At(r, j), 0) && !math.IsNaN(b.At(r, j)) {
						continue
					}
					hit = hit || a.At(r, i) != 0
					miss = miss || a.At(r, i) == 0
				}
				if !hit && !sameBits(sparse.At(i, j), clean.At(i, j)) {
					t.Fatalf("dst[%d][%d]: %v with unselected rows poisoned, %v clean", i, j, sparse.At(i, j), clean.At(i, j))
				}
				if miss && !math.IsNaN(dense.At(i, j)) {
					t.Fatalf("dst[%d][%d]: dense %v, want the NaN of a 0·Inf or 0·NaN term", i, j, dense.At(i, j))
				}
				if !hit && miss {
					skipped++
				}
			}
		}
		if skipped == 0 {
			t.Fatal("no element isolates a skipped non-finite term")
		}
	})
}

package mat_test

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/mat/mattest"
	"repro/internal/rng"
)

// Training's three accumulating sweeps run on the row-sum kernel:
// layer 0's weight gradient (TransposeInto, then MulAddSparse), the
// bias gradients (SumRows) and the shard commit (Add). The tests below
// hold each to the product or loop it replaced, bit for bit, on both
// kernel tiers.

// gradRows are the T·b row counts a window's gradient sweeps see: one
// step, a one-row shard's window, both sides of sparseChunk (256) and a
// full batch's window.
var gradRows = []int{1, 96, 255, 256, 257, 768}

// layer0Input builds a rows×width layer-0 input batch of one encoding:
// "one-hot", 12 ones in a 57-wide row (the flavor net's token rows), or
// "thermometer", ~40 % non-zero with one real-valued column (the
// lifetime net's 151-wide rows).
func layer0Input(kind string, rows int, seed int64) *mat.Dense {
	g := rng.New(seed)
	var x *mat.Dense
	switch kind {
	case "one-hot":
		x = mat.NewDense(rows, 57)
		for r := 0; r < rows; r++ {
			row := x.Row(r)
			for nz := 0; nz < 12; {
				if j := g.Intn(57); row[j] == 0 {
					row[j], nz = 1, nz+1
				}
			}
		}
	case "thermometer":
		x = mat.NewDense(rows, 151)
		for r := 0; r < rows; r++ {
			row := x.Row(r)
			row[g.Intn(37)] = 1
			row[37] = math.Log1p(float64(1 + g.Intn(9)))
			for j := 38; j < 38+g.Intn(60); j++ {
				row[j] = 1
			}
			for j := 150 - g.Intn(40); j < 151; j++ {
				row[j] = 1
			}
		}
	}
	return x
}

// gradientRows is a rows×n pre-activation gradient: normal draws with
// +0, -0 and denormals planted.
func gradientRows(rows, n int, seed int64) *mat.Dense {
	g := rng.New(seed)
	dz := mat.NewDense(rows, n)
	for i := range dz.Data {
		dz.Data[i] = g.NormFloat64()
		if i%5 == 0 {
			dz.Data[i] = []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-308}[(i/5)%4]
		}
	}
	return dz
}

// layer0Grad is layer 0's weight gradient as Backward takes it: dst +=
// xᵀ·dz by transposing x and summing, per input column, the dz rows of
// the steps where that column is non-zero.
func layer0Grad(dst, x, dz *mat.Dense) {
	xT := mat.NewDense(x.Cols, x.Rows)
	mat.TransposeInto(xT, x)
	mat.MulAddSparse(dst, xT, dz)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLayer0GradMatchesMulATB pins the row-sum layer-0 weight gradient
// to the dense MulATB into a zeroed dst: on finite data a skipped term
// is a ±0 added to a sum that started at +0, which changes no bit. Both
// input encodings, every row count of gradRows, a register-block and a
// tail-only output width, ±0 and denormals in dz.
func TestLayer0GradMatchesMulATB(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) {
		for _, kind := range []string{"one-hot", "thermometer"} {
			for _, rows := range gradRows {
				for _, n := range []int{96, 17} {
					x := layer0Input(kind, rows, int64(rows))
					dz := gradientRows(rows, n, 2)
					dense, sparse := mat.NewDense(x.Cols, n), mat.NewDense(x.Cols, n)
					mat.MulATB(dense, x, dz)
					layer0Grad(sparse, x, dz)
					for i := range dense.Data {
						if !sameBits(sparse.Data[i], dense.Data[i]) {
							t.Fatalf("%s rows=%d n=%d: elem %d: row sum %v, MulATB %v", kind, rows, n, i, sparse.Data[i], dense.Data[i])
						}
					}
				}
			}
		}
	})
}

// TestLayer0GradSkipsNonFinite pins the one place the row-sum gradient
// and MulATB part ways, for both nets' encodings: a zero input never
// meets its dz row, so an Inf or NaN there stays out of the row sum
// where the dense product makes it NaN (a skipped 0·Inf).
func TestLayer0GradSkipsNonFinite(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) {
		for _, kind := range []string{"one-hot", "thermometer"} {
			x := layer0Input(kind, 96, 1)
			dz := gradientRows(96, 24, 2)
			clean := mat.NewDense(x.Cols, 24)
			layer0Grad(clean, x, dz)
			for r := 0; r < dz.Rows; r++ {
				dz.Row(r)[r%24] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r%3]
			}
			sparse, dense := mat.NewDense(x.Cols, 24), mat.NewDense(x.Cols, 24)
			layer0Grad(sparse, x, dz)
			mat.MulATB(dense, x, dz)
			skipped := 0
			for i := 0; i < x.Cols; i++ {
				for j := 0; j < 24; j++ {
					// Does a selected dz row (x[r][i] != 0) carry the poison
					// at column j, and does an unselected one?
					var hit, miss bool
					for r := 0; r < dz.Rows; r++ {
						if v := dz.At(r, j); !math.IsInf(v, 0) && !math.IsNaN(v) {
							continue
						}
						hit = hit || x.At(r, i) != 0
						miss = miss || x.At(r, i) == 0
					}
					if !hit && !sameBits(sparse.At(i, j), clean.At(i, j)) {
						t.Fatalf("%s dst[%d][%d]: %v with unselected rows poisoned, %v clean", kind, i, j, sparse.At(i, j), clean.At(i, j))
					}
					if miss && !math.IsNaN(dense.At(i, j)) {
						t.Fatalf("%s dst[%d][%d]: MulATB %v, want the NaN of a 0·Inf or 0·NaN term", kind, i, j, dense.At(i, j))
					}
					if !hit && miss {
						skipped++
					}
				}
			}
			if skipped == 0 {
				t.Fatalf("%s: no element isolates a skipped non-finite term", kind)
			}
		}
	})
}

// TestSumRowsAndAddMatchLoops pins the bias-gradient sum and the commit
// add to the plain loops they replaced: SumRows to dst[j] += m[i][j]
// for i ascending, at every row count of gradRows and a register-block
// and a tail-only width, onto a dst holding ±0; Add to y[i] += x[i] at
// lengths from one element to a lifetime net's Wx gradient.
func TestSumRowsAndAddMatchLoops(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) {
		for _, rows := range gradRows {
			for _, n := range []int{96, 17} {
				m := gradientRows(rows, n, int64(rows))
				base := gradientRows(1, n, 3).Data
				base[1], base[2] = 0, math.Copysign(0, -1)
				want, got := append([]float64(nil), base...), append([]float64(nil), base...)
				for i := 0; i < rows; i++ {
					for j, v := range m.Row(i) {
						want[j] += v
					}
				}
				mat.SumRows(got, m)
				for j := range want {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("SumRows rows=%d n=%d col %d: %v, loop %v", rows, n, j, got[j], want[j])
					}
				}
			}
		}
		for _, n := range []int{1, 3, 17, 96, 24 * 96, 151 * 96} {
			x, y := gradientRows(1, n, 4).Data, gradientRows(1, n, 5).Data
			want := append([]float64(nil), y...)
			for i, v := range x {
				want[i] += v
			}
			mat.Add(y, x)
			for i := range want {
				if !sameBits(y[i], want[i]) {
					t.Fatalf("Add len %d elem %d: %v, loop %v", n, i, y[i], want[i])
				}
			}
		}
	})
}

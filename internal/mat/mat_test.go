package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mulAddRows is the kernel MulAdd ran below the pack threshold until
// its small products moved onto gemmRaw: dst[lo:hi] += a[lo:hi] * b by
// axpy rows, k-blocked, each dst element's k terms ascending. Kept as
// the bit-exactness oracle every dense GEMM path is compared against.
func mulAddRows(dst, a, b *Dense, lo, hi int) {
	const blockK = 64
	n := b.Cols
	for k0 := 0; k0 < a.Cols; k0 += blockK {
		k1 := min(k0+blockK, a.Cols)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for k := k0; k < k1; k++ {
				axpy(arow[k], b.Data[k*n:k*n+n], drow)
			}
		}
	}
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v len=%d", m, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewDense(-1, 2)
}

func TestFromSliceAndAtSet(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At wrong: %v %v", m.At(0, 2), m.At(1, 0))
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("Set failed")
	}
}

func TestFromSliceLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong length")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row should be a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

// mul computes dst = a * b through MulAdd on a zeroed dst.
func mul(dst, a, b *Dense) {
	dst.Zero()
	MulAdd(dst, a, b)
}

func TestMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewDense(2, 2)
	mul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("Mul[%d]=%v want %v", i, dst.Data[i], w)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	mul(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2))
}

// naive reference implementations for property checks
func refMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randDense(r *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func TestMulAgainstReferenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := randDense(r, m, k), randDense(r, k, n)
		got := NewDense(m, n)
		mul(got, a, b)
		want := refMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("iter %d: Mul mismatch at %d: %v vs %v", iter, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulATBMatchesExplicitTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 30; iter++ {
		k, m, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b := randDense(r, k, m), randDense(r, k, n)
		got := NewDense(m, n)
		MulATB(got, a, b)
		at := NewDense(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want := refMul(at, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("MulATB mismatch at %d", i)
			}
		}
	}
}

func TestMulABTMatchesExplicitTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b := randDense(r, m, k), randDense(r, n, k)
		got := NewDense(m, n)
		MulABT(got, a, b)
		bt := NewDense(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		want := refMul(a, bt)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-12) {
				t.Fatalf("MulABT mismatch at %d", i)
			}
		}
	}
}

func TestMulAddAccumulates(t *testing.T) {
	a := FromSlice(1, 1, []float64{2})
	b := FromSlice(1, 1, []float64{3})
	dst := FromSlice(1, 1, []float64{10})
	MulAdd(dst, a, b)
	if dst.At(0, 0) != 16 {
		t.Fatalf("MulAdd got %v want 16", dst.At(0, 0))
	}
}

func TestAddBiasRowsAndSumRows(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	AddBiasRows(m, []float64{10, 20})
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddBiasRows wrong: %v", m.Data)
	}
	sum := make([]float64, 2)
	SumRows(sum, m)
	if sum[0] != 11+13 || sum[1] != 22+24 {
		t.Fatalf("SumRows wrong: %v", sum)
	}
}

func TestDotAxpyScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot got %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[2] != 7 {
		t.Fatalf("Axpy wrong: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 {
		t.Fatalf("Scale wrong: %v", y)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 got %v", Norm2(x))
	}
	if Norm1(x) != 7 {
		t.Fatalf("Norm1 got %v", Norm1(x))
	}
	if MaxAbs(x) != 4 {
		t.Fatalf("MaxAbs got %v", MaxAbs(x))
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("MaxAbs(nil) should be 0")
	}
}

func TestSolveCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0]
	a := FromSlice(2, 2, []float64{4, 2, 2, 3})
	x, ok := SolveCholesky(a, []float64{2, 1})
	if !ok {
		t.Fatal("SolveCholesky failed on SPD matrix")
	}
	if !almostEq(x[0], 0.5, 1e-12) || !almostEq(x[1], 0, 1e-12) {
		t.Fatalf("x = %v, want [0.5 0]", x)
	}
}

func TestSolveCholeskyNotSPD(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if _, ok := SolveCholesky(a, []float64{1, 1}); ok {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestSolveCholeskyRandomSPD(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		n := 1 + r.Intn(8)
		g := randDense(r, n, n)
		// A = GᵀG + I is SPD.
		a := NewDense(n, n)
		MulATB(a, g, g)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		orig := a.Clone()
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, ok := SolveCholesky(a, b)
		if !ok {
			t.Fatal("SPD solve failed")
		}
		// Check A x = b with the original matrix.
		for i := 0; i < n; i++ {
			if got := Dot(orig.Row(i), x); !almostEq(got, b[i], 1e-8) {
				t.Fatalf("residual row %d: %v vs %v", i, got, b[i])
			}
		}
	}
}

func TestDotCommutativeQuick(t *testing.T) {
	f := func(a, b [4]float64) bool {
		x, y := Dot(a[:], b[:]), Dot(b[:], a[:])
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulDistributiveQuick(t *testing.T) {
	// (A+B)*C == A*C + B*C within tolerance.
	f := func(av, bv, cv [4]float64) bool {
		a := FromSlice(2, 2, av[:])
		b := FromSlice(2, 2, bv[:])
		c := FromSlice(2, 2, cv[:])
		for _, v := range append(append(append([]float64{}, av[:]...), bv[:]...), cv[:]...) {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return true // skip pathological inputs
			}
		}
		ab := NewDense(2, 2)
		for i, v := range a.Data {
			ab.Data[i] = v + b.Data[i]
		}
		lhs := NewDense(2, 2)
		mul(lhs, ab, c)
		r1 := NewDense(2, 2)
		mul(r1, a, c)
		r2 := NewDense(2, 2)
		mul(r2, b, c)
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], r1.Data[i]+r2.Data[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

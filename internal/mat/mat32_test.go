package mat

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/rng"
)

func dense32Rand(r, c int, seed int64) *Dense32 {
	g := rng.New(seed)
	m := NewDense32(r, c)
	for i := range m.Data {
		m.Data[i] = float32(g.NormFloat64())
	}
	return m
}

// noFMA runs f as the "nofma" subtest. The f32 GEMMs have one rounding
// contract — a separately rounded multiply and add per term — and the
// subtest name says which; it is unchanged from when a fused variant
// sat beside it, so the test IDs stay comparable across commits.
func noFMA(t *testing.T, f func(t *testing.T)) { t.Run("nofma", f) }

// mulAdd32Ref is the naive triple loop: ascending k, one
// rounding per multiply and add. Both kernel paths must match it
// bit-for-bit, which transitively makes asm and fallback identical.
func mulAdd32Ref(dst, a, b *Dense32) {
	m, k, n := a.Rows, a.Cols, b.Cols
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := dst.Data[i*n+j]
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			dst.Data[i*n+j] = s
		}
	}
}

// TestMulAddSparse32Matches checks the zero-skipping kernel against
// the naive float32 reference on one-hot rows (where skipped terms are
// exact zeros, the two are bit-identical).
func TestMulAddSparse32Matches(t *testing.T) {
	noFMA(t, func(t *testing.T) {
		g := rng.New(7)
		a := NewDense32(9, 26)
		for i := 0; i < a.Rows; i++ {
			a.Row(i)[g.Intn(a.Cols)] = 1
		}
		b := dense32Rand(26, 96, 2)
		want := dense32Rand(9, 96, 3)
		got := NewDense32(9, 96)
		copy(got.Data, want.Data)
		mulAdd32Ref(want, a, b)
		MulAddSparse(got, a, b)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("elem %d: got %v want %v", i, got.Data[i], want.Data[i])
			}
		}
	})
}

// TestFMA32Exact pins fma32 against arbitrary-precision arithmetic:
// for finite inputs the result must be the correctly rounded (nearest,
// ties to even) float32 of the exact a·b+c. Inputs include directed
// double-rounding traps — products whose double sum with c lands
// exactly between float32 neighbors plus a sliver only visible beyond
// double precision — which the naive float32(float64 expression)
// mis-rounds; the round-to-odd step exists for exactly these.
func TestFMA32Exact(t *testing.T) {
	check := func(a, b, c float32) {
		got := fma32(a, b, c)
		exact := new(big.Float).SetPrec(200)
		exact.Mul(big.NewFloat(float64(a)), big.NewFloat(float64(b)))
		exact.Add(exact, big.NewFloat(float64(c)))
		var want float32
		if exact.Sign() == 0 {
			// Exact cancellation: the sign of the zero follows IEEE addition
			// of the (exact) double product and addend.
			want = float32(float64(a)*float64(b) + float64(c))
		} else {
			want, _ = exact.Float32()
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%x, %x, %x) = %x, want %x",
				a, b, c, math.Float32bits(got), math.Float32bits(want))
		}
	}

	// Directed: specials, signed zeros, exact cancellation, denormals,
	// and overflow.
	f32 := math.Float32frombits
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	directed := [][3]float32{
		{0, 0, 0}, {1, 1, -1}, {1.5, 2, -3}, {-1.5, 2, 3},
		{1, -1, 1}, {3, 7, -21},
		{f32(0x00000001), f32(0x00000001), 0},   // denormal² underflows
		{f32(0x00800000), 0.5, f32(0x00000001)}, // denormal arithmetic
		{f32(0x7F7FFFFF), 2, 0},                 // overflow to +Inf
		{f32(0x7F7FFFFF), 1, f32(0x7F7FFFFF)},   // overflow via add
		{f32(0x34000001), f32(0x34000001), 1},   // tiny product vs 1: sticky bits far below
		{f32(0x3F800001), f32(0x3F800001), -1},  // (1+ε)² - 1
		{f32(0x3F800001), f32(0xBF800001), 1},   // 1 - (1+ε)²
		{1e19, 1e19, -inf}, {inf, 1, 1}, {1, inf, -inf},
	}
	for _, d := range directed {
		a, b, c := d[0], d[1], d[2]
		got := fma32(a, b, c)
		if math.IsInf(float64(a)*float64(b)+float64(c), 0) || math.IsNaN(float64(a)*float64(b)+float64(c)) {
			want := float32(float64(a)*float64(b) + float64(c))
			if math.Float32bits(got) != math.Float32bits(want) &&
				!(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
				t.Fatalf("fma32(%v, %v, %v) = %v, want %v", a, b, c, got, want)
			}
			continue
		}
		check(a, b, c)
	}
	if got := fma32(nan, 1, 1); !math.IsNaN(float64(got)) {
		t.Fatalf("fma32(NaN,1,1) = %v", got)
	}

	// Randomized sweep across mixed magnitudes, biased toward near
	// cancellation (c ≈ -a·b) where double rounding actually bites.
	s := uint64(99)
	next := func() float32 {
		s = s*6364136223846793005 + 1442695040888963407
		bits := uint32(s >> 32)
		// Clamp exponent into the finite range, keep sign and mantissa.
		exp := (bits >> 23) & 0xFF
		if exp == 0xFF {
			exp = 0xFE
		}
		return math.Float32frombits(bits&0x807FFFFF | exp<<23)
	}
	for i := 0; i < 50000; i++ {
		a, b := next(), next()
		var c float32
		switch i % 3 {
		case 0:
			c = next()
		case 1:
			c = -a * b // near-cancellation: error term dominates
		case 2:
			c = float32(-float64(a) * float64(b) * 1.0000001)
		}
		if math.IsInf(float64(a)*float64(b)+float64(c), 0) {
			continue
		}
		check(a, b, c)
	}
}

// TestBatchKernels32NoAlloc pins the f32 serving kernels at zero
// allocations.
func TestBatchKernels32NoAlloc(t *testing.T) {
	a := dense32Rand(8, 24, 1)
	b := dense32Rand(24, 96, 2)
	dst := NewDense32(8, 96)
	x := dense32Rand(1, 96, 3).Data
	y := make([]float32, 96)
	p := b.Pack()
	if n := testing.AllocsPerRun(100, func() {
		MulAddPacked(dst, a, p)
		SigmoidSlice32(y, x)
	}); n != 0 {
		t.Fatalf("f32 kernels allocated %v per run", n)
	}
}

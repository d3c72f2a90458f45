package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// actCases covers every branch of the scalar activations: ordinary
// gate pre-activations, the tanh poly/exp/saturation regions and their
// boundaries, signed zeros, saturating magnitudes, and non-finites.
func actCases() []float64 {
	cases := []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300,
		0.1, -0.1, 0.624999, -0.624999, 0.625, -0.625, 0.626, -0.626,
		1, -1, 5, -5, 20, -20,
		44.014, -44.014, 44.0149, -44.0149, 44.015, -44.015, 50, -50,
		700, -700, 710, -710, 745.2, -745.2,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	// The kernels' branch and path edges to the ulp: math.Tanh's
	// polynomial and saturation cutoffs, the f64 exp fast path's bound
	// and math.Exp's overflow cutoff (sigmoid exponentiates -x).
	for _, c := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 708, 7.09782712893383973096e+02} {
		for _, v := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1))} {
			cases = append(cases, v, -v)
		}
	}
	g := rng.New(7)
	for i := 0; i < 5000; i++ {
		cases = append(cases, (g.Float64()-0.5)*30)
	}
	for i := 0; i < 2000; i++ {
		cases = append(cases, (g.Float64()-0.5)*1600)
	}
	return cases
}

// checkGate compares slice with the scalar reference ref bit for bit,
// not aliased and in place, over all of actCases and over windows of
// every length 1..19 sliding across its leading edge cases (so each
// visits the kernels' padded tail vector).
func checkGate(t *testing.T, name string, slice func(dst, x []float64), ref func(float64) float64) {
	t.Helper()
	check := func(x []float64) {
		t.Helper()
		dst := make([]float64, len(x))
		slice(dst, x)
		v := append([]float64(nil), x...)
		slice(v, v)
		for i, xv := range x {
			want := math.Float64bits(ref(xv))
			if math.Float64bits(dst[i]) != want || math.Float64bits(v[i]) != want {
				t.Fatalf("%s(%v) len %d = %x, aliased %x, want %x", name, xv, len(x), math.Float64bits(dst[i]), math.Float64bits(v[i]), want)
			}
		}
	}
	x := actCases()
	check(x)
	for n := 1; n <= 19; n++ {
		for lo := 0; lo+n <= 64; lo++ {
			check(x[lo : lo+n])
		}
	}
}

func TestVecSigmoidBitExact(t *testing.T) {
	checkGate(t, "sigmoid", mat.SigmoidSlice, sigmoid)
}

func TestVecTanhBitExact(t *testing.T) {
	checkGate(t, "tanh", mat.TanhSlice, math.Tanh)
}

func TestSoftmaxIntoVecBitExact(t *testing.T) {
	g := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + g.Intn(40)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = (g.Float64() - 0.5) * 20
		}
		want := make([]float64, n)
		got := make([]float64, n)
		SoftmaxInto(logits, want)
		SoftmaxIntoVec(logits, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d elem %d: got %x want %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func TestSigmoidIntoVecBitExact(t *testing.T) {
	logits := actCases()
	want := make([]float64, len(logits))
	got := make([]float64, len(logits))
	SigmoidInto(logits, want)
	SigmoidIntoVec(logits, got)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("elem %d (x=%v): got %x want %x",
				i, logits[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestVecActNoAlloc(t *testing.T) {
	v := make([]float64, 96)
	logits := make([]float64, 47)
	out := make([]float64, 47)
	g := rng.New(3)
	for i := range v {
		v[i] = (g.Float64() - 0.5) * 10
	}
	for i := range logits {
		logits[i] = (g.Float64() - 0.5) * 10
	}
	if n := testing.AllocsPerRun(100, func() {
		mat.SigmoidSlice(v, v)
		mat.TanhSlice(v, v)
		SoftmaxIntoVec(logits, out)
		SigmoidIntoVec(logits, out)
	}); n != 0 {
		t.Fatalf("vector activations allocated %v per run", n)
	}
}

package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/mat/mattest"
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

// refSoftmaxCE and refMaskedBCE are the loss heads' scalar expressions:
// math.Exp and sigmoid per element, the loss summed in ascending order.
func refSoftmaxCE(logits *mat.Dense, targets []int, valid []bool, d *mat.Dense) (loss float64, count int) {
	d.Zero()
	for r := 0; r < logits.Rows; r++ {
		if valid != nil && !valid[r] {
			continue
		}
		row, probs := logits.Row(r), d.Row(r)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			probs[j] = math.Exp(v - maxv)
			sum += probs[j]
		}
		inv := 1 / sum
		for j := range probs {
			probs[j] *= inv
		}
		loss += -math.Log(math.Max(probs[targets[r]], 1e-300))
		probs[targets[r]] -= 1
		count++
	}
	return loss, count
}

func refMaskedBCE(logits, targets, mask, d *mat.Dense) (loss float64, count int) {
	d.Zero()
	for i, z := range logits.Data {
		m, t := mask.Data[i], targets.Data[i]
		if m == 0 {
			continue
		}
		loss += m * (math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z))))
		d.Data[i] = m * (sigmoid(z) - t)
		count++
	}
	return loss, count
}

// headSpecials are the logits planted among normal draws: signed
// zeros, denormals, infinities and NaN.
var headSpecials = []float64{0, math.Copysign(0, -1), 5e-324, -2.2e-310, math.Inf(1), math.Inf(-1), math.NaN()}

// sameHeadBits compares a head's results, any two NaNs equal: the adds
// that meet two NaNs keep whichever operand the compiler put first.
func sameHeadBits(t *testing.T, what string, loss, wantLoss float64, count, wantCount int, d, want *mat.Dense) {
	t.Helper()
	differ := func(a, b float64) bool {
		return !(math.IsNaN(a) && math.IsNaN(b)) && math.Float64bits(a) != math.Float64bits(b)
	}
	if differ(loss, wantLoss) || count != wantCount {
		t.Fatalf("%s: loss %v count %d, scalar %v %d", what, loss, count, wantLoss, wantCount)
	}
	for i, w := range want.Data {
		if differ(d.Data[i], w) {
			t.Fatalf("%s: grad[%d] %x, scalar %x", what, i, math.Float64bits(d.Data[i]), math.Float64bits(w))
		}
	}
}

// TestLossHeadsMatchScalar pins SoftmaxCEInto and
// MaskedBCEWithLogitsInto, which exponentiate on the vector kernels, to
// their scalar expressions bit for bit on both tiers: at the flavor and
// lifetime head widths and one wider than a BCE chunk, on normal rows
// and rows with one special planted per row position, with padding
// rows (softmax) and partly masked, fully masked and weighted rows
// (BCE).
func TestLossHeadsMatchScalar(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) {
		g := rng.New(12)
		for _, k := range []int{17, 47, 150} {
			const rows = 9
			logits := mat.NewDense(rows, k)
			for i := range logits.Data {
				logits.Data[i] = (g.Float64() - 0.5) * 40
			}
			for r := 1; r < rows; r++ {
				logits.Set(r, (r*7)%k, headSpecials[(r-1)%len(headSpecials)])
			}
			targets, valid := make([]int, rows), make([]bool, rows)
			tg, mk := mat.NewDense(rows, k), mat.NewDense(rows, k)
			for r := 0; r < rows; r++ {
				targets[r], valid[r] = g.Intn(k), r%4 != 3
				for j := 0; j < k; j++ {
					tg.Set(r, j, float64(g.Intn(2)))
					switch {
					case r == 5: // a fully masked (padding) row
					case r == 6:
						mk.Set(r, j, 0.5)
					case j <= (r*k)/rows:
						mk.Set(r, j, 1)
					}
				}
			}
			got, want := mat.NewDense(rows, k), mat.NewDense(rows, k)
			loss, count := SoftmaxCEInto(logits, targets, valid, got)
			wl, wc := refSoftmaxCE(logits, targets, valid, want)
			sameHeadBits(t, fmt.Sprintf("softmax k=%d", k), loss, wl, count, wc, got, want)
			loss, count = MaskedBCEWithLogitsInto(logits, tg, mk, got)
			wl, wc = refMaskedBCE(logits, tg, mk, want)
			sameHeadBits(t, fmt.Sprintf("bce k=%d", k), loss, wl, count, wc, got, want)
			// Row by row too, so every special meets a loss that is still
			// finite before it.
			for r := 0; r < rows; r++ {
				one := func(m *mat.Dense) *mat.Dense { return m.SliceRows(r, r+1) }
				loss, count = MaskedBCEWithLogitsInto(one(logits), one(tg), one(mk), one(got))
				wl, wc = refMaskedBCE(one(logits), one(tg), one(mk), one(want))
				sameHeadBits(t, fmt.Sprintf("bce k=%d row %d", k, r), loss, wl, count, wc, got, want)
				loss, count = SoftmaxCEInto(one(logits), targets[r:r+1], nil, one(got))
				wl, wc = refSoftmaxCE(one(logits), targets[r:r+1], nil, one(want))
				sameHeadBits(t, fmt.Sprintf("softmax k=%d row %d", k, r), loss, wl, count, wc, got, want)
			}
		}
	})
}

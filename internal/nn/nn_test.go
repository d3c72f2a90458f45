package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

func tinyNet(t *testing.T, in, hidden, layers, out int, seed int64) *LSTM {
	t.Helper()
	return NewLSTM(Config{InputDim: in, HiddenDim: hidden, Layers: layers, OutputDim: out}, rng.New(seed))
}

func randInputs(g *rng.RNG, steps, b, dim int) []*mat.Dense {
	xs := make([]*mat.Dense, steps)
	for t := range xs {
		x := mat.NewDense(b, dim)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[t] = x
	}
	return xs
}

// cloneAll snapshots Forward outputs that would otherwise be
// invalidated by the next-but-one Forward on the same network.
func cloneAll(ms []*mat.Dense) []*mat.Dense {
	out := make([]*mat.Dense, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Clone())
	}
	return out
}

func TestNewLSTMShapes(t *testing.T) {
	n := tinyNet(t, 5, 7, 2, 3, 1)
	if len(n.layers) != 2 {
		t.Fatalf("layers = %d", len(n.layers))
	}
	if n.layers[0].wx.Value.Rows != 5 || n.layers[0].wx.Value.Cols != 28 {
		t.Fatalf("layer0 wx shape %v", n.layers[0].wx.Value)
	}
	if n.layers[1].wx.Value.Rows != 7 {
		t.Fatalf("layer1 input dim should be hidden: %v", n.layers[1].wx.Value)
	}
	want := 5*28 + 7*28 + 28 + 7*28 + 7*28 + 28 + 7*3 + 3
	if n.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", n.NumParams(), want)
	}
}

func TestNewLSTMBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLSTM(Config{InputDim: 0, HiddenDim: 1, Layers: 1, OutputDim: 1}, rng.New(1))
}

func TestForgetGateBiasInit(t *testing.T) {
	n := tinyNet(t, 2, 4, 1, 1, 1)
	b := n.layers[0].b.Value.Row(0)
	for j := 0; j < 4; j++ {
		if b[j] != 0 || b[4+j] != 1 || b[8+j] != 0 || b[12+j] != 0 {
			t.Fatalf("bias init wrong at %d: %v", j, b)
		}
	}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	n := tinyNet(t, 3, 4, 2, 5, 2)
	xs := randInputs(rng.New(3), 6, 2, 3)
	ys1, _ := n.Forward(xs, nil)
	ys2, _ := n.Forward(xs, nil)
	if len(ys1) != 6 {
		t.Fatalf("got %d outputs", len(ys1))
	}
	for t2, y := range ys1 {
		if y.Rows != 2 || y.Cols != 5 {
			t.Fatalf("output shape %v", y)
		}
		for i := range y.Data {
			if y.Data[i] != ys2[t2].Data[i] {
				t.Fatal("forward not deterministic")
			}
		}
	}
}

func TestForwardStateCarries(t *testing.T) {
	n := tinyNet(t, 3, 4, 1, 2, 4)
	xs := randInputs(rng.New(5), 4, 1, 3)
	// Full sequence in one call vs two calls with carried state. Forward
	// outputs alias the workspace and stay valid only until the
	// next-but-one Forward, so snapshot each result before moving on.
	ysAllView, _ := n.Forward(xs, nil)
	ysAll := cloneAll(ysAllView)
	st := n.NewState(1)
	ysA, _ := n.Forward(xs[:2], st)
	got := cloneAll(ysA)
	ysB, _ := n.Forward(xs[2:], st)
	got = append(got, cloneAll(ysB)...)
	for t2 := range ysAll {
		for i := range ysAll[t2].Data {
			if math.Abs(ysAll[t2].Data[i]-got[t2].Data[i]) > 1e-12 {
				t.Fatalf("state carry mismatch at step %d", t2)
			}
		}
	}
}

// cloneState deep-copies a state.
func cloneState(s *State) *State {
	out := &State{}
	for _, m := range s.H {
		out.H = append(out.H, m.Clone())
	}
	for _, m := range s.C {
		out.C = append(out.C, m.Clone())
	}
	return out
}

func TestStateCloneAndZero(t *testing.T) {
	n := tinyNet(t, 2, 3, 2, 1, 8)
	st := n.NewState(1)
	x := mat.NewDense(1, 2)
	copy(x.Data, []float64{1, -1})
	n.Forward([]*mat.Dense{x}, st)
	cl := cloneState(st)
	st.Zero()
	for l := range cl.H {
		if mat.MaxAbs(st.H[l].Data) != 0 || mat.MaxAbs(st.C[l].Data) != 0 {
			t.Fatal("Zero did not clear state")
		}
		if mat.MaxAbs(cl.H[l].Data) == 0 {
			t.Fatal("Clone affected by Zero")
		}
	}
}

// numericalGrad computes d(loss)/d(param[idx]) by central differences.
func numericalGrad(lossFn func() float64, p *Param, idx int) float64 {
	const h = 1e-5
	orig := p.Value.Data[idx]
	p.Value.Data[idx] = orig + h
	lp := lossFn()
	p.Value.Data[idx] = orig - h
	lm := lossFn()
	p.Value.Data[idx] = orig
	return (lp - lm) / (2 * h)
}

// TestGradientCheckSoftmax verifies BPTT gradients against numerical
// differentiation for a softmax-CE head over a short sequence.
func TestGradientCheckSoftmax(t *testing.T) {
	n := tinyNet(t, 3, 4, 2, 3, 42)
	g := rng.New(9)
	const steps, batch = 4, 2
	xs := randInputs(g, steps, batch, 3)
	targets := make([][]int, steps)
	for s := range targets {
		targets[s] = []int{g.Intn(3), g.Intn(3)}
	}
	lossFn := func() float64 {
		ys, _ := n.Forward(xs, nil)
		var total float64
		for s, y := range ys {
			l, _, _ := SoftmaxCE(y, targets[s], nil)
			total += l
		}
		return total
	}
	// Analytic gradients.
	n.ZeroGrads()
	ys, cache := n.Forward(xs, nil)
	dys := make([]*mat.Dense, steps)
	for s, y := range ys {
		_, d, _ := SoftmaxCE(y, targets[s], nil)
		dys[s] = d
	}
	n.Backward(cache, dys)
	checkGrads(t, n, lossFn)
}

// TestGradientCheckMaskedBCE verifies BPTT gradients for the hazard head
// with a mask that zeroes out some outputs (the censoring machinery).
func TestGradientCheckMaskedBCE(t *testing.T) {
	n := tinyNet(t, 2, 3, 2, 4, 77)
	g := rng.New(11)
	const steps, batch = 3, 2
	xs := randInputs(g, steps, batch, 2)
	targets := make([]*mat.Dense, steps)
	masks := make([]*mat.Dense, steps)
	for s := range targets {
		tg := mat.NewDense(batch, 4)
		mk := mat.NewDense(batch, 4)
		for i := range tg.Data {
			if g.Bernoulli(0.5) {
				tg.Data[i] = 1
			}
			if g.Bernoulli(0.7) {
				mk.Data[i] = 1
			}
		}
		targets[s], masks[s] = tg, mk
	}
	lossFn := func() float64 {
		ys, _ := n.Forward(xs, nil)
		var total float64
		for s, y := range ys {
			l, _, _ := MaskedBCEWithLogits(y, targets[s], masks[s])
			total += l
		}
		return total
	}
	n.ZeroGrads()
	ys, cache := n.Forward(xs, nil)
	dys := make([]*mat.Dense, steps)
	for s, y := range ys {
		_, d, _ := MaskedBCEWithLogits(y, targets[s], masks[s])
		dys[s] = d
	}
	n.Backward(cache, dys)
	checkGrads(t, n, lossFn)
}

func checkGrads(t *testing.T, n *LSTM, lossFn func() float64) {
	t.Helper()
	for _, p := range n.Params() {
		// Spot-check a handful of indices per parameter to keep runtime low.
		stride := len(p.Value.Data)/5 + 1
		for idx := 0; idx < len(p.Value.Data); idx += stride {
			num := numericalGrad(lossFn, p, idx)
			ana := p.Grad.Data[idx]
			diff := math.Abs(num - ana)
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if diff/scale > 1e-5 {
				t.Errorf("param %s[%d]: analytic %v numeric %v", p.Name, idx, ana, num)
			}
		}
	}
}

func TestSoftmaxCEKnownValues(t *testing.T) {
	logits := mat.FromSlice(1, 2, []float64{0, 0})
	loss, d, count := SoftmaxCE(logits, []int{0}, nil)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if math.Abs(d.At(0, 0)-(-0.5)) > 1e-12 || math.Abs(d.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("grad = %v", d.Data)
	}
}

func TestSoftmaxCEValidMask(t *testing.T) {
	logits := mat.FromSlice(2, 2, []float64{5, -5, 3, 3})
	loss, d, count := SoftmaxCE(logits, []int{0, 1}, []bool{false, true})
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if d.At(0, 0) != 0 || d.At(0, 1) != 0 {
		t.Fatal("masked row should have zero grad")
	}
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v", loss)
	}
}

func TestSoftmaxNormalizes(t *testing.T) {
	p := Softmax([]float64{1, 2, 3, 4})
	var sum float64
	for i := 1; i < len(p); i++ {
		if p[i] <= p[i-1] {
			t.Fatal("softmax should be increasing for increasing logits")
		}
	}
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestLogSoftmaxStability(t *testing.T) {
	ls := make([]float64, 2)
	LogSoftmaxInto([]float64{1000, 1000}, ls)
	if math.Abs(ls[0]-(-math.Log(2))) > 1e-9 {
		t.Fatalf("log softmax overflowed: %v", ls)
	}
}

func TestMaskedBCEKnownValues(t *testing.T) {
	logits := mat.FromSlice(1, 2, []float64{0, 100})
	targets := mat.FromSlice(1, 2, []float64{1, 0})
	mask := mat.FromSlice(1, 2, []float64{1, 0})
	loss, d, count := MaskedBCEWithLogits(logits, targets, mask)
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if d.At(0, 1) != 0 {
		t.Fatal("masked output should have zero grad")
	}
	if math.Abs(d.At(0, 0)-(0.5-1)) > 1e-12 {
		t.Fatalf("grad = %v", d.At(0, 0))
	}
}

func TestSigmoidRange(t *testing.T) {
	s := make([]float64, 3)
	SigmoidInto([]float64{-1000, 0, 1000}, s)
	if s[0] < 0 || s[0] > 1e-10 || math.Abs(s[1]-0.5) > 1e-12 || s[2] > 1 || s[2] < 1-1e-10 {
		t.Fatalf("sigmoid values: %v", s)
	}
}

func TestAdamReducesLossOnRegression(t *testing.T) {
	// Teach a 1-layer LSTM to output the previous input (delay-1 memory).
	n := tinyNet(t, 2, 8, 1, 2, 13)
	g := rng.New(14)
	opt := NewAdam(0.02)
	opt.ClipNorm = 5
	var first, last float64
	for iter := 0; iter < 120; iter++ {
		xs := randInputs(g, 6, 4, 2)
		targets := make([][]int, 6)
		for s := range targets {
			targets[s] = make([]int, 4)
			for b2 := 0; b2 < 4; b2++ {
				if s > 0 && xs[s-1].At(b2, 0) > 0 {
					targets[s][b2] = 1
				}
			}
		}
		n.ZeroGrads()
		ys, cache := n.Forward(xs, nil)
		var total float64
		dys := make([]*mat.Dense, len(ys))
		for s, y := range ys {
			valid := make([]bool, 4)
			for b2 := range valid {
				valid[b2] = s > 0
			}
			l, d, _ := SoftmaxCE(y, targets[s], valid)
			total += l
			dys[s] = d
		}
		n.Backward(cache, dys)
		opt.Step(n.Params())
		if iter == 0 {
			first = total
		}
		last = total
	}
	if last >= first*0.5 {
		t.Fatalf("Adam failed to reduce loss: first %v last %v", first, last)
	}
	if opt.t != 120 {
		t.Fatalf("step counter = %d", opt.t)
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := newParam("w", 1, 2)
	p.Grad.Data[0], p.Grad.Data[1] = 30, 40 // norm 50
	a := NewAdam(0.1)
	a.ClipNorm = 5
	a.Step([]*Param{p})
	// After clipping, grad should be scaled to norm 5.
	if math.Abs(mat.Norm2(p.Grad.Data)-5) > 1e-9 {
		t.Fatalf("grad norm after clip: %v", mat.Norm2(p.Grad.Data))
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", 1, 1)
	p.Value.Data[0] = 10
	// Zero gradient: only decay acts.
	a := NewAdam(0.1)
	a.WeightDecay = 0.5
	a.Step([]*Param{p})
	if p.Value.Data[0] >= 10 {
		t.Fatalf("weight decay did not shrink weight: %v", p.Value.Data[0])
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	n := tinyNet(t, 3, 5, 2, 4, 99)
	xs := randInputs(rng.New(1), 3, 1, 3)
	ys1, _ := n.Forward(xs, nil)
	blob, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored LSTM
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Cfg != n.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", restored.Cfg, n.Cfg)
	}
	ys2, _ := restored.Forward(xs, nil)
	for s := range ys1 {
		for i := range ys1[s].Data {
			if ys1[s].Data[i] != ys2[s].Data[i] {
				t.Fatal("restored network differs")
			}
		}
	}
}

func TestUnmarshalCorruptFails(t *testing.T) {
	var n LSTM
	if err := n.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Fatal("expected error")
	}
}

func TestBackwardEmptySequence(t *testing.T) {
	n := tinyNet(t, 2, 3, 1, 2, 5)
	ys, cache := n.Forward(nil, nil)
	if len(ys) != 0 || cache.T() != 0 {
		t.Fatal("empty forward should be empty")
	}
	n.Backward(cache, nil) // must not panic
}

func TestAdamZeroGradientNoChange(t *testing.T) {
	p := newParam("w", 1, 3)
	p.Value.Data[0], p.Value.Data[1], p.Value.Data[2] = 1, -2, 3
	before := append([]float64(nil), p.Value.Data...)
	a := NewAdam(0.1)
	for i := 0; i < 5; i++ {
		a.Step([]*Param{p})
	}
	for i, v := range p.Value.Data {
		if v != before[i] {
			t.Fatalf("zero gradient moved weight %d: %v -> %v", i, before[i], v)
		}
		if math.IsNaN(v) {
			t.Fatal("NaN weight")
		}
	}
}

func TestLSTMExtremeInputsStayFinite(t *testing.T) {
	n := tinyNet(t, 2, 4, 2, 3, 1)
	f := n.NewFleetPacked(1, n.Pack())
	row := f.Admit()
	for _, x := range [][]float64{{1e9, -1e9}, {0, 0}, {-1e12, 1e12}} {
		copy(f.InputRow(0), x)
		out := f.Step([]int{row}).Row(0)
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite output for input %v: %v", x, out)
			}
		}
	}
}

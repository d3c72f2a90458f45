package experiments

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
)

func tinyTransformer(seed int64) *Transformer {
	return NewTransformer(TransformerConfig{
		InputDim: 5, ModelDim: 8, Heads: 2, FFDim: 12,
		Layers: 2, OutputDim: 3, MaxLen: 16,
	}, rng.New(seed))
}

// numericalGrad computes d(loss)/d(param[idx]) by central differences.
func numericalGrad(lossFn func() float64, p *nn.Param, idx int) float64 {
	const h = 1e-5
	orig := p.Value.Data[idx]
	p.Value.Data[idx] = orig + h
	lp := lossFn()
	p.Value.Data[idx] = orig - h
	lm := lossFn()
	p.Value.Data[idx] = orig
	return (lp - lm) / (2 * h)
}

func TestNewTransformerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTransformer(TransformerConfig{InputDim: 4, ModelDim: 7, Heads: 2, FFDim: 8, Layers: 1, OutputDim: 2, MaxLen: 8}, rng.New(1))
}

func TestTransformerForwardShapes(t *testing.T) {
	tr := tinyTransformer(1)
	g := rng.New(2)
	x := mat.NewDense(6, 5)
	for i := range x.Data {
		x.Data[i] = g.NormFloat64()
	}
	out, cache := tr.Forward(x)
	if out.Rows != 6 || out.Cols != 3 {
		t.Fatalf("output %v", out)
	}
	if cache.T != 6 {
		t.Fatalf("cache T %d", cache.T)
	}
	if len(tr.Params()) == 0 {
		t.Fatal("no params")
	}
}

// TestTransformerCausality verifies the causal mask: changing a future
// input must not change earlier outputs.
func TestTransformerCausality(t *testing.T) {
	tr := tinyTransformer(3)
	g := rng.New(4)
	x := mat.NewDense(5, 5)
	for i := range x.Data {
		x.Data[i] = g.NormFloat64()
	}
	out1, _ := tr.Forward(x)
	x2 := x.Clone()
	x2.Set(4, 0, 99) // perturb the final step
	out2, _ := tr.Forward(x2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if out1.At(i, j) != out2.At(i, j) {
				t.Fatalf("future input leaked into position %d", i)
			}
		}
	}
	changed := false
	for j := 0; j < 3; j++ {
		if out1.At(4, j) != out2.At(4, j) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("final position should depend on its own input")
	}
}

func TestTransformerTooLongPanics(t *testing.T) {
	tr := tinyTransformer(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Forward(mat.NewDense(17, 5))
}

// TestTransformerGradientCheck verifies the hand-written backward pass
// (attention, layer norm, FFN, residuals, embeddings) against numerical
// differentiation.
func TestTransformerGradientCheck(t *testing.T) {
	tr := tinyTransformer(7)
	g := rng.New(8)
	const T = 4
	x := mat.NewDense(T, 5)
	for i := range x.Data {
		x.Data[i] = g.NormFloat64()
	}
	targets := make([]int, T)
	for i := range targets {
		targets[i] = g.Intn(3)
	}
	lossFn := func() float64 {
		out, _ := tr.Forward(x)
		l, _, _ := nn.SoftmaxCE(out, targets, nil)
		return l
	}
	tr.ZeroGrads()
	out, cache := tr.Forward(x)
	_, d, _ := nn.SoftmaxCE(out, targets, nil)
	tr.Backward(cache, d)
	for _, p := range tr.Params() {
		stride := len(p.Value.Data)/4 + 1
		for idx := 0; idx < len(p.Value.Data); idx += stride {
			num := numericalGrad(lossFn, p, idx)
			ana := p.Grad.Data[idx]
			diff := math.Abs(num - ana)
			scl := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if diff/scl > 2e-5 {
				t.Errorf("param %s[%d]: analytic %v numeric %v", p.Name, idx, ana, num)
			}
		}
	}
}

// TestTransformerLearnsCopy trains the transformer on a delay-1 copy
// task (predict the previous token's class), verifying the training loop
// end to end.
func TestTransformerLearnsCopy(t *testing.T) {
	tr := NewTransformer(TransformerConfig{
		InputDim: 4, ModelDim: 16, Heads: 2, FFDim: 32,
		Layers: 1, OutputDim: 4, MaxLen: 24,
	}, rng.New(9))
	g := rng.New(10)
	opt := nn.NewAdam(3e-3)
	opt.ClipNorm = 5
	var first, last float64
	for iter := 0; iter < 400; iter++ {
		const T = 12
		x := mat.NewDense(T, 4)
		targets := make([]int, T)
		prev := 0
		for s := 0; s < T; s++ {
			cls := g.Intn(4)
			x.Set(s, cls, 1)
			targets[s] = prev
			prev = cls
		}
		tr.ZeroGrads()
		out, cache := tr.Forward(x)
		valid := make([]bool, T)
		for i := range valid {
			valid[i] = i > 0
		}
		l, d, _ := nn.SoftmaxCE(out, targets, valid)
		tr.Backward(cache, d)
		opt.Step(tr.Params())
		if iter == 0 {
			first = l
		}
		last = l
	}
	if last >= first*0.5 {
		t.Fatalf("transformer failed to learn copy: first %v last %v", first, last)
	}
}

func TestTransformerWindowMatchesForward(t *testing.T) {
	tr := tinyTransformer(11)
	g := rng.New(12)
	const T = 6
	x := mat.NewDense(T, 5)
	for i := range x.Data {
		x.Data[i] = g.NormFloat64()
	}
	full, _ := tr.Forward(x)
	w := tr.NewWindow()
	for s := 0; s < T; s++ {
		got := w.Append(x.Row(s))
		for j, v := range got {
			if math.Abs(v-full.At(s, j)) > 1e-12 {
				t.Fatalf("window step %d output %d: %v vs %v", s, j, v, full.At(s, j))
			}
		}
	}
	if w.n != T {
		t.Fatalf("window len %d", w.n)
	}
}

func TestTransformerWindowSlides(t *testing.T) {
	tr := NewTransformer(TransformerConfig{
		InputDim: 2, ModelDim: 4, Heads: 1, FFDim: 8,
		Layers: 1, OutputDim: 2, MaxLen: 4,
	}, rng.New(13))
	w := tr.NewWindow()
	for s := 0; s < 10; s++ {
		w.Append([]float64{float64(s), 1})
		if w.n > 4 {
			t.Fatalf("window exceeded MaxLen: %d", w.n)
		}
	}
}

func TestTransformerSerializationRoundTrip(t *testing.T) {
	tr := tinyTransformer(42)
	g := rng.New(1)
	x := mat.NewDense(4, 5)
	for i := range x.Data {
		x.Data[i] = g.NormFloat64()
	}
	before, _ := tr.Forward(x)
	blob, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Transformer
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	after, _ := restored.Forward(x)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("transformer round trip changed outputs")
		}
	}
}

// TestUnmarshalTransformerRejectsCorruptInput: every snapshot here must
// decode to an error — never a panic, and never an allocation sized from
// a dimension checkTransformerConfig has not bounded.
func TestUnmarshalTransformerRejectsCorruptInput(t *testing.T) {
	// A config frame with no parameter frame: nn.UnmarshalParams checks
	// the config before it reads the values.
	frame := func(cfg TransformerConfig) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"garbage":   []byte{0x42, 0x00, 0xFF},
		"zero dims": frame(TransformerConfig{}),
		"heads do not divide model dim": frame(
			TransformerConfig{InputDim: 3, ModelDim: 10, Heads: 3, FFDim: 8, Layers: 1, OutputDim: 2, MaxLen: 16}),
		"huge dims": frame(
			TransformerConfig{InputDim: 1 << 20, ModelDim: 1 << 20, Heads: 1 << 20, FFDim: 1 << 20, Layers: 1 << 20, OutputDim: 1 << 20, MaxLen: 1 << 20}),
		"oom dims within per-dim cap": frame(
			TransformerConfig{InputDim: 4, ModelDim: 1 << 13, Heads: 2, FFDim: 1 << 15, Layers: 1 << 10, OutputDim: 2, MaxLen: 8}),
		"missing params": frame(
			TransformerConfig{InputDim: 3, ModelDim: 4, Heads: 2, FFDim: 8, Layers: 1, OutputDim: 2, MaxLen: 4}),
	}
	for name, data := range cases {
		var tr Transformer
		if err := tr.UnmarshalBinary(data); err == nil {
			t.Errorf("Transformer %s: decoded without error", name)
		}
	}
}

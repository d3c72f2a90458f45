package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

func tinyGRU(seed int64) *GRU {
	return NewGRU(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(seed))
}

func TestNewGRUShapes(t *testing.T) {
	n := tinyGRU(1)
	if len(n.layers) != 2 {
		t.Fatalf("layers %d", len(n.layers))
	}
	want := 3*15 + 5*15 + 15 + 5*15 + 5*15 + 15 + 5*4 + 4
	got := 0
	for _, p := range n.Params() {
		got += len(p.Value.Data)
	}
	if got != want {
		t.Fatalf("%d parameters, want %d", got, want)
	}
}

func TestGRUBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGRU(Config{}, rng.New(1))
}

func TestGRUStepMatchesForward(t *testing.T) {
	n := tinyGRU(2)
	g := rng.New(3)
	xs := randInputs(g, 5, 1, 3)
	full, _ := n.Forward(xs, nil)
	st := n.NewState(1)
	for s, x := range xs {
		got := n.StepForward(x.Row(0), st)
		for j, v := range got {
			if math.Abs(v-full[s].At(0, j)) > 1e-12 {
				t.Fatalf("step %d out %d: %v vs %v", s, j, v, full[s].At(0, j))
			}
		}
	}
}

func TestGRUForwardStateCarries(t *testing.T) {
	n := tinyGRU(4)
	xs := randInputs(rng.New(5), 4, 2, 3)
	// Forward outputs stay valid only until the next-but-one Forward on
	// the same network; snapshot each result before the next call.
	fullView, _ := n.Forward(xs, nil)
	full := cloneAll(fullView)
	st := n.NewState(2)
	a, _ := n.Forward(xs[:2], st)
	got := cloneAll(a)
	b, _ := n.Forward(xs[2:], st)
	got = append(got, cloneAll(b)...)
	for s := range full {
		for i := range full[s].Data {
			if math.Abs(full[s].Data[i]-got[s].Data[i]) > 1e-12 {
				t.Fatalf("carry mismatch at step %d", s)
			}
		}
	}
}

// TestGRUGradientCheck verifies the hand-written GRU backward pass.
func TestGRUGradientCheck(t *testing.T) {
	n := tinyGRU(6)
	g := rng.New(7)
	const steps, batch = 4, 2
	xs := randInputs(g, steps, batch, 3)
	targets := make([][]int, steps)
	for s := range targets {
		targets[s] = []int{g.Intn(4), g.Intn(4)}
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
	n.ZeroGrads()
	ys, cache := n.Forward(xs, nil)
	dys := make([]*mat.Dense, steps)
	for s, y := range ys {
		_, d, _ := SoftmaxCE(y, targets[s], nil)
		dys[s] = d
	}
	n.Backward(cache, dys)
	for _, p := range n.Params() {
		stride := len(p.Value.Data)/5 + 1
		for idx := 0; idx < len(p.Value.Data); idx += stride {
			num := numericalGrad(lossFn, p, idx)
			ana := p.Grad.Data[idx]
			diff := math.Abs(num - ana)
			scl := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if diff/scl > 1e-5 {
				t.Errorf("param %s[%d]: analytic %v numeric %v", p.Name, idx, ana, num)
			}
		}
	}
}

func TestGRULearnsDelayTask(t *testing.T) {
	n := NewGRU(Config{InputDim: 2, HiddenDim: 8, Layers: 1, OutputDim: 2}, rng.New(8))
	g := rng.New(9)
	opt := NewAdam(0.02)
	opt.ClipNorm = 5
	var first, last float64
	for iter := 0; iter < 150; iter++ {
		xs := randInputs(g, 6, 4, 2)
		targets := make([][]int, 6)
		for s := range targets {
			targets[s] = make([]int, 4)
			for b := 0; b < 4; b++ {
				if s > 0 && xs[s-1].At(b, 0) > 0 {
					targets[s][b] = 1
				}
			}
		}
		n.ZeroGrads()
		ys, cache := n.Forward(xs, nil)
		var total float64
		dys := make([]*mat.Dense, len(ys))
		for s, y := range ys {
			valid := make([]bool, 4)
			for b := range valid {
				valid[b] = s > 0
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
		t.Fatalf("GRU failed to learn: first %v last %v", first, last)
	}
}

func TestGRUEmptySequence(t *testing.T) {
	n := tinyGRU(10)
	ys, cache := n.Forward(nil, nil)
	if len(ys) != 0 || cache.T() != 0 {
		t.Fatal("empty forward should be empty")
	}
	n.Backward(cache, nil)
}

func TestGRUSerializationRoundTrip(t *testing.T) {
	n := tinyGRU(42)
	xs := randInputs(rng.New(1), 3, 1, 3)
	before, _ := n.Forward(xs, nil)
	blob, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored GRU
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	after, _ := restored.Forward(xs, nil)
	for s := range before {
		for i := range before[s].Data {
			if before[s].Data[i] != after[s].Data[i] {
				t.Fatal("GRU round trip changed outputs")
			}
		}
	}
	if err := restored.UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatal("expected error on corrupt blob")
	}
}

package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// encodeSnapshot builds a snapshot frame by hand so tests can feed
// UnmarshalBinary arbitrary (including invalid) configs without going
// through a constructor that would reject them.
func encodeSnapshot(t *testing.T, cfg any, blobs []paramBlob) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(cfg); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(blobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnmarshalRejectsCorruptInput is the panic-audit regression suite:
// every case here previously panicked (constructor panic on invalid
// config) or risked an absurd allocation; all must now return errors.
func TestUnmarshalRejectsCorruptInput(t *testing.T) {
	valid, err := NewLSTM(Config{InputDim: 3, HiddenDim: 4, Layers: 1, OutputDim: 2}, rng.New(1)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"garbage":       []byte("not a gob stream at all"),
		"empty":         {},
		"truncated gob": valid[:len(valid)/2],
		"zero dims":     encodeSnapshot(t, Config{}, nil),
		"negative dims": encodeSnapshot(t,
			Config{InputDim: -1, HiddenDim: -8, Layers: -2, OutputDim: -3}, nil),
		"huge dims": encodeSnapshot(t,
			Config{InputDim: 1 << 20, HiddenDim: 1 << 20, Layers: 1 << 20, OutputDim: 1 << 20}, nil),
		"oom dims within per-dim cap": encodeSnapshot(t,
			Config{InputDim: 1 << 14, HiddenDim: 1 << 14, Layers: 1 << 14, OutputDim: 2}, nil),
		"missing param": encodeSnapshot(t,
			Config{InputDim: 3, HiddenDim: 4, Layers: 1, OutputDim: 2}, nil),
		"short param": encodeSnapshot(t,
			Config{InputDim: 3, HiddenDim: 4, Layers: 1, OutputDim: 2},
			[]paramBlob{{Name: "layer0.Wx", Values: []float64{1}}}),
	}
	for name, data := range cases {
		var l LSTM
		if err := l.UnmarshalBinary(data); err == nil {
			t.Errorf("LSTM %s: decoded without error", name)
		}
	}
}

// TestUnmarshalRejectsNonFiniteWeights: a NaN or ±Inf weight in any
// param fails the decode, except −∞ in the head bias — an output a
// what-if forbids — which round-trips.
func TestUnmarshalRejectsNonFiniteWeights(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 4, Layers: 2, OutputDim: 3}, rng.New(5))
	for _, p := range n.Params() {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			i := len(p.Value.Data) / 2
			old := p.Value.Data[i]
			p.Value.Data[i] = bad
			blob, err := n.MarshalBinary()
			p.Value.Data[i] = old
			if err != nil {
				t.Fatal(err)
			}
			var back LSTM
			err = back.UnmarshalBinary(blob)
			if p.Name == "head.by" && math.IsInf(bad, -1) {
				if err != nil {
					t.Fatalf("head.by entry -Inf: %v", err)
				}
				if got := back.HeadBias()[i]; !math.IsInf(got, -1) {
					t.Fatalf("head.by entry -Inf decoded as %v", got)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s entry %v decoded without error", p.Name, bad)
			}
		}
	}
}

// TestUnmarshalErrorLeavesReceiverUsable checks that a failed decode
// does not corrupt an existing in-memory model (the hot-reload path
// relies on this: a bad snapshot must not take down the serving model).
func TestUnmarshalErrorLeavesReceiverUsable(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 4, Layers: 1, OutputDim: 2}, rng.New(7))
	before, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	after, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed decode mutated the receiver")
	}
}

func trainFewSteps(t *testing.T, n *LSTM, opt *Adam, steps int) {
	t.Helper()
	g := rng.New(42)
	const seqLen = 4
	for s := 0; s < steps; s++ {
		st := n.NewState(1)
		xs := make([]*mat.Dense, seqLen)
		for i := range xs {
			xs[i] = mat.NewDense(1, n.Cfg.InputDim)
			for j := range xs[i].Data {
				xs[i].Data[j] = g.Float64()
			}
		}
		ys, cache := n.Forward(xs, st)
		dys := make([]*mat.Dense, len(ys))
		for i, y := range ys {
			dys[i] = mat.NewDense(1, n.Cfg.OutputDim)
			for j := range y.Data {
				dys[i].Data[j] = y.Data[j] - 0.5
			}
		}
		n.ZeroGrads()
		n.Backward(cache, dys)
		opt.Step(n.Params())
	}
}

// TestOptStateRoundTrip is the bit-exact resume property at the
// optimizer level: weights + opt state restored into a fresh net must
// continue training identically to the original.
func TestOptStateRoundTrip(t *testing.T) {
	cfg := Config{InputDim: 3, HiddenDim: 4, Layers: 2, OutputDim: 2}
	a := NewLSTM(cfg, rng.New(11))
	optA := NewAdam(1e-2)
	trainFewSteps(t, a, optA, 5)

	weights, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	optBlob, err := MarshalOptState(optA, a.Params())
	if err != nil {
		t.Fatal(err)
	}

	var b LSTM
	if err := b.UnmarshalBinary(weights); err != nil {
		t.Fatal(err)
	}
	optB := NewAdam(1e-2)
	if err := UnmarshalOptState(optBlob, optB, b.Params()); err != nil {
		t.Fatal(err)
	}
	if optB.t != optA.t {
		t.Fatalf("restored step counter %d, want %d", optB.t, optA.t)
	}

	// Continue both nets identically; they must stay byte-identical.
	trainFewSteps(t, a, optA, 5)
	trainFewSteps(t, &b, optB, 5)
	wa, _ := a.MarshalBinary()
	wb, _ := b.MarshalBinary()
	if !bytes.Equal(wa, wb) {
		t.Fatal("resumed training diverged from uninterrupted run")
	}
}

// TestOptStateRejectsCorruptInput: corrupt optimizer snapshots error
// out and leave the optimizer and moments untouched.
func TestOptStateRejectsCorruptInput(t *testing.T) {
	cfg := Config{InputDim: 3, HiddenDim: 4, Layers: 1, OutputDim: 2}
	n := NewLSTM(cfg, rng.New(3))
	opt := NewAdam(1e-2)
	trainFewSteps(t, n, opt, 3)
	stepsBefore := opt.t

	good, err := MarshalOptState(opt, n.Params())
	if err != nil {
		t.Fatal(err)
	}

	encode := func(w optStateWire) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	short := momentBlob{Name: n.Params()[0].Name, M: []float64{1}, V: []float64{2}}
	cases := map[string][]byte{
		"garbage":        []byte("\x01\x02garbage"),
		"truncated":      good[:len(good)/3],
		"negative steps": encode(optStateWire{Steps: -4}),
		"missing param":  encode(optStateWire{Steps: 1}),
		"length mismatch": encode(optStateWire{
			Steps: 1, Moments: []momentBlob{short},
		}),
	}
	for name, data := range cases {
		if err := UnmarshalOptState(data, opt, n.Params()); err == nil {
			t.Errorf("%s: corrupt opt state decoded without error", name)
		}
		if opt.t != stepsBefore {
			t.Fatalf("%s: failed decode mutated the step counter", name)
		}
	}
}

// TestCorruptErrorsAreWrapped: hardened decode errors carry the nn:
// prefix so callers can attribute failures to snapshot decoding.
func TestCorruptErrorsAreWrapped(t *testing.T) {
	var l LSTM
	err := l.UnmarshalBinary(encodeSnapshot(t, Config{InputDim: -1}, nil))
	if err == nil || !strings.Contains(err.Error(), "nn:") {
		t.Fatalf("error not attributed to nn: %v", err)
	}
}

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mat/mattest"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SHA-256 of the ablation fits' trained weights and of what each model
// then computes, over the tiny fits below: constants of the numerics,
// like core's TestTrainedSnapshotGolden (whose fixture this shares). A
// kernel or training-driver change that moves one is a change of results
// and must say so; never re-record to make a refactor pass.
const (
	// The weights hash every parameter's name and float64 bits.
	// Recorded on the last commit with seven separate training loops,
	// before the Transformer moved under the shared epoch skeleton.
	goldenFlavorTransformer = "f00604c8e13eb3e191e6b9296dff3eab71321b2068b617cda8fe1a3f77daa7f2"
	// Recorded on the commit that moved the PMF and joint fits from a
	// full-batch Forward/Backward onto the sharded window runner: the
	// per-shard gradient regrouping changed their low bits once, by
	// design. Pinned like the rest from there on.
	goldenLifetimePMF = "87fc87e5370d33060819e45c11db4e197b2269befc58e49d9ff85c4212001b36"
	goldenJointLSTM   = "6264f43c13123a773d80cd27a216086914ad8308d2fe3d17b44040a855b945d0"

	// The outputs hash float64 bits, recorded while the three models
	// still lived in internal/core and internal/nn: the Transformer
	// predictor's Probs over the history's token stream, the PMF
	// predictor's Hazard over its LifetimeSteps, and GenerateCounts over
	// the history's window for seeds 1 and 2 at the default cap.
	goldenTransformerProbs = "5dc3be6e027da12db51fe00b9dd2b314b39e8f15ca65d61529594d048943057e"
	goldenPMFHazard        = "c089de793c4898be1ceed1917309c176995fc0584cbb8baefe8838cb26406afa"
	goldenJointCounts      = "388cd3793900d2203155153e7d4727dcfad8f64face35613ce88c7fd4e6621a5"
)

// weightBytes is every parameter's name and float64 bits, in
// construction order.
func weightBytes(params []*nn.Param) []byte {
	var out []byte
	for _, p := range params {
		out = append(out, p.Name...)
		out = appendFloats(out, p.Value.Data)
	}
	return out
}

func appendFloats(out []byte, xs []float64) []byte {
	for _, v := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestAblationGolden fits each ablation model on a 1-day "mixed"
// history (hidden 8 × 2, 2 epochs, seed 7) and compares the sha256 of
// its weights with the recorded constants at one worker and at eight,
// and of its outputs at one, on both kernel tiers.
func TestAblationGolden(t *testing.T) {
	spec := workload.Preset("mixed")
	spec.Days = 1
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	history := cfg.Generate(20210521)
	tc := core.TrainConfig{Hidden: 8, Layers: 2, Epochs: 2, Seed: 7}
	bins := survival.PaperBins()
	fits := []struct {
		name, weights, outputs string
		// fit trains the model and returns its parameters and a function
		// computing its outputs.
		fit func() ([]*nn.Param, func() []float64)
	}{
		{"flavor_transformer", goldenFlavorTransformer, goldenTransformerProbs, func() ([]*nn.Param, func() []float64) {
			m := TrainFlavorTransformer(history, tc)
			return m.Net.Params(), func() (out []float64) {
				p := NewTransformerFlavorPredictor(m)
				for _, tok := range core.FlavorTokens(history) {
					out = append(out, p.Probs(tok.Period)...)
					p.Observe(tok.Token)
				}
				return out
			}
		}},
		{"lifetime_pmf", goldenLifetimePMF, goldenPMFHazard, func() ([]*nn.Param, func() []float64) {
			m := TrainLifetimePMF(history, bins, tc)
			return m.Net.Params(), func() (out []float64) {
				p := NewPMFLifetimePredictor(m)
				for _, s := range core.LifetimeSteps(history, bins) {
					out = append(out, p.Hazard(s, s.Period)...)
					p.Observe(s)
				}
				return out
			}
		}},
		{"joint_lstm", goldenJointLSTM, goldenJointCounts, func() ([]*nn.Param, func() []float64) {
			m := TrainJoint(history, tc)
			return m.Net.Params(), func() (out []float64) {
				doh := features.DOHSampler{Mode: features.DOHGeometric, GeomP: 1.0 / 7}
				for _, seed := range []int64{1, 2} {
					for _, c := range m.GenerateCounts(rng.New(seed), trace.Window{Start: 0, End: history.Periods}, doh) {
						out = append(out, float64(c))
					}
				}
				return out
			}
		}},
	}
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		for _, procs := range []int{1, 8} {
			prev := par.SetProcs(procs)
			for _, f := range fits {
				params, outputs := f.fit()
				if got := sha(weightBytes(params)); got != f.weights {
					t.Errorf("%s at %d workers: weights sha256 %s, want %s", f.name, procs, got, f.weights)
				}
				if procs > 1 {
					continue
				}
				if got := sha(appendFloats(nil, outputs())); got != f.outputs {
					t.Errorf("%s: outputs sha256 %s, want %s", f.name, got, f.outputs)
				}
			}
			par.SetProcs(prev)
		}
	})
}

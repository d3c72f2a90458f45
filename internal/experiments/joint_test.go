package experiments

import (
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestJointVsStaged reproduces the paper's §7 design rationale: the
// explicit arrival-rate stage tracks the true batch-count process at
// least as faithfully as the single-LSTM-with-EOP-tokens alternative,
// whose count distribution drifts (the paper found it "exquisitely
// sensitive to the timely sampling of these tokens").
func TestJointVsStaged(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains the joint LSTM")
	}
	res := JointVsStaged(azure(t))
	if res.ActualMean <= 0 {
		t.Fatalf("degenerate actual mean: %+v", res)
	}
	if res.StagedErr > res.JointErr+0.05 {
		t.Errorf("staged mean error %v should not exceed joint %v", res.StagedErr, res.JointErr)
	}
	stagedGap := abs(res.StagedDispersion - res.ActualDispersion)
	jointGap := abs(res.JointDispersion - res.ActualDispersion)
	if stagedGap > jointGap+0.25 {
		t.Errorf("staged dispersion gap %v should not exceed joint %v", stagedGap, jointGap)
	}
}

// TestJointGenerateCountsTerminates: a head biased 1000 logits towards
// EOB underflows EOP's probability to exactly zero, so every token the
// model draws is an EOB. The cap must still end each period, with
// exactly MaxJobsPerPeriod batches. (It once counted flavors only, and
// this call never returned.)
func TestJointGenerateCountsTerminates(t *testing.T) {
	const k, maxTokens = 3, 40
	m := &JointModel{K: k, Temporal: features.Temporal{HistoryDays: 1}, HistoryDays: 1, MaxJobsPerPeriod: maxTokens}
	m.Net = nn.NewLSTM(nn.Config{InputDim: k + 2 + m.Temporal.Dim(), HiddenDim: 4, Layers: 1, OutputDim: k + 2}, rng.New(1))
	for _, p := range m.Net.Params() {
		if p.Name == "head.by" {
			p.Value.Data[m.jointEOB()] = 1000
		}
	}
	done := make(chan []int, 1)
	go func() {
		doh := features.DOHSampler{Mode: features.DOHGeometric, GeomP: 1.0 / 7}
		done <- m.GenerateCounts(rng.New(3), trace.Window{Start: 0, End: 12}, doh)
	}()
	select {
	case counts := <-done:
		for p, c := range counts {
			if c != maxTokens {
				t.Errorf("period %d: %d batches, want the cap %d", p, c, maxTokens)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GenerateCounts did not return within 10 s")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/workload"
)

func TestPMFLossUncensoredKnown(t *testing.T) {
	logits := []float64{0, 0, 0, 0}
	d := make([]float64, 4)
	loss := pmfLoss(logits, core.LifetimeStep{Bin: 2}, d)
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4", loss)
	}
	// Gradient: p - onehot = 0.25 everywhere except bin 2 (-0.75); sums
	// to zero.
	var sum float64
	for j, g := range d {
		want := 0.25
		if j == 2 {
			want = -0.75
		}
		if math.Abs(g-want) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", j, g, want)
		}
		sum += g
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("grad sum = %v", sum)
	}
}

func TestPMFLossCensoredKnown(t *testing.T) {
	logits := []float64{0, 0, 0, 0}
	d := make([]float64, 4)
	// Censored at bin 2: tail = p2+p3 = 0.5, loss = ln2.
	loss := pmfLoss(logits, core.LifetimeStep{Bin: 2, Censored: true}, d)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	// Bins below the censor point get positive gradient (pushed down),
	// tail bins get zero at the uniform point (0.25 - 0.25/0.5*0.5).
	for j := 0; j < 2; j++ {
		if math.Abs(d[j]-0.25) > 1e-12 {
			t.Fatalf("grad[%d] = %v", j, d[j])
		}
	}
	for j := 2; j < 4; j++ {
		if math.Abs(d[j]-(0.25-0.25/0.5)) > 1e-12 {
			t.Fatalf("tail grad[%d] = %v", j, d[j])
		}
	}
}

func TestPMFLossCensoredBinZeroNoInfo(t *testing.T) {
	logits := []float64{1, 2, 3}
	d := []float64{9, 9, 9}
	loss := pmfLoss(logits, core.LifetimeStep{Bin: 0, Censored: true}, d)
	if loss != 0 {
		t.Fatalf("loss = %v", loss)
	}
	for _, g := range d {
		if g != 0 {
			t.Fatalf("grad should be zeroed: %v", d)
		}
	}
}

// TestPMFLossGradientNumerical verifies the analytic gradient of both
// the event and censored branches by central differences.
func TestPMFLossGradientNumerical(t *testing.T) {
	logits := []float64{0.3, -0.7, 1.2, 0.1, -0.4}
	for _, step := range []core.LifetimeStep{{Bin: 3}, {Bin: 2, Censored: true}} {
		d := make([]float64, len(logits))
		pmfLoss(logits, step, d)
		for j := range logits {
			const h = 1e-6
			lp := make([]float64, len(logits))
			copy(lp, logits)
			lp[j] += h
			lm := make([]float64, len(logits))
			copy(lm, logits)
			lm[j] -= h
			scratch := make([]float64, len(logits))
			num := (pmfLoss(lp, step, scratch) - pmfLoss(lm, step, scratch)) / (2 * h)
			if math.Abs(num-d[j]) > 1e-6 {
				t.Fatalf("step %+v grad[%d]: analytic %v numeric %v", step, j, d[j], num)
			}
		}
	}
}

// TestPMFLifetimeModelTrains verifies the PMF head learns: its test BCE
// beats the pooled KM baseline, like the hazard head, on a 4-day Azure-
// like history (internal/core's integration fixture).
func TestPMFLifetimeModelTrains(t *testing.T) {
	sc := workload.PresetConfig("azure")
	sc.Days, sc.Users, sc.BaseRate = 4, 80, 2
	full := sc.Generate(42)
	trainW, _, testW := synth.StandardSplit(sc.Days)
	train, test := full.Slice(trainW, 0), full.Slice(testW, 0)
	bins := survival.PaperBins()
	cfg := core.TrainConfig{Hidden: 24, Layers: 2, SeqLen: 64, BatchSize: 8, Epochs: 60, LR: 8e-3, Seed: 1}
	hazardModel := core.TrainLifetime(train, bins, cfg)
	cfg.Epochs = 40
	m := TrainLifetimePMF(train, bins, cfg)

	steps := core.LifetimeSteps(test, bins)
	pmf := core.EvaluateLifetime(NewPMFLifetimePredictor(m), steps, bins, testW.Start)
	km := core.EvaluateLifetime(newKMLifetime(train, bins), steps, bins, testW.Start)
	if !(pmf.BCE < km.BCE) {
		t.Errorf("PMF-head BCE %v should beat KM %v", pmf.BCE, km.BCE)
	}
	hazard := core.EvaluateLifetime(core.NewLSTMLifetimePredictor(hazardModel), steps, bins, testW.Start)
	// Kvamme & Borgan: the hazard parameterization works "slightly
	// better"; at minimum the two heads should be in the same ballpark.
	if pmf.BCE > hazard.BCE*1.5 {
		t.Errorf("PMF head %v too far behind hazard head %v", pmf.BCE, hazard.BCE)
	}
}

// TestPMFvsHazard checks the §2.3.1 head comparison: both neural heads
// beat KM, and the hazard head (the paper's choice) does not trail the
// PMF head meaningfully.
func TestPMFvsHazard(t *testing.T) {
	get := byName(azureResults(t).Heads, func(r HeadRow) string { return r.Head })
	km, hz, pmf := get["Overall KM"], get["LSTM (hazard head)"], get["LSTM (PMF head)"]
	if !(hz.BCE < km.BCE) || !(pmf.BCE < km.BCE) {
		t.Errorf("both heads should beat KM: hazard %v pmf %v km %v", hz.BCE, pmf.BCE, km.BCE)
	}
	if hz.BCE > pmf.BCE*1.15 {
		t.Errorf("hazard head %v should not trail PMF head %v (paper: slightly better)", hz.BCE, pmf.BCE)
	}
}

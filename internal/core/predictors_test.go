package core

import (
	"testing"

	"repro/internal/survival"
)

// perfectFlavor is a test predictor that is told the answers.
type perfectFlavor struct {
	answers []int
	i       int
	k       int
}

func (p *perfectFlavor) Name() string { return "Perfect" }
func (p *perfectFlavor) Reset()       { p.i = 0 }
func (p *perfectFlavor) Probs(int) []float64 {
	out := make([]float64, p.k+1)
	out[p.answers[p.i]] = 1
	return out
}
func (p *perfectFlavor) Predict(int) int { return p.answers[p.i] }
func (p *perfectFlavor) Observe(int)     { p.i++ }

func TestEvaluateFlavorPerfect(t *testing.T) {
	toks := []FlavorToken{{0, 1}, {0, 0}, {1, 2}}
	pred := &perfectFlavor{answers: []int{1, 0, 2}, k: 2}
	ev := EvaluateFlavor(pred, toks, 0)
	if ev.OneBestErr != 0 || ev.NLL != 0 || ev.Steps != 3 || !ev.HasNLL {
		t.Fatalf("perfect eval = %+v", ev)
	}
}

func TestEvaluateFlavorEmpty(t *testing.T) {
	ev := EvaluateFlavor(&perfectFlavor{k: 2}, nil, 0)
	if ev.Steps != 0 || ev.NLL != 0 {
		t.Fatalf("empty eval = %+v", ev)
	}
}

// coinFlip is a test predictor with a 50% hazard in each of j bins.
type coinFlip struct{ j int }

func (c coinFlip) Name() string { return "CoinFlip" }
func (c coinFlip) Reset()       {}
func (c coinFlip) Hazard(LifetimeStep, int) []float64 {
	h := make([]float64, c.j)
	for i := range h {
		h[i] = 0.5
	}
	return h
}
func (c coinFlip) PredictBin(LifetimeStep) int { return 0 }
func (c coinFlip) Observe(LifetimeStep)        {}

func TestEvaluateLifetimeCensoredExcludedFromOneBest(t *testing.T) {
	bins := survival.UniformBins(4, 4)
	c := coinFlip{j: 4}
	steps := []LifetimeStep{
		{Bin: 0},                 // uncensored: coin-flip PMF mode is bin 0 -> correct
		{Bin: 2, Censored: true}, // censored: must not count toward 1-best
	}
	ev := EvaluateLifetime(c, steps, bins, 0)
	if ev.Steps != 1 {
		t.Fatalf("scored steps = %d, want 1", ev.Steps)
	}
	if ev.OneBestErr != 0 {
		t.Fatalf("err = %v", ev.OneBestErr)
	}
	// Censored step still contributed masked BCE outputs (bins 0..1).
	if ev.Outputs != 1+2 {
		t.Fatalf("outputs = %d, want 3", ev.Outputs)
	}
}

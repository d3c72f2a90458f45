package experiments

import (
	"repro/internal/core"
	"repro/internal/survival"
	"repro/internal/trace"
)

// The baseline predictors of Tables 2 and 3 (§5.2, §5.3): the yardsticks
// the flavor and lifetime LSTMs are scored against, evaluated through
// core.EvaluateFlavor and core.EvaluateLifetime.

// uniformFlavor predicts all K+1 tokens equally (Table 2 "Uniform").
type uniformFlavor struct{ k int }

func (u *uniformFlavor) Name() string { return "Uniform" }
func (u *uniformFlavor) Reset()       {}
func (u *uniformFlavor) Probs(int) []float64 {
	p := make([]float64, u.k+1)
	for i := range p {
		p[i] = 1 / float64(u.k+1)
	}
	return p
}
func (u *uniformFlavor) Predict(int) int { return 0 }
func (u *uniformFlavor) Observe(int)     {}

// multinomialFlavor predicts each token by its empirical frequency in
// training data (Table 2 "Multinomial" — the traditional
// independent-arrival model).
type multinomialFlavor struct {
	probs []float64
	best  int
}

// newMultinomialFlavor estimates token frequencies (flavors and EOB)
// from the training trace with add-one smoothing.
func newMultinomialFlavor(train *trace.Trace) *multinomialFlavor {
	k := train.Flavors.K()
	counts := make([]float64, k+1)
	for i := range counts {
		counts[i] = 1 // Laplace smoothing
	}
	for _, tok := range core.FlavorTokens(train) {
		counts[tok.Token]++
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	m := &multinomialFlavor{probs: counts}
	for i := range m.probs {
		m.probs[i] /= total
		if m.probs[i] > m.probs[m.best] {
			m.best = i
		}
	}
	return m
}

func (m *multinomialFlavor) Name() string        { return "Multinomial" }
func (m *multinomialFlavor) Reset()              {}
func (m *multinomialFlavor) Probs(int) []float64 { return m.probs }
func (m *multinomialFlavor) Predict(int) int     { return m.best }
func (m *multinomialFlavor) Observe(int)         {}

// repeatFlavor always predicts the previous token, defaulting to the
// most frequent training flavor after an EOB (Table 2 "RepeatFlav" —
// after an end-of-batch the next token is always a flavor, so the
// multinomial fallback is taken over flavors only). It is
// non-probabilistic: Probs returns nil.
type repeatFlavor struct {
	k          int
	bestFlavor int
	prev       int
}

// newRepeatFlavor builds the baseline from training data.
func newRepeatFlavor(train *trace.Trace) *repeatFlavor {
	r := &repeatFlavor{k: train.Flavors.K()}
	counts := make([]int, r.k)
	for _, vm := range train.VMs {
		counts[vm.Flavor]++
	}
	for f, c := range counts {
		if c > counts[r.bestFlavor] {
			r.bestFlavor = f
		}
	}
	r.Reset()
	return r
}

func (r *repeatFlavor) Name() string        { return "RepeatFlav" }
func (r *repeatFlavor) Reset()              { r.prev = core.EOBToken(r.k) }
func (r *repeatFlavor) Probs(int) []float64 { return nil }
func (r *repeatFlavor) Predict(int) int {
	if r.prev == core.EOBToken(r.k) {
		return r.bestFlavor
	}
	return r.prev
}
func (r *repeatFlavor) Observe(token int) { r.prev = token }

// coinFlipLifetime assumes 50% hazard in every bin (Table 3 "CoinFlip").
type coinFlipLifetime struct{ j int }

func (c *coinFlipLifetime) Name() string { return "CoinFlip" }
func (c *coinFlipLifetime) Reset()       {}
func (c *coinFlipLifetime) Hazard(core.LifetimeStep, int) []float64 {
	h := make([]float64, c.j)
	for i := range h {
		h[i] = 0.5
	}
	return h
}
func (c *coinFlipLifetime) PredictBin(core.LifetimeStep) int { return 0 }
func (c *coinFlipLifetime) Observe(core.LifetimeStep)        {}

// kmLifetime predicts the pooled Kaplan-Meier hazard for every job
// (Table 3 "Overall KM").
type kmLifetime struct {
	hazard []float64
	best   int
}

// newKMLifetime estimates the pooled discrete hazard from the training
// trace.
func newKMLifetime(train *trace.Trace, bins survival.Bins) *kmLifetime {
	h := survival.KaplanMeier(observations(train), bins)
	return &kmLifetime{hazard: h, best: argmax(survival.HazardToPMF(h))}
}

func (k *kmLifetime) Name() string                            { return "Overall KM" }
func (k *kmLifetime) Reset()                                  {}
func (k *kmLifetime) Hazard(core.LifetimeStep, int) []float64 { return k.hazard }
func (k *kmLifetime) PredictBin(core.LifetimeStep) int        { return k.best }
func (k *kmLifetime) Observe(core.LifetimeStep)               {}

// perFlavorKMLifetime predicts the flavor-specific Kaplan-Meier hazard
// (Table 3 "Per-flavor KM"), falling back to the pooled hazard for
// flavors unseen in training.
type perFlavorKMLifetime struct {
	hazards map[int][]float64
}

// perFlavorShrinkage is the pseudo-count pulling sparse per-flavor
// hazards toward the pooled hazard (see survival.KaplanMeierGroupedShrunk).
const perFlavorShrinkage = 5

// newPerFlavorKMLifetime estimates per-flavor hazards from the training
// trace, with light shrinkage toward the pooled hazard so rare flavors
// do not produce degenerate 0/1 hazards at sub-paper sample sizes.
func newPerFlavorKMLifetime(train *trace.Trace, bins survival.Bins) *perFlavorKMLifetime {
	groups := make([]int, len(train.VMs))
	for i, vm := range train.VMs {
		groups[i] = vm.Flavor
	}
	return &perFlavorKMLifetime{
		hazards: survival.KaplanMeierGroupedShrunk(observations(train), groups, bins, perFlavorShrinkage),
	}
}

func (p *perFlavorKMLifetime) Name() string { return "Per-flavor KM" }
func (p *perFlavorKMLifetime) Reset()       {}
func (p *perFlavorKMLifetime) Hazard(step core.LifetimeStep, _ int) []float64 {
	if h, ok := p.hazards[step.Flavor]; ok {
		return h
	}
	return p.hazards[-1]
}
func (p *perFlavorKMLifetime) PredictBin(step core.LifetimeStep) int {
	return argmax(survival.HazardToPMF(p.Hazard(step, 0)))
}
func (p *perFlavorKMLifetime) Observe(core.LifetimeStep) {}

// repeatLifetime predicts the previous VM's lifetime bin, defaulting to
// the overall KM mode for the first job of each batch (Table 3
// "RepeatLifetime"). Non-probabilistic.
type repeatLifetime struct {
	km      *kmLifetime
	prevBin int
	hasPrev bool
}

// newRepeatLifetime builds the baseline from training data.
func newRepeatLifetime(train *trace.Trace, bins survival.Bins) *repeatLifetime {
	return &repeatLifetime{km: newKMLifetime(train, bins)}
}

func (r *repeatLifetime) Name() string                            { return "RepeatLifetime" }
func (r *repeatLifetime) Reset()                                  { r.hasPrev = false }
func (r *repeatLifetime) Hazard(core.LifetimeStep, int) []float64 { return nil }
func (r *repeatLifetime) PredictBin(step core.LifetimeStep) int {
	if step.FirstInBatch || !r.hasPrev {
		return r.km.best
	}
	return r.prevBin
}
func (r *repeatLifetime) Observe(step core.LifetimeStep) {
	r.prevBin, r.hasPrev = step.Bin, true
}

// observations is a trace's VMs as survival observations.
func observations(tr *trace.Trace) []survival.Observation {
	obs := make([]survival.Observation, len(tr.VMs))
	for i, vm := range tr.VMs {
		obs[i] = survival.Observation{Duration: vm.Duration, Censored: vm.Censored}
	}
	return obs
}

// argmax is the index of the largest of xs, the first on a tie.
func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

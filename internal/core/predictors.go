package core

import (
	"math"

	"repro/internal/survival"
	"repro/internal/trace"
)

// FlavorPredictor scores next-flavor predictions for Table 2. Probs may
// return nil for non-probabilistic predictors (RepeatFlav), in which
// case only the 1-best metric is defined. absPeriod is the absolute
// period index (test window offset + local period) so temporal features
// stay phase-aligned with training.
type FlavorPredictor interface {
	Name() string
	Reset()
	Probs(absPeriod int) []float64
	Predict(absPeriod int) int
	Observe(token int)
}

// UniformFlavor predicts all K+1 tokens equally (Table 2 "Uniform").
type UniformFlavor struct{ K int }

// Name implements FlavorPredictor.
func (u *UniformFlavor) Name() string { return "Uniform" }

// Reset implements FlavorPredictor.
func (u *UniformFlavor) Reset() {}

// Probs implements FlavorPredictor.
func (u *UniformFlavor) Probs(int) []float64 {
	p := make([]float64, u.K+1)
	for i := range p {
		p[i] = 1 / float64(u.K+1)
	}
	return p
}

// Predict implements FlavorPredictor.
func (u *UniformFlavor) Predict(int) int { return 0 }

// Observe implements FlavorPredictor.
func (u *UniformFlavor) Observe(int) {}

// MultinomialFlavor predicts each token by its empirical frequency in
// training data (Table 2 "Multinomial" — the traditional
// independent-arrival model).
type MultinomialFlavor struct {
	probs []float64
	best  int
}

// NewMultinomialFlavor estimates token frequencies (flavors and EOB)
// from the training trace with add-one smoothing.
func NewMultinomialFlavor(train *trace.Trace) *MultinomialFlavor {
	k := train.Flavors.K()
	counts := make([]float64, k+1)
	for i := range counts {
		counts[i] = 1 // Laplace smoothing
	}
	for _, tok := range FlavorTokens(train) {
		counts[tok.Token]++
	}
	var total float64
	for _, c := range counts {
		total += c
	}
	m := &MultinomialFlavor{probs: counts}
	for i := range m.probs {
		m.probs[i] /= total
		if m.probs[i] > m.probs[m.best] {
			m.best = i
		}
	}
	return m
}

// Name implements FlavorPredictor.
func (m *MultinomialFlavor) Name() string { return "Multinomial" }

// Reset implements FlavorPredictor.
func (m *MultinomialFlavor) Reset() {}

// Probs implements FlavorPredictor.
func (m *MultinomialFlavor) Probs(int) []float64 { return m.probs }

// Predict implements FlavorPredictor.
func (m *MultinomialFlavor) Predict(int) int { return m.best }

// Observe implements FlavorPredictor.
func (m *MultinomialFlavor) Observe(int) {}

// RepeatFlavor always predicts the previous token, defaulting to the
// most frequent training flavor after an EOB (Table 2 "RepeatFlav" —
// after an end-of-batch the next token is always a flavor, so the
// multinomial fallback is taken over flavors only). It is
// non-probabilistic: Probs returns nil.
type RepeatFlavor struct {
	K          int
	bestFlavor int
	prev       int
}

// NewRepeatFlavor builds the baseline from training data.
func NewRepeatFlavor(train *trace.Trace) *RepeatFlavor {
	r := &RepeatFlavor{K: train.Flavors.K()}
	counts := make([]int, r.K)
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

// Name implements FlavorPredictor.
func (r *RepeatFlavor) Name() string { return "RepeatFlav" }

// Reset implements FlavorPredictor.
func (r *RepeatFlavor) Reset() { r.prev = EOBToken(r.K) }

// Probs implements FlavorPredictor.
func (r *RepeatFlavor) Probs(int) []float64 { return nil }

// Predict implements FlavorPredictor.
func (r *RepeatFlavor) Predict(int) int {
	if r.prev == EOBToken(r.K) {
		return r.bestFlavor
	}
	return r.prev
}

// Observe implements FlavorPredictor.
func (r *RepeatFlavor) Observe(token int) { r.prev = token }

// rnnFlavorPredictor wraps a trained recurrent flavor network, LSTM or
// GRU, for teacher-forced evaluation.
type rnnFlavorPredictor struct {
	name string
	st   *flavorState
}

// NewLSTMFlavorPredictor wraps the flavor LSTM m.
func NewLSTMFlavorPredictor(m *FlavorModel) FlavorPredictor {
	return &rnnFlavorPredictor{"LSTM", m.newFlavorState()}
}

// NewGRUFlavorPredictor wraps the flavor GRU m.
func NewGRUFlavorPredictor(m *GRUFlavorModel) FlavorPredictor {
	return &rnnFlavorPredictor{"GRU", newFlavorState(m.Net, m.K, m.Temporal)}
}

// Name implements FlavorPredictor.
func (p *rnnFlavorPredictor) Name() string { return p.name }

// Reset implements FlavorPredictor (in place; no reallocation).
func (p *rnnFlavorPredictor) Reset() { p.st.reset() }

// Probs implements FlavorPredictor. The DOH day is the period's actual
// day, clamped to the training history (i.e. the last training day for
// test periods beyond it). The result is the predictor's reusable
// buffer, overwritten by the next call.
func (p *rnnFlavorPredictor) Probs(absPeriod int) []float64 {
	return p.st.probs(absPeriod, trace.DayOfHistory(absPeriod))
}

// Predict implements FlavorPredictor. Callers must use the Probs result
// via EvaluateFlavor; Predict alone would advance the network twice, so
// it is only meaningful for non-probabilistic baselines.
func (p *rnnFlavorPredictor) Predict(absPeriod int) int {
	return argmax(p.Probs(absPeriod))
}

// Observe implements FlavorPredictor.
func (p *rnnFlavorPredictor) Observe(token int) { p.st.observe(token) }

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// FlavorEval holds Table 2's per-system metrics.
type FlavorEval struct {
	NLL        float64
	OneBestErr float64
	HasNLL     bool
	Steps      int
}

// EvaluateFlavor runs teacher-forced next-token evaluation over the test
// token stream (metrics of §5.2). offset is the absolute period index of
// the test window start.
func EvaluateFlavor(pred FlavorPredictor, toks []FlavorToken, offset int) FlavorEval {
	pred.Reset()
	var nll float64
	var errs, steps int
	probabilistic := true
	for _, tok := range toks {
		abs := offset + tok.Period
		p := pred.Probs(abs)
		var pick int
		if p == nil {
			probabilistic = false
			pick = pred.Predict(abs)
		} else {
			nll += -math.Log(math.Max(p[tok.Token], 1e-300))
			pick = argmax(p)
		}
		if pick != tok.Token {
			errs++
		}
		steps++
		pred.Observe(tok.Token)
	}
	ev := FlavorEval{Steps: steps, HasNLL: probabilistic}
	if steps > 0 {
		ev.OneBestErr = float64(errs) / float64(steps)
		if probabilistic {
			ev.NLL = nll / float64(steps)
		}
	}
	return ev
}

// LifetimePredictor scores next-lifetime predictions for Table 3.
// Hazard may return nil for non-probabilistic predictors
// (RepeatLifetime), in which case only the 1-best metric is defined.
type LifetimePredictor interface {
	Name() string
	Reset()
	Hazard(step LifetimeStep, absPeriod int) []float64
	PredictBin(step LifetimeStep) int
	Observe(step LifetimeStep)
}

// CoinFlipLifetime assumes 50% hazard in every bin (Table 3 "CoinFlip").
type CoinFlipLifetime struct{ J int }

// Name implements LifetimePredictor.
func (c *CoinFlipLifetime) Name() string { return "CoinFlip" }

// Reset implements LifetimePredictor.
func (c *CoinFlipLifetime) Reset() {}

// Hazard implements LifetimePredictor.
func (c *CoinFlipLifetime) Hazard(LifetimeStep, int) []float64 {
	h := make([]float64, c.J)
	for i := range h {
		h[i] = 0.5
	}
	return h
}

// PredictBin implements LifetimePredictor.
func (c *CoinFlipLifetime) PredictBin(LifetimeStep) int { return 0 }

// Observe implements LifetimePredictor.
func (c *CoinFlipLifetime) Observe(LifetimeStep) {}

// KMLifetime predicts the pooled Kaplan-Meier hazard for every job
// (Table 3 "Overall KM").
type KMLifetime struct {
	hazard []float64
	best   int
}

// NewKMLifetime estimates the pooled discrete hazard from the training
// trace.
func NewKMLifetime(train *trace.Trace, bins survival.Bins) *KMLifetime {
	obs := traceObservations(train)
	h := survival.KaplanMeier(obs, bins)
	return &KMLifetime{hazard: h, best: argmax(survival.HazardToPMF(h))}
}

// Name implements LifetimePredictor.
func (k *KMLifetime) Name() string { return "Overall KM" }

// Reset implements LifetimePredictor.
func (k *KMLifetime) Reset() {}

// Hazard implements LifetimePredictor.
func (k *KMLifetime) Hazard(LifetimeStep, int) []float64 { return k.hazard }

// PredictBin implements LifetimePredictor.
func (k *KMLifetime) PredictBin(LifetimeStep) int { return k.best }

// Observe implements LifetimePredictor.
func (k *KMLifetime) Observe(LifetimeStep) {}

// PerFlavorKMLifetime predicts the flavor-specific Kaplan-Meier hazard
// (Table 3 "Per-flavor KM"), falling back to the pooled hazard for
// flavors unseen in training.
type PerFlavorKMLifetime struct {
	hazards map[int][]float64
}

// perFlavorShrinkage is the pseudo-count pulling sparse per-flavor
// hazards toward the pooled hazard (see survival.KaplanMeierGroupedShrunk).
const perFlavorShrinkage = 5

// NewPerFlavorKMLifetime estimates per-flavor hazards from the training
// trace, with light shrinkage toward the pooled hazard so rare flavors
// do not produce degenerate 0/1 hazards at sub-paper sample sizes.
func NewPerFlavorKMLifetime(train *trace.Trace, bins survival.Bins) *PerFlavorKMLifetime {
	obs := traceObservations(train)
	groups := make([]int, len(train.VMs))
	for i, vm := range train.VMs {
		groups[i] = vm.Flavor
	}
	return &PerFlavorKMLifetime{
		hazards: survival.KaplanMeierGroupedShrunk(obs, groups, bins, perFlavorShrinkage),
	}
}

// Name implements LifetimePredictor.
func (p *PerFlavorKMLifetime) Name() string { return "Per-flavor KM" }

// Reset implements LifetimePredictor.
func (p *PerFlavorKMLifetime) Reset() {}

// Hazard implements LifetimePredictor.
func (p *PerFlavorKMLifetime) Hazard(step LifetimeStep, _ int) []float64 {
	if h, ok := p.hazards[step.Flavor]; ok {
		return h
	}
	return p.hazards[-1]
}

// PredictBin implements LifetimePredictor.
func (p *PerFlavorKMLifetime) PredictBin(step LifetimeStep) int {
	return argmax(survival.HazardToPMF(p.Hazard(step, 0)))
}

// Observe implements LifetimePredictor.
func (p *PerFlavorKMLifetime) Observe(LifetimeStep) {}

// RepeatLifetime predicts the previous VM's lifetime bin, defaulting to
// the overall KM mode for the first job of each batch (Table 3
// "RepeatLifetime"). Non-probabilistic.
type RepeatLifetime struct {
	km      *KMLifetime
	prevBin int
	hasPrev bool
}

// NewRepeatLifetime builds the baseline from training data.
func NewRepeatLifetime(train *trace.Trace, bins survival.Bins) *RepeatLifetime {
	return &RepeatLifetime{km: NewKMLifetime(train, bins)}
}

// Name implements LifetimePredictor.
func (r *RepeatLifetime) Name() string { return "RepeatLifetime" }

// Reset implements LifetimePredictor.
func (r *RepeatLifetime) Reset() { r.hasPrev = false }

// Hazard implements LifetimePredictor.
func (r *RepeatLifetime) Hazard(LifetimeStep, int) []float64 { return nil }

// PredictBin implements LifetimePredictor.
func (r *RepeatLifetime) PredictBin(step LifetimeStep) int {
	if step.FirstInBatch || !r.hasPrev {
		return r.km.best
	}
	return r.prevBin
}

// Observe implements LifetimePredictor.
func (r *RepeatLifetime) Observe(step LifetimeStep) {
	r.prevBin, r.hasPrev = step.Bin, true
}

// LSTMLifetimePredictor wraps the trained hazard LSTM for teacher-forced
// evaluation.
type LSTMLifetimePredictor struct {
	m  *LifetimeModel
	st *lifetimeState
}

// NewLSTMLifetimePredictor wraps m.
func NewLSTMLifetimePredictor(m *LifetimeModel) *LSTMLifetimePredictor {
	return &LSTMLifetimePredictor{m: m, st: m.newLifetimeState()}
}

// Name implements LifetimePredictor.
func (l *LSTMLifetimePredictor) Name() string { return "LSTM" }

// Reset implements LifetimePredictor (in place; no reallocation).
func (l *LSTMLifetimePredictor) Reset() { l.st.reset() }

// Hazard implements LifetimePredictor. Each call advances the LSTM one
// step; call exactly once per step, before Observe.
func (l *LSTMLifetimePredictor) Hazard(step LifetimeStep, absPeriod int) []float64 {
	local := step
	local.Period = absPeriod
	return l.st.hazard(local, trace.DayOfHistory(absPeriod))
}

// PredictBin implements LifetimePredictor (unused for probabilistic
// predictors; EvaluateLifetime derives 1-best from Hazard).
func (l *LSTMLifetimePredictor) PredictBin(LifetimeStep) int { return 0 }

// Observe implements LifetimePredictor.
func (l *LSTMLifetimePredictor) Observe(step LifetimeStep) {
	l.st.observe(step.Bin, step.Censored)
}

// LifetimeEval holds Table 3's per-system metrics.
type LifetimeEval struct {
	BCE        float64
	OneBestErr float64
	HasBCE     bool
	Steps      int // uncensored steps scored by 1-best
	Outputs    int // unmasked outputs scored by BCE
}

// EvaluateLifetime runs teacher-forced evaluation over the test job
// sequence (metrics of §5.3). Censored jobs contribute their masked BCE
// terms but are excluded from the 1-best error.
func EvaluateLifetime(pred LifetimePredictor, steps []LifetimeStep, bins survival.Bins, offset int) LifetimeEval {
	pred.Reset()
	j := bins.J()
	target := make([]float64, j)
	mask := make([]float64, j)
	var bce float64
	var outputs, errs, scored int
	probabilistic := true
	for _, step := range steps {
		abs := offset + step.Period
		h := pred.Hazard(step, abs)
		var pick int
		if h == nil {
			probabilistic = false
			pick = pred.PredictBin(step)
		} else {
			lifetimeTargets(target, mask, step)
			for i := 0; i < j; i++ {
				if mask[i] == 0 {
					continue
				}
				p := math.Min(math.Max(h[i], 1e-12), 1-1e-12)
				if target[i] == 1 {
					bce += -math.Log(p)
				} else {
					bce += -math.Log(1 - p)
				}
				outputs++
			}
			pick = argmax(survival.HazardToPMF(h))
		}
		if !step.Censored {
			if pick != step.Bin {
				errs++
			}
			scored++
		}
		pred.Observe(step)
	}
	ev := LifetimeEval{Steps: scored, Outputs: outputs, HasBCE: probabilistic}
	if scored > 0 {
		ev.OneBestErr = float64(errs) / float64(scored)
	}
	if probabilistic && outputs > 0 {
		ev.BCE = bce / float64(outputs)
	}
	return ev
}

// TeacherForcedHazards returns the LSTM's hazard for every step of a
// test sequence under teacher forcing — the per-job survival curves used
// by the Table 4 Survival-MSE evaluation.
func (m *LifetimeModel) TeacherForcedHazards(steps []LifetimeStep, offset int) [][]float64 {
	st := m.newLifetimeState()
	out := make([][]float64, len(steps))
	for i, step := range steps {
		abs := offset + step.Period
		local := step
		local.Period = abs
		// hazard reuses one buffer per state; clone to keep every step.
		out[i] = append([]float64(nil), st.hazard(local, trace.DayOfHistory(abs))...)
		st.observe(step.Bin, step.Censored)
	}
	return out
}

// traceObservations converts a trace's VMs into survival observations.
func traceObservations(tr *trace.Trace) []survival.Observation {
	obs := make([]survival.Observation, len(tr.VMs))
	for i, vm := range tr.VMs {
		obs[i] = survival.Observation{Duration: vm.Duration, Censored: vm.Censored}
	}
	return obs
}

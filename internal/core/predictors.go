package core

import (
	"math"

	"repro/internal/survival"
	"repro/internal/trace"
)

// FlavorPredictor scores next-flavor predictions for Table 2. Probs may
// return nil for non-probabilistic predictors (the RepeatFlav baseline
// of internal/experiments), in which case only the 1-best metric is
// defined. absPeriod is the absolute
// period index (test window offset + local period) so temporal features
// stay phase-aligned with training.
type FlavorPredictor interface {
	Name() string
	Reset()
	Probs(absPeriod int) []float64
	Predict(absPeriod int) int
	Observe(token int)
}

// lstmFlavorPredictor wraps the trained flavor LSTM for teacher-forced
// evaluation.
type lstmFlavorPredictor struct {
	st *flavorState
}

// NewLSTMFlavorPredictor wraps the flavor LSTM m. It packs m.Net's
// panels here, so it is valid until those weights change: at f64 its
// fleet reads layer 0's Wx and the biases live, the panels as packed.
func NewLSTMFlavorPredictor(m *FlavorModel) FlavorPredictor {
	return &lstmFlavorPredictor{newFlavorState(m.Net, m.K, m.Temporal)}
}

// Name implements FlavorPredictor.
func (p *lstmFlavorPredictor) Name() string { return "LSTM" }

// Reset implements FlavorPredictor (in place; no reallocation).
func (p *lstmFlavorPredictor) Reset() { p.st.reset() }

// Probs implements FlavorPredictor. The DOH day is the period's actual
// day, clamped to the training history (i.e. the last training day for
// test periods beyond it). The result is the predictor's reusable
// buffer, overwritten by the next call.
func (p *lstmFlavorPredictor) Probs(absPeriod int) []float64 {
	return p.st.probs(absPeriod, trace.DayOfHistory(absPeriod))
}

// Predict implements FlavorPredictor. Callers must use the Probs result
// via EvaluateFlavor; Predict alone would advance the network twice, so
// it is only meaningful for non-probabilistic baselines.
func (p *lstmFlavorPredictor) Predict(absPeriod int) int {
	return argmax(p.Probs(absPeriod))
}

// Observe implements FlavorPredictor.
func (p *lstmFlavorPredictor) Observe(token int) { p.st.observe(token) }

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
// Hazard may return nil for non-probabilistic predictors (the
// RepeatLifetime baseline of internal/experiments), in which case only
// the 1-best metric is defined.
type LifetimePredictor interface {
	Name() string
	Reset()
	Hazard(step LifetimeStep, absPeriod int) []float64
	PredictBin(step LifetimeStep) int
	Observe(step LifetimeStep)
}

// LSTMLifetimePredictor wraps the trained hazard LSTM for teacher-forced
// evaluation.
type LSTMLifetimePredictor struct {
	st *lifetimeState
}

// NewLSTMLifetimePredictor wraps m, valid until m.Net's weights change
// (see NewLSTMFlavorPredictor).
func NewLSTMLifetimePredictor(m *LifetimeModel) *LSTMLifetimePredictor {
	return &LSTMLifetimePredictor{st: m.newLifetimeState()}
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

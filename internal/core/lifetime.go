package core

import (
	"math"

	"repro/internal/features"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// LifetimeModel is the stage-3 LSTM (§2.3): at each step (job) it emits
// J logits that parameterize the discrete hazard over lifetime bins via
// the logistic function. It is the paper's key contribution — an
// inter-case recurrent survival model with censoring-aware training.
type LifetimeModel struct {
	Net         *nn.LSTM
	Bins        survival.Bins
	K           int
	Temporal    features.Temporal
	LifeFeat    features.LifetimeFeatures
	HistoryDays int
}

// lifetimeInputDim: temporal + current flavor one-hot + batch-size
// scalar + previous-lifetime features (survival encoding + termination
// indicators).
func lifetimeInputDim(k int, temporal features.Temporal, lf features.LifetimeFeatures) int {
	return temporal.Dim() + k + 1 + lf.Dim()
}

// encodeLifetimeInput writes the step input for a job. prevBin < 0
// encodes "no previous job".
func (m *LifetimeModel) encodeLifetimeInput(dst []float64, step LifetimeStep, dohDay, prevBin int, prevCensored bool) {
	EncodeLifetimeInput(dst, m.K, m.Temporal, m.LifeFeat, step, dohDay, prevBin, prevCensored)
}

// EncodeLifetimeInput is the receiver-free form of encodeLifetimeInput
// over k flavors.
func EncodeLifetimeInput(dst []float64, k int, temporal features.Temporal, lf features.LifetimeFeatures, step LifetimeStep, dohDay, prevBin int, prevCensored bool) {
	td := temporal.Dim()
	temporal.Encode(dst[:td], step.Period, dohDay)
	features.OneHot(dst[td:td+k], step.Flavor)
	dst[td+k] = math.Log1p(float64(step.BatchSize))
	lf.Encode(dst[td+k+1:], prevBin, prevCensored)
}

// lifetimeTargets fills the per-bin targets and mask for one observed
// step (§2.3.2): an uncensored job in bin k is a hazard event at k after
// surviving bins < k (mask 0..k); a job censored in bin c only certifies
// survival of bins < c (mask 0..c-1, all-zero targets).
func lifetimeTargets(target, mask []float64, step LifetimeStep) {
	for j := range target {
		target[j], mask[j] = 0, 0
	}
	if step.Censored {
		for j := 0; j < step.Bin; j++ {
			mask[j] = 1
		}
		return
	}
	for j := 0; j <= step.Bin; j++ {
		mask[j] = 1
	}
	target[step.Bin] = 1
}

// TrainLifetime trains the hazard LSTM on the training trace by teacher
// forcing over the job sequence, minimizing the masked BCE-with-logits
// loss (§2.3.2, §4.1).
func TrainLifetime(tr *trace.Trace, bins survival.Bins, cfg TrainConfig) *LifetimeModel {
	cfg = cfg.withDefaults()
	k := tr.Flavors.K()
	historyDays := HistoryDays(tr)
	j := bins.J()
	m := &LifetimeModel{
		Bins:        bins,
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		LifeFeat:    features.LifetimeFeatures{Bins: j},
		HistoryDays: historyDays,
	}
	steps := LifetimeSteps(tr, bins)
	g := rng.New(cfg.Seed + 1)
	// One target row and one mask row per batch row; a shard fills and
	// reads only its own rows, one step at a time.
	tgt, msk := mat.NewDense(cfg.BatchSize, j), mat.NewDense(cfg.BatchSize, j)
	task := LifetimeTask(steps, k, m.Temporal, m.LifeFeat).WithHead(j, func(lo int, ts []int, y, dy *mat.Dense) float64 {
		hi := lo + len(ts)
		tg := mat.Dense{Rows: len(ts), Cols: j, Data: tgt.Data[lo*j : hi*j]}
		mk := mat.Dense{Rows: len(ts), Cols: j, Data: msk.Data[lo*j : hi*j]}
		for r, t := range ts {
			if t < 0 {
				clear(mk.Row(r)) // zero mask: no loss
				continue
			}
			lifetimeTargets(tg.Row(r), mk.Row(r), steps[t])
		}
		loss, _ := nn.MaskedBCEWithLogitsInto(y, &tg, &mk, dy)
		return loss
	})
	// The masked-BCE output count of a job is its number of unmasked bins
	// (lifetimeTargets).
	task.outputs = func(t int) int {
		if steps[t].Censored {
			return steps[t].Bin
		}
		return steps[t].Bin + 1
	}
	m.Net = nn.NewLSTM(task.NetConfig(cfg), g)
	if cfg.Dev != nil {
		if devSteps := LifetimeSteps(cfg.Dev, bins); len(devSteps) > 0 {
			task.dev = func() float64 {
				return EvaluateLifetime(NewLSTMLifetimePredictor(m), devSteps, bins, cfg.DevOffset).BCE
			}
		}
	}
	task.RunBPTT(cfg, tr, ObsLifetimeHazard, m.Net, g)
	return m
}

// lifetimeState is the step-by-step state for teacher-forced
// evaluation of the hazard LSTM: a one-row fleet stepped once per job,
// the step generation decodes on (genStream, engine.go).
type lifetimeState struct {
	m        *LifetimeModel
	fleet    *nn.Fleet[float64]
	rows     []int // {0}: the fleet's one row, so Step allocates nothing
	prevBin  int
	prevCens bool
	out      []float64 // hazard result buffer, overwritten each step
}

// newLifetimeState returns a fresh state with no previous job.
func (m *LifetimeModel) newLifetimeState() *lifetimeState {
	s := &lifetimeState{
		m:       m,
		fleet:   m.Net.NewFleetPacked(1, m.Net.Pack()),
		rows:    []int{0},
		prevBin: -1,
		out:     make([]float64, m.Bins.J()),
	}
	s.fleet.Admit()
	return s
}

// reset restores the fresh-state condition: a re-admitted (zeroed) row,
// no previous job.
func (s *lifetimeState) reset() {
	s.fleet.Retire(0)
	s.fleet.Admit()
	s.prevBin, s.prevCens = -1, false
}

// hazard advances the LSTM one step and returns the per-bin hazard
// probabilities for the given job. The returned slice is the state's
// reusable buffer, overwritten by the next hazard call; clone it to
// keep it across steps.
func (s *lifetimeState) hazard(step LifetimeStep, dohDay int) []float64 {
	s.m.encodeLifetimeInput(s.fleet.InputRow(0), step, dohDay, s.prevBin, s.prevCens)
	nn.SigmoidInto(s.fleet.Step(s.rows).Row(0), s.out)
	return s.out
}

// observe records the realized lifetime bin of the job just scored.
func (s *lifetimeState) observe(bin int, censored bool) {
	s.prevBin, s.prevCens = bin, censored
}

// Package core implements the paper's contribution: the three-stage
// generative workload model (§2) — a Poisson-regression batch-arrival
// model, an LSTM flavor-sequence model with end-of-batch tokens, and an
// LSTM lifetime model parameterizing a censoring-aware discrete hazard —
// together with its training (§4.2), the end-to-end trace generator and
// the decode engines that serve it (§2.4), and the teacher-forced
// evaluation its development-set selection scores with. The baselines
// the paper measures it against (Naive, SimpleBatch, Uniform,
// Multinomial, RepeatFlav, CoinFlip, Kaplan-Meier variants,
// RepeatLifetime) and its ablation models live in internal/experiments,
// which evaluates them through this package's FlavorPredictor and
// LifetimePredictor interfaces.
package core

import (
	"repro/internal/survival"
	"repro/internal/trace"
)

// FlavorToken is one element of the flavor sequence: either a flavor
// index in [0, K) or the end-of-batch token EOB(K). The token stream
// serializes a trace in generative order: for each period, for each
// batch, the batch's flavors followed by one EOB (§2.2.1).
type FlavorToken struct {
	Period int
	Token  int
}

// EOBToken returns the end-of-batch token index for a K-flavor catalog.
func EOBToken(k int) int { return k }

// FlavorTokens serializes tr into the flavor token stream.
func FlavorTokens(tr *trace.Trace) []FlavorToken {
	eob := EOBToken(tr.Flavors.K())
	var out []FlavorToken
	for p, batches := range tr.PeriodBatches() {
		for _, b := range batches {
			for _, idx := range b.Indices {
				out = append(out, FlavorToken{Period: p, Token: tr.VMs[idx].Flavor})
			}
			out = append(out, FlavorToken{Period: p, Token: eob})
		}
	}
	return out
}

// LifetimeStep is one element of the lifetime sequence: one job together
// with everything the hazard LSTM conditions on (§2.3.3). The sequence
// contains only jobs (no EOB tokens); batch boundaries are conveyed by
// the BatchSize feature and the FirstInBatch flag used by the
// RepeatLifetime baseline (internal/experiments).
type LifetimeStep struct {
	Period       int
	Flavor       int
	BatchSize    int
	Bin          int // lifetime bin (censoring bin if Censored)
	Censored     bool
	FirstInBatch bool
}

// LifetimeSteps serializes tr into the lifetime step sequence using the
// given bin layout.
func LifetimeSteps(tr *trace.Trace, bins survival.Bins) []LifetimeStep {
	var out []LifetimeStep
	for p, batches := range tr.PeriodBatches() {
		for _, b := range batches {
			for i, idx := range b.Indices {
				vm := tr.VMs[idx]
				out = append(out, LifetimeStep{
					Period:       p,
					Flavor:       vm.Flavor,
					BatchSize:    len(b.Indices),
					Bin:          bins.Index(vm.Duration),
					Censored:     vm.Censored,
					FirstInBatch: i == 0,
				})
			}
		}
	}
	return out
}

// segmentPlan describes stateful truncated-BPTT training: the stream of
// total steps is split into batch contiguous segments processed in
// parallel; each training window advances all segments by seqLen steps,
// carrying LSTM state across windows within an epoch. This keeps the
// network's state distribution during training consistent with
// arbitrarily long free-running generation.
type segmentPlan struct {
	total   int
	batch   int
	segLen  int
	winLen  int
	windows int
}

func newSegmentPlan(total, seqLen, batchSize int) segmentPlan {
	if seqLen <= 0 || batchSize <= 0 {
		panic("core: segment plan needs positive seqLen and batchSize")
	}
	if batchSize > total && total > 0 {
		batchSize = total
	}
	segLen := (total + batchSize - 1) / batchSize
	windows := (segLen + seqLen - 1) / seqLen
	return segmentPlan{
		total: total, batch: batchSize, segLen: segLen,
		winLen: seqLen, windows: windows,
	}
}

// step returns the global stream index for segment row b at window w,
// window-local step s, and whether it is in range.
func (p segmentPlan) step(b, w, s int) (int, bool) {
	local := w*p.winLen + s
	if local >= p.segLen {
		return 0, false
	}
	t := b*p.segLen + local
	if t >= p.total {
		return 0, false
	}
	return t, true
}

// windowLen returns the number of steps in window w (the final window
// may be short).
func (p segmentPlan) windowLen(w int) int {
	l := p.segLen - w*p.winLen
	if l > p.winLen {
		l = p.winLen
	}
	if l < 0 {
		l = 0
	}
	return l
}

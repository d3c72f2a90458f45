package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// ObsLifetimePMF is the PMF-head fit's model name in obs.EpochEvent,
// beside core's (core.ObsLifetimeHazard and the rest); its checkpoint
// files are prefixed with it, '_' written '-'.
const ObsLifetimePMF = "lifetime_pmf"

// HeadRow is one parameterization's row in the §2.3.1 hazard-vs-PMF
// lifetime-head comparison.
type HeadRow struct {
	Head       string
	BCE        float64
	OneBestErr float64
}

// pmfRow is the PMF-head row of the §2.3.1 design comparison:
// parameterizing the discrete hazard (the paper's choice, following
// Kvamme & Borgan's "slightly better") versus a softmax PMF head trained
// with the censored-tail likelihood. The other rows are Table 3's.
func pmfRow(c *Cloud) HeadRow {
	m := TrainLifetimePMF(c.Train, c.Bins, c.Scale.Train)
	ev := core.EvaluateLifetime(NewPMFLifetimePredictor(m), core.LifetimeSteps(c.Test, c.Bins), c.Bins, c.TestW.Start)
	return HeadRow{Head: "LSTM (PMF head)", BCE: ev.BCE, OneBestErr: ev.OneBestErr}
}

// PMFLifetimeModel parameterizes the lifetime PMF with a softmax instead
// of the per-bin hazard logistic — the alternative §2.3.1 discusses
// (Kvamme & Borgan found the hazard form "slightly better"; the
// lifetime-head ablation, pmfRow, reproduces the comparison). The
// censored-data likelihood under a PMF head is the tail mass
// Σ_{j>=c} f(j).
type PMFLifetimeModel struct {
	Net         *nn.LSTM
	Bins        survival.Bins
	K           int
	Temporal    features.Temporal
	LifeFeat    features.LifetimeFeatures
	HistoryDays int
}

// pmfLoss computes the negative log-likelihood and dLogits for one
// step's softmax logits under the discrete-time survival likelihood:
// -log f(k) for an event in bin k, -log Σ_{j>=c} f(j) for censoring at
// bin c. Returns the loss (0 and a zero gradient if the censored tail
// is the whole distribution, which carries no information). dLogits
// doubles as the probability scratch, so the call allocates nothing.
func pmfLoss(logits []float64, step core.LifetimeStep, dLogits []float64) float64 {
	if step.Censored && step.Bin == 0 {
		// Censored before surviving any full bin: no information.
		clear(dLogits)
		return 0
	}
	probs := dLogits
	nn.SoftmaxInto(logits, probs)
	if !step.Censored {
		loss := -math.Log(math.Max(probs[step.Bin], 1e-300))
		probs[step.Bin] -= 1 // p - onehot
		return loss
	}
	var tail float64
	for _, p := range probs[step.Bin:] {
		tail += p
	}
	tail = math.Max(tail, 1e-300)
	// d/dz_j of -log Σ_{i>=c} p_i = p_j - p_j·1[j>=c]/tail.
	for j := step.Bin; j < len(probs); j++ {
		probs[j] -= probs[j] / tail
	}
	return -math.Log(tail)
}

// TrainLifetimePMF trains the PMF-head lifetime model with the same
// stateful-BPTT recipe as the hazard model.
func TrainLifetimePMF(tr *trace.Trace, bins survival.Bins, cfg core.TrainConfig) *PMFLifetimeModel {
	k := tr.Flavors.K()
	historyDays := core.HistoryDays(tr)
	j := bins.J()
	m := &PMFLifetimeModel{
		Bins:        bins,
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		LifeFeat:    features.LifetimeFeatures{Bins: j},
		HistoryDays: historyDays,
	}
	steps := core.LifetimeSteps(tr, bins)
	task := core.LifetimeTask(steps, k, m.Temporal, m.LifeFeat).WithHead(j, func(_ int, ts []int, y, dy *mat.Dense) float64 {
		var loss float64
		for r, t := range ts {
			if t < 0 {
				clear(dy.Row(r))
				continue
			}
			loss += pmfLoss(y.Row(r), steps[t], dy.Row(r))
		}
		return loss
	})
	g := rng.New(cfg.Seed + 50)
	m.Net = nn.NewLSTM(task.NetConfig(cfg), g)
	task.RunBPTT(cfg, tr, ObsLifetimePMF, m.Net, g)
	return m
}

// PMFLifetimePredictor adapts the PMF model to the core.LifetimePredictor
// interface: the softmax PMF is converted to a hazard so both heads are
// scored with the same BCE machinery. It steps a one-row fleet.
type PMFLifetimePredictor struct {
	m        *PMFLifetimeModel
	fleet    *nn.Fleet[float64]
	rows     []int     // {0}: the fleet's one row
	hazard   []float64 // the PMF, then in place the hazard Hazard returns
	prevBin  int
	prevCens bool
}

// NewPMFLifetimePredictor wraps m. It packs m.Net's panels here, so the
// predictor is valid until those weights change.
func NewPMFLifetimePredictor(m *PMFLifetimeModel) *PMFLifetimePredictor {
	p := &PMFLifetimePredictor{m: m, fleet: m.Net.NewFleetPacked(1, m.Net.Pack()), rows: []int{0},
		hazard: make([]float64, m.Net.Cfg.OutputDim), prevBin: -1}
	p.fleet.Admit()
	return p
}

// Name implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) Name() string { return "LSTM (PMF head)" }

// Reset implements core.LifetimePredictor: re-admitting the fleet's row
// zeroes its state.
func (p *PMFLifetimePredictor) Reset() {
	p.fleet.Retire(0)
	p.fleet.Admit()
	p.prevBin = -1
	p.prevCens = false
}

// Hazard implements core.LifetimePredictor. The hazard is the
// predictor's own buffer, valid until the next call, and the call
// allocates nothing.
func (p *PMFLifetimePredictor) Hazard(step core.LifetimeStep, absPeriod int) []float64 {
	local := step
	local.Period = absPeriod
	core.EncodeLifetimeInput(p.fleet.InputRow(0), p.m.K, p.m.Temporal, p.m.LifeFeat,
		local, trace.DayOfHistory(absPeriod), p.prevBin, p.prevCens)
	nn.SoftmaxInto(p.fleet.Step(p.rows).Row(0), p.hazard)
	return survival.PMFToHazardInto(p.hazard, p.hazard)
}

// PredictBin implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) PredictBin(core.LifetimeStep) int { return 0 }

// Observe implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) Observe(step core.LifetimeStep) {
	p.prevBin, p.prevCens = step.Bin, step.Censored
}

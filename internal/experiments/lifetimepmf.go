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
// scored with the same BCE machinery.
type PMFLifetimePredictor struct {
	m        *PMFLifetimeModel
	st       *nn.State
	prevBin  int
	prevCens bool
	input    []float64
}

// NewPMFLifetimePredictor wraps m.
func NewPMFLifetimePredictor(m *PMFLifetimeModel) *PMFLifetimePredictor {
	p := &PMFLifetimePredictor{m: m}
	p.Reset()
	return p
}

// Name implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) Name() string { return "LSTM (PMF head)" }

// Reset implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) Reset() {
	p.st = p.m.Net.NewState(1)
	p.prevBin = -1
	p.prevCens = false
	p.input = make([]float64, p.m.Net.Cfg.InputDim)
}

// Hazard implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) Hazard(step core.LifetimeStep, absPeriod int) []float64 {
	local := step
	local.Period = absPeriod
	core.EncodeLifetimeInput(p.input, p.m.K, p.m.Temporal, p.m.LifeFeat,
		local, trace.DayOfHistory(absPeriod), p.prevBin, p.prevCens)
	logits := p.m.Net.StepForward(p.input, p.st)
	return survival.PMFToHazard(nn.Softmax(logits))
}

// PredictBin implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) PredictBin(core.LifetimeStep) int { return 0 }

// Observe implements core.LifetimePredictor.
func (p *PMFLifetimePredictor) Observe(step core.LifetimeStep) {
	p.prevBin, p.prevCens = step.Bin, step.Censored
}

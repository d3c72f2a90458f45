package core

import (
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// GRUFlavorModel is the stage-2 model with a GRU instead of an LSTM —
// the third arm of the §7 architecture ablation.
type GRUFlavorModel struct {
	Net         *nn.GRU
	K           int
	Temporal    features.Temporal
	HistoryDays int
}

// TrainFlavorGRU trains the GRU flavor model with the same
// hyperparameter set as the LSTM.
func TrainFlavorGRU(tr *trace.Trace, cfg TrainConfig) *GRUFlavorModel {
	cfg = cfg.withDefaults()
	k := tr.Flavors.K()
	historyDays := historyDaysOf(tr)
	m := &GRUFlavorModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	toks := FlavorTokens(tr)
	g := rng.New(cfg.Seed + 40)
	task := nextTokenTask(toks, k+1, EOBToken(k), m.Temporal)
	m.Net = nn.NewGRU(cfg.netConfig(task.inDim, task.outDim), g)
	task.sgdFit = sgdFit{
		model: ObsFlavorGRU, prefix: "flavor-gru",
		fingerprint: cfg.fingerprint(ObsFlavorGRU, len(toks), k, historyDays),
		net:         m.Net, rng: g,
	}
	task.shard = shardGRU(m.Net)
	runBPTT(cfg, task)
	return m
}

// GRUFlavorPredictor adapts the GRU model to the FlavorPredictor
// interface.
type GRUFlavorPredictor struct {
	m     *GRUFlavorModel
	st    *nn.GRUState
	prev  int
	input []float64
	out   []float64 // probs buffer, overwritten each step
}

// NewGRUFlavorPredictor wraps m.
func NewGRUFlavorPredictor(m *GRUFlavorModel) *GRUFlavorPredictor {
	p := &GRUFlavorPredictor{m: m}
	p.Reset()
	return p
}

// Name implements FlavorPredictor.
func (p *GRUFlavorPredictor) Name() string { return "GRU" }

// Reset implements FlavorPredictor.
func (p *GRUFlavorPredictor) Reset() {
	p.st = p.m.Net.NewState(1)
	p.prev = EOBToken(p.m.K)
	p.input = make([]float64, flavorInputDim(p.m.K, p.m.Temporal))
	p.out = make([]float64, p.m.K+1)
}

// Probs implements FlavorPredictor. The result is the predictor's
// reusable buffer, overwritten by the next call.
func (p *GRUFlavorPredictor) Probs(absPeriod int) []float64 {
	encodeFlavorInputInto(p.input, p.m.K, p.m.Temporal, p.prev, absPeriod, trace.DayOfHistory(absPeriod))
	nn.SoftmaxInto(p.m.Net.StepForward(p.input, p.st), p.out)
	return p.out
}

// Predict implements FlavorPredictor (see LSTM wrapper caveat).
func (p *GRUFlavorPredictor) Predict(absPeriod int) int { return argmax(p.Probs(absPeriod)) }

// Observe implements FlavorPredictor.
func (p *GRUFlavorPredictor) Observe(token int) { p.prev = token }

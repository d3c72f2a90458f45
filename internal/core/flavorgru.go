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
	historyDays := HistoryDays(tr)
	m := &GRUFlavorModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	toks := FlavorTokens(tr)
	g := rng.New(cfg.Seed + 40)
	task := NextTokenTask(toks, k+1, EOBToken(k), m.Temporal)
	m.Net = nn.NewGRU(task.NetConfig(cfg), g)
	task.RunBPTT(cfg, tr, ObsFlavorGRU, m.Net, g)
	return m
}

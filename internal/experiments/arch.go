package experiments

import (
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Model names the ablation fits report in obs.EpochEvent, beside core's
// (core.ObsFlavorLSTM and the rest); each fit's checkpoint files are
// prefixed with its name, '_' written '-'.
const (
	ObsFlavorGRU         = "flavor_gru"
	ObsFlavorTransformer = "flavor_transformer"
	ObsLifetimePMF       = "lifetime_pmf"
	ObsJointLSTM         = "joint_lstm"
)

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

// ArchRow is one architecture's row in the §7 sequence-architecture
// ablation.
type ArchRow struct {
	Arch       string
	NLL        float64
	OneBestErr float64
}

// gruRow and transformerRow are the §7 sequence-architecture
// ablation's own rows: a GRU and a causal Transformer trained on the
// LSTM's token stream ("Transformers ... could be used in place of the
// LSTMs"). Its Multinomial floor and LSTM rows are Table 2's.
func gruRow(c *Cloud) ArchRow {
	ev := core.EvaluateFlavor(trainFlavorGRU(c.Train, c.Scale.Train).predictor(), core.FlavorTokens(c.Test), c.TestW.Start)
	return ArchRow{Arch: "GRU", NLL: ev.NLL, OneBestErr: ev.OneBestErr}
}

func transformerRow(c *Cloud) ArchRow {
	// The Transformer keeps its own size and schedule, not the LSTM's.
	tf := TrainFlavorTransformer(c.Train, core.TrainConfig{Hidden: 32, Layers: 2, Epochs: 15, Seed: c.Scale.Seed})
	ev := core.EvaluateFlavor(NewTransformerFlavorPredictor(tf), core.FlavorTokens(c.Test), c.TestW.Start)
	return ArchRow{Arch: "Transformer", NLL: ev.NLL, OneBestErr: ev.OneBestErr}
}

// gruFlavorModel is the stage-2 model with a GRU instead of an LSTM —
// the GRU arm of the §7 architecture ablation.
type gruFlavorModel struct {
	net      *nn.GRU
	k        int
	temporal features.Temporal
}

// trainFlavorGRU trains the GRU flavor model with the LSTM's recipe and
// hyperparameters on the same token stream, from the weight-init stream
// cfg.Seed + 40 (DESIGN.md §6.3.1).
func trainFlavorGRU(tr *trace.Trace, cfg core.TrainConfig) *gruFlavorModel {
	k := tr.Flavors.K()
	m := &gruFlavorModel{k: k, temporal: features.Temporal{HistoryDays: core.HistoryDays(tr)}}
	g := rng.New(cfg.Seed + 40)
	task := core.NextTokenTask(core.FlavorTokens(tr), k+1, core.EOBToken(k), m.temporal)
	m.net = nn.NewGRU(task.NetConfig(cfg), g)
	task.RunBPTT(cfg, tr, ObsFlavorGRU, m.net, g)
	return m
}

// predictor wraps m for teacher-forced evaluation.
func (m *gruFlavorModel) predictor() core.FlavorPredictor {
	return core.NewRecurrentFlavorPredictor("GRU", m.net, m.k, m.temporal)
}

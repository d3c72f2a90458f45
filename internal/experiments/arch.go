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

// PMFvsHazard reproduces the §2.3.1 design comparison: parameterizing
// the discrete hazard (the paper's choice, following Kvamme & Borgan's
// "slightly better") versus a softmax PMF head trained with the
// censored-tail likelihood.
func PMFvsHazard(c *Cloud) []HeadRow {
	steps := core.LifetimeSteps(c.Test, c.Bins)
	offset := c.TestW.Start
	hz := core.EvaluateLifetime(core.NewLSTMLifetimePredictor(c.Model().Lifetime), steps, c.Bins, offset)
	tc := c.Scale.Train
	pmfModel := TrainLifetimePMF(c.Train, c.Bins, tc)
	pmf := core.EvaluateLifetime(NewPMFLifetimePredictor(pmfModel), steps, c.Bins, offset)
	km := core.EvaluateLifetime(newKMLifetime(c.Train, c.Bins), steps, c.Bins, offset)
	return []HeadRow{
		{Head: "Overall KM", BCE: km.BCE, OneBestErr: km.OneBestErr},
		{Head: "LSTM (hazard head)", BCE: hz.BCE, OneBestErr: hz.OneBestErr},
		{Head: "LSTM (PMF head)", BCE: pmf.BCE, OneBestErr: pmf.OneBestErr},
	}
}

// ArchRow is one architecture's row in the §7 sequence-architecture
// ablation.
type ArchRow struct {
	Arch       string
	NLL        float64
	OneBestErr float64
}

// ArchitectureAblation compares the LSTM flavor model against a GRU and
// a causal Transformer trained on the same token stream (§7:
// "Transformers ... could be used in place of the LSTMs"), with the
// training multinomial as the floor.
func ArchitectureAblation(c *Cloud) []ArchRow {
	toks := core.FlavorTokens(c.Test)
	offset := c.TestW.Start
	var rows []ArchRow

	multi := core.EvaluateFlavor(newMultinomialFlavor(c.Train), toks, offset)
	rows = append(rows, ArchRow{Arch: "Multinomial", NLL: multi.NLL, OneBestErr: multi.OneBestErr})

	lstm := core.EvaluateFlavor(core.NewLSTMFlavorPredictor(c.Model().Flavor), toks, offset)
	rows = append(rows, ArchRow{Arch: "LSTM", NLL: lstm.NLL, OneBestErr: lstm.OneBestErr})

	gru := trainFlavorGRU(c.Train, c.Scale.Train)
	grue := core.EvaluateFlavor(gru.predictor(), toks, offset)
	rows = append(rows, ArchRow{Arch: "GRU", NLL: grue.NLL, OneBestErr: grue.OneBestErr})

	// The Transformer keeps its own size and schedule, not the LSTM's.
	tf := TrainFlavorTransformer(c.Train, core.TrainConfig{Hidden: 32, Layers: 2, Epochs: 15, Seed: c.Scale.Seed})
	tfe := core.EvaluateFlavor(NewTransformerFlavorPredictor(tf), toks, offset)
	rows = append(rows, ArchRow{Arch: "Transformer", NLL: tfe.NLL, OneBestErr: tfe.OneBestErr})
	return rows
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

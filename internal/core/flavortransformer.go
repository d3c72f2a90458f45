package core

import (
	"repro/internal/features"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TransformerTrainConfig sizes and trains the Transformer flavor model
// (the §7 architecture ablation: "Transformers ... could be used in
// place of the LSTMs").
type TransformerTrainConfig struct {
	ModelDim int // default 32
	Heads    int // default 2
	FFDim    int // default 4*ModelDim
	Layers   int // default 2
	MaxLen   int // context window, default 64
	Epochs   int // default 15
	LR       float64
	ClipNorm float64
	Seed     int64
	// Progress mirrors TrainConfig.Progress: mean per-step loss after
	// each epoch.
	Progress func(epoch int, loss float64)
	// Obs mirrors TrainConfig.Obs: the uniform per-epoch telemetry sink
	// (model name "flavor_transformer").
	Obs obs.EpochSink
	// Checkpoint mirrors TrainConfig.Checkpoint (DESIGN.md §8).
	Checkpoint *CheckpointSpec
}

func (c TransformerTrainConfig) withDefaults() TransformerTrainConfig {
	if c.ModelDim == 0 {
		c.ModelDim = 32
	}
	if c.Heads == 0 {
		c.Heads = 2
	}
	if c.FFDim == 0 {
		c.FFDim = 4 * c.ModelDim
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.MaxLen == 0 {
		c.MaxLen = 64
	}
	if c.Epochs == 0 {
		c.Epochs = 15
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	return c
}

// TransformerFlavorModel is the stage-2 model with a causal Transformer
// instead of an LSTM. Same inputs (previous token one-hot + temporal
// features) and output vocabulary (K flavors + EOB).
type TransformerFlavorModel struct {
	Net         *nn.Transformer
	K           int
	Temporal    features.Temporal
	HistoryDays int
}

// TrainFlavorTransformer trains the Transformer flavor model by teacher
// forcing over MaxLen-sized windows of the token stream.
func TrainFlavorTransformer(tr *trace.Trace, cfg TransformerTrainConfig) *TransformerFlavorModel {
	cfg = cfg.withDefaults()
	k := tr.Flavors.K()
	historyDays := historyDaysOf(tr)
	m := &TransformerFlavorModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	inDim := flavorInputDim(k, m.Temporal)
	g := rng.New(cfg.Seed + 30)
	m.Net = nn.NewTransformer(nn.TransformerConfig{
		InputDim:  inDim,
		ModelDim:  cfg.ModelDim,
		Heads:     cfg.Heads,
		FFDim:     cfg.FFDim,
		Layers:    cfg.Layers,
		OutputDim: k + 1,
		MaxLen:    cfg.MaxLen,
	}, g)
	toks := FlavorTokens(tr)
	if len(toks) == 0 {
		return m
	}
	// Same inputs and targets as the LSTM's next-token task.
	encode := nextTokenTask(toks, k+1, EOBToken(k), m.Temporal).encode
	// The shared epoch skeleton reads its knobs from a TrainConfig; the
	// Transformer has no weight decay, dev selection or LR schedule.
	shared := TrainConfig{
		Epochs: cfg.Epochs, LR: cfg.LR, ClipNorm: cfg.ClipNorm,
		Progress: cfg.Progress, Obs: cfg.Obs, Checkpoint: cfg.Checkpoint,
	}
	fit := sgdFit{
		model: ObsFlavorTransformer, prefix: "flavor-transformer",
		fingerprint: cfg.fingerprint(len(toks), k, historyDays),
		net:         m.Net, rng: g,
	}
	constLR := func(int) float64 { return cfg.LR }
	runEpochs(shared, fit, constLR, func(opt *nn.Adam) func() (float64, int) {
		// One epoch: stateless teacher forcing over MaxLen-sized windows.
		return func() (totalLoss float64, totalSteps int) {
			for start := 0; start < len(toks); start += cfg.MaxLen {
				T := min(cfg.MaxLen, len(toks)-start)
				x := mat.NewDense(T, inDim)
				targets := make([]int, T)
				for s := range targets {
					encode(x.Row(s), start+s)
					targets[s] = toks[start+s].Token
				}
				m.Net.ZeroGrads()
				out, cache := m.Net.Forward(x)
				l, d, n := nn.SoftmaxCE(out, targets, nil)
				if n == 0 {
					continue
				}
				totalLoss += l
				totalSteps += n
				mat.Scale(1/float64(n), d.Data)
				m.Net.Backward(cache, d)
				opt.Step(m.Net.Params())
			}
			return totalLoss, totalSteps
		}
	})
	return m
}

// TransformerFlavorPredictor adapts the model to the FlavorPredictor
// interface for Table 2-style evaluation. It decodes with a sliding
// MaxLen context window.
type TransformerFlavorPredictor struct {
	m      *TransformerFlavorModel
	window *nn.TWindow
	prev   int
	input  []float64
	out    []float64 // probs buffer, overwritten each step
}

// NewTransformerFlavorPredictor wraps m.
func NewTransformerFlavorPredictor(m *TransformerFlavorModel) *TransformerFlavorPredictor {
	p := &TransformerFlavorPredictor{m: m}
	p.Reset()
	return p
}

// Name implements FlavorPredictor.
func (p *TransformerFlavorPredictor) Name() string { return "Transformer" }

// Reset implements FlavorPredictor.
func (p *TransformerFlavorPredictor) Reset() {
	p.window = p.m.Net.NewWindow()
	p.prev = EOBToken(p.m.K)
	p.input = make([]float64, flavorInputDim(p.m.K, p.m.Temporal))
	p.out = make([]float64, p.m.K+1)
}

// Probs implements FlavorPredictor. The result is the predictor's
// reusable buffer, overwritten by the next call.
func (p *TransformerFlavorPredictor) Probs(absPeriod int) []float64 {
	encodeFlavorInputInto(p.input, p.m.K, p.m.Temporal, p.prev, absPeriod, trace.DayOfHistory(absPeriod))
	nn.SoftmaxInto(p.window.Append(p.input), p.out)
	return p.out
}

// Predict implements FlavorPredictor. As with the LSTM wrapper, use
// Probs via EvaluateFlavor; Predict would advance the window twice.
func (p *TransformerFlavorPredictor) Predict(absPeriod int) int {
	return argmax(p.Probs(absPeriod))
}

// Observe implements FlavorPredictor.
func (p *TransformerFlavorPredictor) Observe(token int) { p.prev = token }

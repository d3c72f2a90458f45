package experiments

import (
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The Transformer flavor model's fixed shape: no caller varies these.
const (
	transformerHeads  = 2
	transformerMaxLen = 64 // context window
)

// TransformerFlavorModel is the stage-2 model with a causal Transformer
// instead of an LSTM. Same inputs (previous token one-hot + temporal
// features) and output vocabulary (K flavors + EOB).
type TransformerFlavorModel struct {
	Net         *Transformer
	K           int
	Temporal    features.Temporal
	HistoryDays int
}

// TrainFlavorTransformer trains the Transformer flavor model by teacher
// forcing over 64-token windows of the token stream. cfg.Hidden is the
// model width (2 heads, a 4·Hidden feed-forward layer) and cfg.Layers
// the block count; it trains cfg.Epochs epochs at the constant rate
// cfg.LR, clipping at cfg.ClipNorm, and ignores SeqLen, BatchSize,
// WeightDecay and Dev.
func TrainFlavorTransformer(tr *trace.Trace, cfg core.TrainConfig) *TransformerFlavorModel {
	k := tr.Flavors.K()
	historyDays := core.HistoryDays(tr)
	m := &TransformerFlavorModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	toks := core.FlavorTokens(tr)
	eob := core.EOBToken(k)
	// The LSTM's next-token stream: the same inputs and targets.
	task := core.NextTokenTask(toks, k+1, eob, m.Temporal)
	nc := task.NetConfig(cfg)
	g := rng.New(cfg.Seed + 30)
	m.Net = NewTransformer(TransformerConfig{
		InputDim:  nc.InputDim,
		ModelDim:  nc.HiddenDim,
		Heads:     transformerHeads,
		FFDim:     4 * nc.HiddenDim,
		Layers:    nc.Layers,
		OutputDim: nc.OutputDim,
		MaxLen:    transformerMaxLen,
	}, g)
	task.RunEpochs(cfg, tr, ObsFlavorTransformer, m.Net, g, func(opt *nn.Adam) (totalLoss float64, totalSteps int) {
		// One epoch: stateless teacher forcing over MaxLen-sized windows.
		for start := 0; start < len(toks); start += transformerMaxLen {
			T := min(transformerMaxLen, len(toks)-start)
			x := mat.NewDense(T, nc.InputDim)
			targets := make([]int, T)
			for s := range targets {
				pos, prev := start+s, eob
				if pos > 0 {
					prev = toks[pos-1].Token
				}
				p := toks[pos].Period
				core.EncodeFlavorInput(x.Row(s), k, m.Temporal, prev, p, trace.DayOfHistory(p))
				targets[s] = toks[pos].Token
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
	})
	return m
}

// TransformerFlavorPredictor adapts the model to the core.FlavorPredictor
// interface for Table 2-style evaluation. It decodes with a sliding
// MaxLen context window.
type TransformerFlavorPredictor struct {
	m      *TransformerFlavorModel
	window *TWindow
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

// Name implements core.FlavorPredictor.
func (p *TransformerFlavorPredictor) Name() string { return "Transformer" }

// Reset implements core.FlavorPredictor.
func (p *TransformerFlavorPredictor) Reset() {
	p.window = p.m.Net.NewWindow()
	p.prev = core.EOBToken(p.m.K)
	p.input = make([]float64, p.m.Net.Cfg.InputDim)
	p.out = make([]float64, p.m.K+1)
}

// Probs implements core.FlavorPredictor. The result is the predictor's
// reusable buffer, overwritten by the next call.
func (p *TransformerFlavorPredictor) Probs(absPeriod int) []float64 {
	core.EncodeFlavorInput(p.input, p.m.K, p.m.Temporal, p.prev, absPeriod, trace.DayOfHistory(absPeriod))
	nn.SoftmaxInto(p.window.Append(p.input), p.out)
	return p.out
}

// Predict implements core.FlavorPredictor. As with the LSTM wrapper, use
// Probs via core.EvaluateFlavor; Predict would advance the window twice.
func (p *TransformerFlavorPredictor) Predict(absPeriod int) int {
	return argmax(p.Probs(absPeriod))
}

// Observe implements core.FlavorPredictor.
func (p *TransformerFlavorPredictor) Observe(token int) { p.prev = token }

package core

import (
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TrainConfig holds the LSTM training hyperparameters shared by the
// flavor and lifetime models (§4.2 of the paper; the defaults here are
// the scaled-down laptop configuration, with the paper's 2×200 network
// available by overriding Hidden).
type TrainConfig struct {
	Hidden      int // hidden units per layer (paper: 200)
	Layers      int // LSTM layers (paper: 2)
	SeqLen      int // training sequence length (paper: 5000)
	BatchSize   int // sequences per minibatch (paper: 50)
	Epochs      int
	LR          float64
	WeightDecay float64
	ClipNorm    float64
	Seed        int64
	// Progress, if non-nil, receives the mean per-step loss after each
	// epoch.
	Progress func(epoch int, loss float64)
	// Obs, if non-nil, receives a structured obs.EpochEvent after each
	// epoch from every training loop given this config (the flavor and
	// lifetime hazard LSTMs, and the ablation fits of
	// internal/experiments; the arrival GLM carries the hook on
	// ArrivalOptions) — the uniform telemetry hook (DESIGN.md §7).
	// Strictly observational: enabling it cannot change trained weights
	// or generated traces.
	Obs obs.EpochSink
	// Dev, if non-nil, enables development-set model selection (§4.2:
	// hyperparameters and stopping are tuned on the development window):
	// every DevEvery epochs the teacher-forced dev loss is computed and
	// the best-scoring weights are restored at the end of training.
	Dev       *trace.Trace
	DevOffset int // absolute period of the dev window start
	DevEvery  int // default 5
	// Checkpoint, if non-nil with a directory, enables crash-safe
	// epoch-boundary checkpoints and resume for every loop sharing this
	// config (DESIGN.md §8). Like Obs, it is trajectory-neutral: a run
	// with checkpointing enabled (or resumed from one) produces byte-
	// identical weights and traces to an uninterrupted run without it.
	Checkpoint *CheckpointSpec
}

// withDefaults fills zero fields with the scaled-down defaults.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.Hidden == 0 {
		c.Hidden = 48
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	if c.SeqLen == 0 {
		c.SeqLen = 96
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
	if c.DevEvery == 0 {
		c.DevEvery = 5
	}
	return c
}

// stepLR implements the step learning-rate schedule: the base rate for
// the first 60% of epochs, half for the next 25%, and a quarter for the
// remainder. The late-phase decay settles the calibration of the
// high-frequency tokens (EOB in particular) that free-running
// generation is sensitive to.
func (c TrainConfig) stepLR(epoch int) float64 {
	switch {
	case epoch >= c.Epochs*17/20:
		return c.LR / 4
	case epoch >= c.Epochs*3/5:
		return c.LR / 2
	default:
		return c.LR
	}
}

// FlavorModel is the stage-2 LSTM over flavor sequences (§2.2). Its
// vocabulary is the K flavors plus the end-of-batch token.
type FlavorModel struct {
	Net         *nn.LSTM
	K           int // number of flavors (EOB token index = K)
	Temporal    features.Temporal
	HistoryDays int
}

// flavorInputDim returns the input feature dimensionality: previous
// token one-hot plus temporal features.
func flavorInputDim(k int, temporal features.Temporal) int {
	return (k + 1) + temporal.Dim()
}

// EncodeFlavorInput writes a flavor net's step input over k flavors:
// one-hot of the previous token and the temporal features of the current
// period.
func EncodeFlavorInput(dst []float64, k int, temporal features.Temporal, prevToken, period, dohDay int) {
	features.OneHot(dst[:k+1], prevToken)
	temporal.Encode(dst[k+1:], period, dohDay)
}

// encodeFlavorInput is EncodeFlavorInput for m.
func (m *FlavorModel) encodeFlavorInput(dst []float64, prevToken, period, dohDay int) {
	EncodeFlavorInput(dst, m.K, m.Temporal, prevToken, period, dohDay)
}

// TrainFlavor trains the flavor LSTM on the training trace by teacher
// forcing over the serialized token stream, minimizing softmax
// cross-entropy (§2.2.1).
func TrainFlavor(tr *trace.Trace, cfg TrainConfig) *FlavorModel {
	cfg = cfg.withDefaults()
	k := tr.Flavors.K()
	historyDays := HistoryDays(tr)
	m := &FlavorModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	toks := FlavorTokens(tr)
	g := rng.New(cfg.Seed)
	task := NextTokenTask(toks, k+1, EOBToken(k), m.Temporal)
	m.Net = nn.NewLSTM(task.NetConfig(cfg), g)
	if cfg.Dev != nil {
		if devToks := FlavorTokens(cfg.Dev); len(devToks) > 0 {
			task.dev = func() float64 {
				return EvaluateFlavor(NewLSTMFlavorPredictor(m), devToks, cfg.DevOffset).NLL
			}
		}
	}
	task.RunBPTT(cfg, tr, ObsFlavorLSTM, m.Net, g)
	return m
}

// flavorState is the step-by-step state for teacher-forced evaluation
// of the flavor LSTM: one scalar StepForward per token. Generation does
// not use it; it decodes on fleets (genStream, engine.go).
type flavorState struct {
	net      *nn.LSTM
	k        int
	temporal features.Temporal
	st       *nn.State
	prev     int
	input    []float64
	out      []float64 // probs result buffer, overwritten each step
}

// newFlavorState returns a fresh state (previous token = EOB)
// for a flavor LSTM over k flavors.
func newFlavorState(net *nn.LSTM, k int, temporal features.Temporal) *flavorState {
	return &flavorState{
		net:      net,
		k:        k,
		temporal: temporal,
		st:       net.NewState(1),
		prev:     EOBToken(k),
		input:    make([]float64, flavorInputDim(k, temporal)),
		out:      make([]float64, k+1),
	}
}

// reset restores the fresh-state condition: zero recurrent state,
// previous token = EOB.
func (s *flavorState) reset() {
	s.st.Zero()
	s.prev = EOBToken(s.k)
}

// probs advances the network one step and returns the distribution over
// the next token given the current period and DOH day. The returned
// slice is the state's reusable buffer, overwritten by the next probs
// call.
func (s *flavorState) probs(period, dohDay int) []float64 {
	EncodeFlavorInput(s.input, s.k, s.temporal, s.prev, period, dohDay)
	logits := s.net.StepForward(s.input, s.st)
	nn.SoftmaxInto(logits, s.out)
	return s.out
}

// observe records the realized token (teacher forcing).
func (s *flavorState) observe(token int) { s.prev = token }

package core

import (
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// JointModel is the §7 "single LSTM" alternative the paper considered
// and rejected: one network controls the number of batches per period by
// emitting a special end-of-period (EOP) token, instead of delegating
// arrival counts to the stage-1 Poisson regression. The paper reports
// generation was "exquisitely sensitive to the timely sampling of these
// tokens"; this implementation exists to reproduce that observation
// (see the JointVsStaged experiment/test) and as a baseline for the
// ablation benches.
type JointModel struct {
	Net         *nn.LSTM
	K           int // flavors; EOB = K, EOP = K+1
	Temporal    features.Temporal
	HistoryDays int
	// MaxJobsPerPeriod caps runaway generation; zero means 2000.
	MaxJobsPerPeriod int
}

// jointEOB and jointEOP return the special token indices.
func (m *JointModel) jointEOB() int { return m.K }
func (m *JointModel) jointEOP() int { return m.K + 1 }

// jointTokens serializes a trace including one EOP token per period
// (also for empty periods, which become a bare EOP).
func jointTokens(tr *trace.Trace) []FlavorToken {
	eob := EOBToken(tr.Flavors.K())
	eop := tr.Flavors.K() + 1
	pb := tr.PeriodBatches()
	var out []FlavorToken
	for p, batches := range pb {
		for _, b := range batches {
			for _, idx := range b.Indices {
				out = append(out, FlavorToken{Period: p, Token: tr.VMs[idx].Flavor})
			}
			out = append(out, FlavorToken{Period: p, Token: eob})
		}
		out = append(out, FlavorToken{Period: p, Token: eop})
	}
	return out
}

func (m *JointModel) inputDim() int {
	return (m.K + 2) + m.Temporal.Dim()
}

func (m *JointModel) encodeInput(dst []float64, prevToken, period, dohDay int) {
	features.OneHot(dst[:m.K+2], prevToken)
	m.Temporal.Encode(dst[m.K+2:], period, dohDay)
}

// TrainJoint trains the single-LSTM alternative with the same stateful
// truncated-BPTT recipe as the staged flavor model.
func TrainJoint(tr *trace.Trace, cfg TrainConfig) *JointModel {
	cfg = cfg.withDefaults()
	k := tr.Flavors.K()
	historyDays := historyDaysOf(tr)
	m := &JointModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	toks := jointTokens(tr)
	g := rng.New(cfg.Seed + 20)
	task := nextTokenTask(toks, k+2, m.jointEOP(), m.Temporal)
	m.Net = nn.NewLSTM(cfg.netConfig(task.inDim, task.outDim), g)
	task.sgdFit = sgdFit{
		model: ObsJointLSTM, prefix: "joint-lstm",
		fingerprint: cfg.fingerprint(ObsJointLSTM, len(toks), k, historyDays),
		net:         m.Net, rng: g,
	}
	runBPTT(cfg, task)
	return m
}

// GenerateCounts free-runs the joint model over a window and returns the
// number of batches it generates in each period — the quantity whose
// realism the paper found hard to control via EOP tokens. Flavor output
// is discarded; this isolates the arrival-process comparison against the
// staged model's Poisson regression.
func (m *JointModel) GenerateCounts(g *rng.RNG, w trace.Window, doh features.DOHSampler) []int {
	maxJobs := m.MaxJobsPerPeriod
	if maxJobs == 0 {
		maxJobs = 2000
	}
	counts := make([]int, w.Periods())
	st := m.Net.NewState(1)
	input := make([]float64, m.inputDim())
	probs := make([]float64, m.Net.Cfg.OutputDim)
	prev := m.jointEOP()
	doh.HistoryDays = m.HistoryDays
	dohDay := doh.Sample(g)
	curDay := -1
	for p := w.Start; p < w.End; p++ {
		if d := trace.DayOfHistory(p); d != curDay {
			curDay = d
			dohDay = doh.Sample(g)
		}
		jobs, batches := 0, 0
		for {
			m.encodeInput(input, prev, p, dohDay)
			nn.SoftmaxInto(m.Net.StepForward(input, st), probs)
			tok := g.Categorical(probs)
			if jobs >= maxJobs {
				tok = m.jointEOP()
			}
			prev = tok
			if tok == m.jointEOP() {
				break
			}
			if tok == m.jointEOB() {
				batches++
			} else {
				jobs++
			}
		}
		counts[p-w.Start] = batches
	}
	return counts
}

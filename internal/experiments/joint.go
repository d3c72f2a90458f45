package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/metrics"
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
// (jointVsStaged).
type JointModel struct {
	Net         *nn.LSTM
	K           int // flavors; EOB = K, EOP = K+1
	Temporal    features.Temporal
	HistoryDays int
	// MaxJobsPerPeriod caps runaway generation: once a period has drawn
	// this many tokens other than EOP (flavors and EOBs alike), its next
	// token is EOP. Zero means 2000.
	MaxJobsPerPeriod int
}

// jointEOB and jointEOP return the special token indices.
func (m *JointModel) jointEOB() int { return m.K }
func (m *JointModel) jointEOP() int { return m.K + 1 }

// jointTokens serializes a trace including one EOP token per period
// (also for empty periods, which become a bare EOP).
func jointTokens(tr *trace.Trace) []core.FlavorToken {
	eob := core.EOBToken(tr.Flavors.K())
	eop := tr.Flavors.K() + 1
	var out []core.FlavorToken
	for p, batches := range tr.PeriodBatches() {
		for _, b := range batches {
			for _, idx := range b.Indices {
				out = append(out, core.FlavorToken{Period: p, Token: tr.VMs[idx].Flavor})
			}
			out = append(out, core.FlavorToken{Period: p, Token: eob})
		}
		out = append(out, core.FlavorToken{Period: p, Token: eop})
	}
	return out
}

func (m *JointModel) encodeInput(dst []float64, prevToken, period, dohDay int) {
	features.OneHot(dst[:m.K+2], prevToken)
	m.Temporal.Encode(dst[m.K+2:], period, dohDay)
}

// TrainJoint trains the single-LSTM alternative with the same stateful
// truncated-BPTT recipe as the staged flavor model.
func TrainJoint(tr *trace.Trace, cfg core.TrainConfig) *JointModel {
	k := tr.Flavors.K()
	historyDays := core.HistoryDays(tr)
	m := &JointModel{
		K:           k,
		Temporal:    features.Temporal{HistoryDays: historyDays},
		HistoryDays: historyDays,
	}
	task := core.NextTokenTask(jointTokens(tr), k+2, m.jointEOP(), m.Temporal)
	g := rng.New(cfg.Seed + 20)
	m.Net = nn.NewLSTM(task.NetConfig(cfg), g)
	task.RunBPTT(cfg, tr, ObsJointLSTM, m.Net, g)
	return m
}

// GenerateCounts free-runs the joint model over a window and returns the
// number of batches it generates in each period — the quantity whose
// realism the paper found hard to control via EOP tokens. Flavor output
// is discarded; this isolates the arrival-process comparison against the
// staged model's Poisson regression.
func (m *JointModel) GenerateCounts(g *rng.RNG, w trace.Window, doh features.DOHSampler) []int {
	maxTokens := m.MaxJobsPerPeriod
	if maxTokens == 0 {
		maxTokens = 2000
	}
	counts := make([]int, w.Periods())
	st := m.Net.NewState(1)
	input := make([]float64, m.Net.Cfg.InputDim)
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
		tokens, batches := 0, 0
		for {
			m.encodeInput(input, prev, p, dohDay)
			nn.SoftmaxInto(m.Net.StepForward(input, st), probs)
			tok := g.Categorical(probs)
			// Capping flavors alone would spin forever once EOP's
			// probability underflows to zero behind a dominant EOB.
			if tokens >= maxTokens {
				tok = m.jointEOP()
			}
			prev = tok
			if tok == m.jointEOP() {
				break
			}
			tokens++
			if tok == m.jointEOB() {
				batches++
			}
		}
		counts[p-w.Start] = batches
	}
	return counts
}

// JointResult compares the staged arrival process (stage-1 Poisson
// regression) against the §7 single-LSTM alternative with end-of-period
// tokens on per-period batch-count realism over the test window.
type JointResult struct {
	ActualMean float64
	// StagedMean / JointMean are the mean per-period batch counts each
	// model generates (averaged over samples).
	StagedMean float64
	JointMean  float64
	// StagedErr / JointErr are the absolute relative errors of the
	// generated means vs the actual mean.
	StagedErr float64
	JointErr  float64
	// StagedDispersion / JointDispersion / ActualDispersion are the
	// variance/mean ratios of the per-period counts.
	ActualDispersion float64
	StagedDispersion float64
	JointDispersion  float64
}

// jointVsStaged reproduces the paper's §7 observation that delegating
// arrival counts to EOP tokens is fragile compared to an explicit
// arrival-rate stage. Both models train on the same window; each
// generates Samples/4 count series over the test window.
func jointVsStaged(c *Cloud) JointResult {
	tc := c.Scale.Train
	joint := TrainJoint(c.Train, tc)
	staged := c.Model()

	n := c.Scale.Samples/4 + 1
	doh := features.DOHSampler{Mode: features.DOHGeometric, GeomP: 1.0 / 7.0}

	actualCounts := c.Test.BatchCounts()
	actual := make([]float64, len(actualCounts))
	for i, v := range actualCounts {
		actual[i] = float64(v)
	}

	gj := rng.New(c.Scale.Seed + 61)
	gs := rng.New(c.Scale.Seed + 62)
	var jointAll, stagedAll []float64
	for s := 0; s < n; s++ {
		jc := joint.GenerateCounts(gj.Split(), c.TestW, doh)
		for _, v := range jc {
			jointAll = append(jointAll, float64(v))
		}
		g := gs.Split()
		for p := c.TestW.Start; p < c.TestW.End; p++ {
			stagedAll = append(stagedAll, float64(staged.Arrival.SampleCount(g, p)))
		}
	}

	res := JointResult{
		ActualMean:       metrics.Mean(actual),
		StagedMean:       metrics.Mean(stagedAll),
		JointMean:        metrics.Mean(jointAll),
		ActualDispersion: dispersion(actual),
		StagedDispersion: dispersion(stagedAll),
		JointDispersion:  dispersion(jointAll),
	}
	if res.ActualMean > 0 {
		res.StagedErr = math.Abs(res.StagedMean-res.ActualMean) / res.ActualMean
		res.JointErr = math.Abs(res.JointMean-res.ActualMean) / res.ActualMean
	}
	return res
}

func dispersion(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := metrics.Mean(xs)
	if m == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs)) / m
}

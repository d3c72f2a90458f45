package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"time"

	"repro/internal/ckpt"
	"repro/internal/features"
	"repro/internal/glm"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ArrivalKind selects what the Poisson regression counts: user batches
// (the paper's stage 1, §2.1) or raw individual VM arrivals (the
// traditional baseline evaluated in Figure 6).
type ArrivalKind int

const (
	// BatchArrivals counts user batches per period.
	BatchArrivals ArrivalKind = iota
	// VMArrivals counts individual VM arrivals per period.
	VMArrivals
)

// ArrivalOptions configures training of the arrival model.
type ArrivalOptions struct {
	Kind   ArrivalKind
	UseDOH bool    // include the survival-encoded day-of-history block
	L2     float64 // ridge penalty (default 0.1)
	L1     float64 // optional lasso penalty (switches to ProxGrad)
	DOH    features.DOHSampler
	// Obs mirrors TrainConfig.Obs. The GLM converges in one solver run,
	// so it emits a single event (model "arrival_glm", epoch 0) whose
	// loss is the fitted mean Poisson NLL on the training periods.
	Obs obs.EpochSink
	// Checkpoint mirrors TrainConfig.Checkpoint (DESIGN.md §8). The fit
	// is one-shot, so its checkpoint stores the fitted coefficients and
	// resume skips the solver.
	Checkpoint *CheckpointSpec
}

// ArrivalModel is the fitted stage-1 model: an inhomogeneous Poisson
// rate over periods, driven by temporal features.
type ArrivalModel struct {
	Reg         *glm.PoissonRegression
	Kind        ArrivalKind
	UseDOH      bool
	HistoryDays int
	DOH         features.DOHSampler
}

// TrainArrival fits the arrival model on the training trace. The
// trace's own periods supply both the counts and the temporal features;
// the day-of-history block spans the training window's days.
func TrainArrival(tr *trace.Trace, opt ArrivalOptions) (*ArrivalModel, error) {
	var counts []int
	switch opt.Kind {
	case BatchArrivals:
		counts = tr.BatchCounts()
	case VMArrivals:
		counts = tr.ArrivalCounts()
	default:
		return nil, fmt.Errorf("core: unknown arrival kind %d", opt.Kind)
	}
	historyDays := HistoryDays(tr)
	m := &ArrivalModel{
		Kind:        opt.Kind,
		UseDOH:      opt.UseDOH,
		HistoryDays: historyDays,
		DOH:         opt.DOH,
	}
	m.DOH.HistoryDays = historyDays
	// The fit is one-shot, so its checkpoint is the fitted coefficients:
	// an intact one short-circuits the solver on resume.
	var ckStore *ckpt.Store
	ckFP := arrivalFingerprint(opt, len(counts), historyDays)
	if cs := opt.Checkpoint; cs != nil && cs.Dir != "" {
		ckStore = &ckpt.Store{Dir: cs.Dir, Keep: cs.Keep}
		if cs.Resume {
			if payload, _, _, err := ckStore.LoadLatest("arrival-glm"); err == nil {
				var w arrivalCkptV1
				if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w); derr == nil && w.Fingerprint == ckFP {
					m.Reg = &glm.PoissonRegression{W: w.W, Intercept: w.Intercept}
					return m, nil
				}
			}
		}
	}
	dim := m.featureDim()
	x := mat.NewDense(len(counts), dim)
	y := make([]float64, len(counts))
	for p, c := range counts {
		m.encode(x.Row(p), p, trace.DayOfHistory(p))
		y[p] = float64(c)
	}
	l2 := opt.L2
	if l2 == 0 {
		l2 = 0.1
	}
	fitOpt := glm.Options{Solver: glm.IRLS, L2: l2}
	if opt.L1 > 0 {
		fitOpt = glm.Options{Solver: glm.ProxGrad, L2: l2, L1: opt.L1, MaxIter: 2000}
	}
	fitStart := time.Now()
	reg, err := glm.Fit(x, y, fitOpt)
	if err != nil {
		return nil, fmt.Errorf("core: arrival fit: %w", err)
	}
	m.Reg = reg
	if ckStore != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(arrivalCkptV1{
			Fingerprint: ckFP, W: reg.W, Intercept: reg.Intercept,
		}); err == nil {
			_, _ = ckStore.Save("arrival-glm", 1, buf.Bytes())
		}
	}
	if opt.Obs != nil {
		opt.Obs.EpochDone(obs.EpochEvent{
			Model:  ObsArrivalGLM,
			Epoch:  0,
			Epochs: 1,
			Loss:   reg.NLL(x, y),
			Steps:  len(counts),
			WallMS: float64(time.Since(fitStart).Microseconds()) / 1000,
		})
	}
	return m, nil
}

func (m *ArrivalModel) featureDim() int {
	d := 24 + 7
	if m.UseDOH {
		d += m.HistoryDays
	}
	return d
}

func (m *ArrivalModel) encode(dst []float64, period, dohDay int) {
	features.OneHot(dst[:24], trace.HourOfDay(period))
	features.OneHot(dst[24:31], trace.DayOfWeek(period))
	if m.UseDOH {
		day := dohDay
		if day >= m.HistoryDays {
			day = m.HistoryDays - 1
		}
		features.SurvivalEncode(dst[31:], day)
	}
}

// Rate returns the Poisson mean for a period using the given DOH day
// (ignored when the model was trained without DOH features).
func (m *ArrivalModel) Rate(period, dohDay int) float64 {
	x := make([]float64, m.featureDim())
	m.encode(x, period, dohDay)
	return m.Reg.Rate(x)
}

// rateInto is Rate with caller-owned feature scratch (len must be
// featureDim(), fully overwritten) and the intercept b given:
// exp(W·x + b). Per-period rate queries on the decode hot path — every
// genStream period transition — allocate nothing, and a stream passes
// its rate scale folded into b.
func (m *ArrivalModel) rateInto(scratch []float64, period, dohDay int, b float64) float64 {
	m.encode(scratch, period, dohDay)
	return math.Exp(mat.Dot(m.Reg.W, scratch) + b)
}

// CheckScale reports an error when the arrival rate can exceed what
// rng.Poisson draws (a mean below 2^62, so a count fits an int) at a
// rate scale up to maxScale. Every arrival feature is 0 or 1, so b + log
// maxScale + Σ max(w, 0) bounds every period's log-rate; it must stay at
// most 42.9, ln 2^62 ≈ 42.98 less a margin that absorbs rounding.
func (m *ArrivalModel) CheckScale(maxScale float64) error {
	bound := m.Reg.Intercept + math.Log(maxScale)
	for _, w := range m.Reg.W {
		bound += max(w, 0)
	}
	if !(bound <= 42.9) {
		return fmt.Errorf("core: arrival log-rate bound %g at scale %g exceeds 42.9 (ln 2^62 ≈ 42.98)", bound, maxScale)
	}
	return nil
}

// SampleCount draws an arrival count for a period, sampling the DOH day
// per the model's sampler (§2.1.2).
func (m *ArrivalModel) SampleCount(g *rng.RNG, period int) int {
	return g.Poisson(m.Rate(period, m.DOH.Sample(g)))
}

package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// Float32 serving fast path (DESIGN.md §6.4): the decode engines can
// run their LSTM step GEMMs in float32 (nn.Fleet32) instead of the
// bit-exact float64 reference (nn.Fleet[float64]). The f32 path keeps
// every determinism property — per-stream bytes independent of batch
// composition, shard count, and worker count — but trades bit-parity
// with the f64 path for roughly 2× arithmetic density. Everything
// around the nets (arrival GLM, samplers, softmax/sigmoid heads,
// survival math) stays float64, so divergence enters only through the
// narrowed weights and states and is bounded by ValidateF32 at
// publish time.

// Precision selects the numeric width of a decode engine's LSTM fast
// path. The zero value means PrecisionF64.
type Precision string

const (
	// PrecisionF64 is the reference path, the one Model.Generate runs:
	// every f64 decode — any batch, shard count or engine — is
	// byte-identical to the one-stream Generate of its seed. Its fleet
	// logits equal the training forward's bit for bit, and its trace bytes
	// are pinned across commits by TestGenerateTraceGolden.
	PrecisionF64 Precision = "f64"
	// PrecisionF32 runs the fleet step GEMMs on float32 weight slabs
	// (converted once at PrepareF32). All f32 engines of one model
	// produce identical bytes to each other; they differ from the f64
	// path within the ValidateF32 tolerances.
	PrecisionF32 Precision = "f32"
)

// normalize maps the zero value to the f64 default.
func (p Precision) normalize() Precision {
	if p == "" {
		return PrecisionF64
	}
	return p
}

// ValidPrecision reports whether name selects a known precision (""
// is valid and means f64).
func ValidPrecision(name string) bool {
	switch Precision(name) {
	case "", PrecisionF64, PrecisionF32:
		return true
	}
	return false
}

// Precisions lists the selectable precisions in preference order.
func Precisions() []Precision { return []Precision{PrecisionF64, PrecisionF32} }

// ModelF32 holds the float32 conversion of the model's two LSTMs. The
// arrival GLM is deliberately absent: rate regression stays float64 on
// every path, so arrival-rate divergence between precisions is zero by
// construction.
type ModelF32 struct {
	Flavor   *nn.LSTM32
	Lifetime *nn.LSTM32
}

// PrepareF32 converts the model's LSTM weights to float32 slabs once
// and caches the result on the model; later calls (and shallow Model
// copies made after it, which share the cache pointer) return the same
// conversion. It is safe for concurrent use (prepareMu, pack.go).
func (m *Model) PrepareF32() *ModelF32 {
	prepareMu.Lock()
	defer prepareMu.Unlock()
	return m.prepareF32Locked()
}

// prepareF32Locked is PrepareF32 for a caller that holds prepareMu.
func (m *Model) prepareF32Locked() *ModelF32 {
	if m.f32 == nil {
		m.f32 = &ModelF32{
			Flavor:   m.Flavor.Net.Convert32(),
			Lifetime: m.Lifetime.Net.Convert32(),
		}
	}
	return m.f32
}

// Published f32 tolerances (DESIGN.md §6.4): ValidateF32 enforces
// these at publish time, and the f32 property tests pin them. They are
// deliberately loose relative to the ~1e-6 divergence observed on
// trained models — they bound pathology (a broken kernel or
// conversion), not round-off.
const (
	// F32ProbTol bounds the per-step max |Δ| of the flavor softmax
	// probabilities under teacher forcing.
	F32ProbTol = 1e-3
	// F32HazardTol bounds the per-step max |Δ| of the lifetime
	// sigmoid hazards under teacher forcing.
	F32HazardTol = 1e-3
	// F32SurvivalTol bounds the max |Δ| of the survival curves implied
	// by those hazards (hazard errors compound multiplicatively across
	// bins, hence the looser bound).
	F32SurvivalTol = 5e-3
)

// calibrationSeed drives ValidateF32's teacher-forced input sequence;
// fixed so publish-time validation is reproducible across processes.
const calibrationSeed = 0x5EED

// calibrationSteps is the default teacher-forced step count; long
// enough for recurrent state drift to surface, short enough to run on
// every publish.
const calibrationSteps = 256

// F32Report summarizes the teacher-forced divergence between the f64
// and f32 decode paths.
type F32Report struct {
	Steps int
	// MaxProbDiff is the max |Δ| of flavor softmax probabilities.
	MaxProbDiff float64
	// MaxHazardDiff is the max |Δ| of lifetime sigmoid hazards.
	MaxHazardDiff float64
	// MaxSurvivalDiff is the max |Δ| of the survival curves implied by
	// the per-step hazards.
	MaxSurvivalDiff float64
}

// F32Divergence measures the f32 path's drift from the f64 reference
// by teacher forcing: both nets receive the identical input sequence
// (tokens sampled from the f64 distributions by a fixed-seed RNG), so
// the comparison isolates numeric divergence from sampling divergence.
// The four fleets come from newFleets, the constructor every engine
// uses, so what is measured is the served kernels. steps <= 0 selects the calibration default.
func (m *Model) F32Divergence(steps int) F32Report {
	if steps <= 0 {
		steps = calibrationSteps
	}
	g := rng.New(calibrationSeed)
	rep := F32Report{Steps: steps}
	rows := []int{0}
	ff64, lf64 := m.newFleets(1, PrecisionF64)
	ff32, lf32 := m.newFleets(1, PrecisionF32)
	for _, f := range []nn.StepFleet{ff64, lf64, ff32, lf32} {
		f.Admit()
	}

	// Flavor stage: free-run the f64 chain, shadow it with the f32 net.
	k := m.Flavor.K
	probs64 := make([]float64, k+1)
	probs32 := make([]float64, k+1)
	prevTok := EOBToken(k)
	p0 := m.Flavor.HistoryDays * trace.PeriodsPerDay
	curDay := -1
	dohDay := 0
	for t := 0; t < steps; t++ {
		p := p0 + t
		if d := trace.DayOfHistory(p); d != curDay {
			curDay = d
			dohDay = m.Arrival.DOH.Sample(g)
		}
		m.Flavor.encodeFlavorInput(ff64.InputRow(0), prevTok, p, dohDay)
		m.Flavor.encodeFlavorInput(ff32.InputRow(0), prevTok, p, dohDay)
		nn.SoftmaxIntoVec(ff64.Step(rows).Row(0), probs64)
		nn.SoftmaxIntoVec(ff32.Step(rows).Row(0), probs32)
		for j := range probs64 {
			if d := math.Abs(probs64[j] - probs32[j]); d > rep.MaxProbDiff || math.IsNaN(d) {
				rep.MaxProbDiff = d
			}
		}
		prevTok = g.Categorical(probs64)
	}

	// Lifetime stage: teacher-forced job steps with f64-sampled bins
	// fed back into both nets.
	j := m.Lifetime.Bins.J()
	hz64 := make([]float64, j)
	hz32 := make([]float64, j)
	s64 := make([]float64, j)
	s32 := make([]float64, j)
	prevBin, prevCens := -1, false
	for t := 0; t < steps; t++ {
		step := LifetimeStep{
			Period:    p0 + t,
			Flavor:    g.Intn(k),
			BatchSize: 1 + g.Intn(8),
		}
		m.Lifetime.encodeLifetimeInput(lf64.InputRow(0), step, dohDay, prevBin, prevCens)
		m.Lifetime.encodeLifetimeInput(lf32.InputRow(0), step, dohDay, prevBin, prevCens)
		nn.SigmoidIntoVec(lf64.Step(rows).Row(0), hz64)
		nn.SigmoidIntoVec(lf32.Step(rows).Row(0), hz32)
		survival.HazardToSurvivalInto(s64, hz64)
		survival.HazardToSurvivalInto(s32, hz32)
		for b := range hz64 {
			if d := math.Abs(hz64[b] - hz32[b]); d > rep.MaxHazardDiff || math.IsNaN(d) {
				rep.MaxHazardDiff = d
			}
			if d := math.Abs(s64[b] - s32[b]); d > rep.MaxSurvivalDiff || math.IsNaN(d) {
				rep.MaxSurvivalDiff = d
			}
		}
		prevBin, prevCens = survival.SampleBin(hz64, g), false
	}
	return rep
}

// ValidateF32 runs the calibration divergence measurement and checks
// it against the published tolerances. Serving setups that select
// PrecisionF32 call this once at publish/load time so a broken kernel
// or conversion fails the rollout, not a downstream consumer.
func (m *Model) ValidateF32() (F32Report, error) {
	rep := m.F32Divergence(0)
	switch {
	case !(rep.MaxProbDiff <= F32ProbTol):
		return rep, fmt.Errorf("core: f32 flavor prob divergence %g exceeds tolerance %g", rep.MaxProbDiff, float64(F32ProbTol))
	case !(rep.MaxHazardDiff <= F32HazardTol):
		return rep, fmt.Errorf("core: f32 hazard divergence %g exceeds tolerance %g", rep.MaxHazardDiff, float64(F32HazardTol))
	case !(rep.MaxSurvivalDiff <= F32SurvivalTol):
		return rep, fmt.Errorf("core: f32 survival divergence %g exceeds tolerance %g", rep.MaxSurvivalDiff, float64(F32SurvivalTol))
	}
	return rep, nil
}

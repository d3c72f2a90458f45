package core

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// Generator produces synthetic traces for a future window. The window is
// expressed in absolute periods of the original history so temporal
// features stay phase-aligned; the returned trace is re-based to period
// 0 with Periods = w.Periods().
type Generator interface {
	Name() string
	Generate(g *rng.RNG, w trace.Window) *trace.Trace
}

// Model is the paper's full three-stage generative model (§2.4).
type Model struct {
	Arrival  *ArrivalModel
	Flavor   *FlavorModel
	Lifetime *LifetimeModel
	Interp   survival.Interpolation
	// MaxJobsPerPeriod caps runaway flavor sequences; once hit, EOB
	// tokens are forced. Zero means 2000.
	MaxJobsPerPeriod int

	// f32 caches the float32 weight conversion built by PrepareF32.
	// Shallow Model copies (callers copy the Model by value to override
	// MaxJobsPerPeriod) share the conversion through this pointer, so
	// PrepareF32 on the original covers every copy; Tilted's deep copies
	// start with all three caches empty. The caches are filled lazily
	// under prepareMu (pack.go).
	f32 *ModelF32

	// packed and packed32 cache the panel-packed serving weights built
	// by PreparePacked/PreparePackedF32 (pack.go), shared across shallow
	// copies the same way.
	packed   *ModelPacked[float64]
	packed32 *ModelPacked[float32]
}

// ModelOptions bundles the knobs for training the full model.
type ModelOptions struct {
	Bins    survival.Bins
	Train   TrainConfig
	Arrival ArrivalOptions
}

// TrainModel trains all three stages on the training trace (§2). The
// default arrival options follow the paper: batch arrivals with DOH
// features and geometric DOH sampling (success probability 1/7).
func TrainModel(tr *trace.Trace, opt ModelOptions) (*Model, error) {
	if opt.Bins.J() <= 0 {
		opt.Bins = survival.PaperBins()
	}
	arrOpt := opt.Arrival
	arrOpt.Kind = BatchArrivals
	if arrOpt.Obs == nil {
		// One telemetry sink covers all three stages.
		arrOpt.Obs = opt.Train.Obs
	}
	if arrOpt.DOH.Mode == features.DOHGeometric || arrOpt.DOH.GeomP == 0 {
		arrOpt.DOH.GeomP = 1.0 / 7.0
	}
	arrOpt.DOH.Mode = features.DOHGeometric
	arrOpt.UseDOH = true
	arrival, err := TrainArrival(tr, arrOpt)
	if err != nil {
		return nil, fmt.Errorf("core: train model: %w", err)
	}
	flavor := TrainFlavor(tr, opt.Train)
	lifetime := TrainLifetime(tr, opt.Bins, opt.Train)
	return &Model{
		Arrival:  arrival,
		Flavor:   flavor,
		Lifetime: lifetime,
		Interp:   survival.CDI,
	}, nil
}

// Name implements Generator.
func (m *Model) Name() string { return "LSTM" }

func (m *Model) maxJobs() int {
	if m.MaxJobsPerPeriod == 0 {
		return 2000
	}
	return m.MaxJobsPerPeriod
}

// Generate runs the three-stage process (§2.4) for every period of the
// window: sample the number of batches, decode flavors until that many
// EOB tokens, then run the lifetime LSTM over the generated jobs,
// re-encoding each sampled output as the next step's input. LSTM state
// carries across periods so momentum persists, as in training on long
// sequences (§4.2). One DOH day is sampled per generated day and shared
// by all three stages for coherence.
//
// The process is genStream's (engine.go): Generate is the one-stream
// case of the fleet engine at f64, decoded on the calling goroutine, so
// it opens no parallel region inside callers that already fan out.
// Generate draws only from g and builds its own fleet, so concurrent
// calls with distinct RNGs are safe, on a fresh model too (the serving
// caches it reads are built under a lock); the experiment layer exploits
// this by fanning Monte-Carlo samples out over pre-split streams (one
// g.Split() per sample, split serially in sample order), which
// reproduces a serial sweep exactly at any worker count.
func (m *Model) Generate(g *rng.RNG, w trace.Window) *trace.Trace {
	out := make([]*trace.Trace, 1)
	m.decodeQueue([]*rng.RNG{g}, 0, 1, w, out, PrecisionF64)
	return out[0]
}

func (m *Model) flavorDefs() []trace.FlavorDef {
	// The model does not carry resource definitions; generators are
	// always paired with the original catalog by the caller. Return
	// placeholder defs sized to K so the trace validates.
	defs := make([]trace.FlavorDef, m.Flavor.K)
	for i := range defs {
		defs[i] = trace.FlavorDef{Name: fmt.Sprintf("f%d", i), CPU: 1, MemGB: 1}
	}
	return defs
}

// WithCatalog returns a copy of tr that uses the given flavor catalog
// (replacing placeholder defs emitted by generators).
func WithCatalog(tr *trace.Trace, fs *trace.FlavorSet) *trace.Trace {
	out := *tr
	out.Flavors = fs
	return &out
}

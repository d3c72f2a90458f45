package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The fixture is the same on every run of the benchmark: the history
// trace and the fitted model are constants of the benchmark, not inputs
// drawn from -seed. A synthetic history's size swings by ±25% with its
// seed (day effects), and a day decoded from the fitted model costs in
// proportion, so a seeded fixture would make every metric differ from
// seed to seed by far more than any change under test. -seed drives the
// requests, the arrival schedule, the training seed of train_fit and
// the choice of verified operations instead.
const (
	fixtureHistorySeed = 20210521
	fixtureTrainSeed   = 7
	fixtureHidden      = 24
	fixtureLayers      = 2
	fixtureUsers       = 400
	fixtureBaseRate    = 3
)

// fixtureParams sizes the fixture; the workloads pick them so that one
// set-up is at least a second of deterministic work.
type fixtureParams struct {
	days   int
	epochs int
}

type fixture struct {
	spec     *workload.Spec
	cfg      synth.Config
	history  *trace.Trace
	model    *core.Model // the model as loaded back from its snapshot
	snapshot []byte
}

// mixedSpec is the benchmark's workload spec: the "mixed" preset at a
// fixed size.
func mixedSpec(days int) *workload.Spec {
	spec := workload.Preset("mixed")
	spec.Days = days
	spec.Users = fixtureUsers
	spec.Arrival.BaseRate = fixtureBaseRate
	return spec
}

// buildFixture compiles the spec, synthesises the history, fits the
// three-stage model and takes it through a snapshot round trip, the way
// a serving process would receive it. onEpoch is called at every
// training-epoch boundary (the harness probes the host there); sink, if
// not nil, receives the training loops' own per-epoch events.
func buildFixture(p fixtureParams, sl *spanLog, sink obs.EpochSink, onEpoch func()) (*fixture, error) {
	fx := &fixture{spec: mixedSpec(p.days)}
	var err error
	sl.time("workload.Compile", -1, -1, func() {
		fx.cfg, err = fx.spec.Compile()
	})
	if err != nil {
		return nil, fmt.Errorf("compile spec: %w", err)
	}
	sl.time("synth.Generate", -1, -1, func() {
		fx.history = fx.cfg.Generate(fixtureHistorySeed)
	})
	var fitted *core.Model
	sl.time("core.TrainModel", -1, -1, func() {
		fitted, err = core.TrainModel(fx.history, core.ModelOptions{
			Bins: survival.PaperBins(),
			Train: core.TrainConfig{
				Hidden: fixtureHidden, Layers: fixtureLayers,
				Epochs: p.epochs, Seed: fixtureTrainSeed, Obs: sink,
				Progress: func(int, float64) {
					if onEpoch != nil {
						onEpoch()
					}
				},
			},
		})
	})
	if err != nil {
		return nil, fmt.Errorf("fit fixture: %w", err)
	}
	sl.time("core.MarshalBinary", -1, -1, func() {
		fx.snapshot, err = fitted.MarshalBinary()
	})
	if err != nil {
		return nil, fmt.Errorf("marshal fixture: %w", err)
	}
	fx.model = &core.Model{}
	sl.time("core.UnmarshalBinary", -1, -1, func() {
		err = fx.model.UnmarshalBinary(fx.snapshot)
	})
	if err != nil {
		return nil, fmt.Errorf("load fixture snapshot: %w", err)
	}
	again, err := fx.model.MarshalBinary()
	if err != nil || !bytes.Equal(again, fx.snapshot) {
		return nil, fmt.Errorf("fixture snapshot does not round-trip (err=%v)", err)
	}
	return fx, nil
}

// dayWindow is the window a /generate request without start_period
// decodes: the periods right after the model's history.
func (fx *fixture) window(periods int) trace.Window {
	start := fx.model.Flavor.HistoryDays * trace.PeriodsPerDay
	return trace.Window{Start: start, End: start + periods}
}

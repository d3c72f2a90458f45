package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// telemetryTrace builds a tiny training trace shared by the telemetry
// tests (training several networks, so keep it small).
func telemetryTrace() *trace.Trace {
	cfg := workload.PresetConfig("azure")
	cfg.Days = 2
	cfg.Users = 30
	cfg.BaseRate = 1.5
	full := cfg.Generate(5)
	return full.Slice(trace.Window{Start: 0, End: full.Periods}, 0)
}

// recorder collects epoch events, grouped by model name, under a mutex
// (experiments.Run fits its clouds concurrently).
type recorder struct {
	mu     sync.Mutex
	events map[string][]obs.EpochEvent
}

func newRecorder() *recorder { return &recorder{events: map[string][]obs.EpochEvent{}} }

func (r *recorder) EpochDone(e obs.EpochEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[e.Model] = append(r.events[e.Model], e)
}

// TestAllTrainingLoopsEmitEpochEvents is the guarantee that no training
// loop is silent: each of this package's fits routes per-epoch telemetry
// through the shared obs hook (internal/experiments has the ablation
// fits' twin).
func TestAllTrainingLoopsEmitEpochEvents(t *testing.T) {
	tr := telemetryTrace()
	rec := newRecorder()
	cfg := TrainConfig{
		Hidden: 6, Layers: 1, SeqLen: 16, BatchSize: 4,
		Epochs: 2, LR: 5e-3, Seed: 3, Obs: rec,
	}
	bins := survival.PaperBins()

	TrainFlavor(tr, cfg)
	TrainLifetime(tr, bins, cfg)
	if _, err := TrainArrival(tr, ArrivalOptions{Kind: BatchArrivals, Obs: rec}); err != nil {
		t.Fatalf("arrival: %v", err)
	}

	wantEpochs := map[string]int{
		ObsFlavorLSTM:     2,
		ObsLifetimeHazard: 2,
		ObsArrivalGLM:     1,
	}
	for model, want := range wantEpochs {
		evs := rec.events[model]
		if len(evs) != want {
			t.Errorf("%s: %d events, want %d", model, len(evs), want)
			continue
		}
		for i, e := range evs {
			if e.Epoch != i {
				t.Errorf("%s: event %d has epoch %d", model, i, e.Epoch)
			}
			if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
				t.Errorf("%s: non-finite loss %v", model, e.Loss)
			}
			if e.Steps <= 0 {
				t.Errorf("%s: steps = %d", model, e.Steps)
			}
			if e.WallMS < 0 {
				t.Errorf("%s: wall_ms = %v", model, e.WallMS)
			}
		}
	}
	// The recurrent loops clip gradients, so the recorded norm and LR
	// must be populated.
	for _, model := range []string{ObsFlavorLSTM, ObsLifetimeHazard} {
		for _, e := range rec.events[model] {
			if e.GradNorm <= 0 {
				t.Errorf("%s epoch %d: grad_norm = %v, want > 0", model, e.Epoch, e.GradNorm)
			}
			if e.LR <= 0 {
				t.Errorf("%s epoch %d: lr = %v, want > 0", model, e.Epoch, e.LR)
			}
		}
	}
}

// TestTrainModelSharesObsAcrossStages checks the single-sink wiring:
// one TrainConfig.Obs covers arrival + flavor + lifetime, and dev-set
// epochs carry a dev loss.
func TestTrainModelSharesObsAcrossStages(t *testing.T) {
	cfg := workload.PresetConfig("azure")
	cfg.Days = 2
	cfg.Users = 30
	cfg.BaseRate = 1.5
	full := cfg.Generate(6)
	devStart := full.Periods * 85 / 100
	train := full.Slice(trace.Window{Start: 0, End: devStart}, 0)
	dev := full.Slice(trace.Window{Start: devStart, End: full.Periods}, 0)

	rec := newRecorder()
	var progressCalls int
	_, err := TrainModel(train, ModelOptions{
		Bins: survival.PaperBins(),
		Train: TrainConfig{
			Hidden: 6, Layers: 1, SeqLen: 16, BatchSize: 4,
			Epochs: 2, LR: 5e-3, Seed: 3, DevEvery: 1,
			Dev: dev, DevOffset: devStart,
			Obs:      rec,
			Progress: func(int, float64) { progressCalls++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{ObsArrivalGLM, ObsFlavorLSTM, ObsLifetimeHazard} {
		if len(rec.events[model]) == 0 {
			t.Errorf("%s: no events through shared TrainModel sink", model)
		}
	}
	// DevEvery=1 scores the dev set every epoch on both LSTM stages.
	for _, model := range []string{ObsFlavorLSTM, ObsLifetimeHazard} {
		for _, e := range rec.events[model] {
			if !e.HasDev {
				t.Errorf("%s epoch %d: missing dev loss with DevEvery=1", model, e.Epoch)
			} else if math.IsNaN(e.Dev) || math.IsInf(e.Dev, 0) {
				t.Errorf("%s epoch %d: non-finite dev loss %v", model, e.Epoch, e.Dev)
			}
		}
	}
	// The legacy Progress hook still fires alongside the obs sink
	// (flavor + lifetime, 2 epochs each).
	if progressCalls != 4 {
		t.Errorf("progress calls = %d, want 4", progressCalls)
	}
}

package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The ablation fits' rows of internal/core's training-driver tests: they run the same driver, so they make the same promises.

// fitTrace is a tiny 2-day Azure-like history, cut into a training
// slice and a dev slice (as core's checkpoint tests cut it).
func fitTrace() (tr, dev *trace.Trace, devOffset int) {
	cfg := workload.PresetConfig("azure")
	cfg.Days, cfg.Users, cfg.BaseRate = 2, 30, 1.5
	full := cfg.Generate(5)
	cut := full.Periods * 3 / 4
	return full.Slice(trace.Window{Start: 0, End: cut}, 0), full.Slice(trace.Window{Start: cut, End: full.Periods}, 0), cut
}

// ablationFit is one comparator model's fit on a trace, returning its
// network's snapshot.
type ablationFit struct {
	model string
	train func(core.TrainConfig) []byte
}

func ablationFits(t *testing.T, tr *trace.Trace) []ablationFit {
	snap := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bins := survival.PaperBins()
	return []ablationFit{
		{ObsLifetimePMF, func(c core.TrainConfig) []byte { return snap(TrainLifetimePMF(tr, bins, c).Net.MarshalBinary()) }},
		{ObsJointLSTM, func(c core.TrainConfig) []byte { return snap(TrainJoint(tr, c).Net.MarshalBinary()) }},
	}
}

// cutCheckpoints simulates a crash at epoch boundary maxSeq: a fresh
// directory holding only the checkpoint files of src numbered <= maxSeq.
func cutCheckpoints(t *testing.T, src string, maxSeq int) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), ".ckpt")
		if !ok {
			continue
		}
		seq, err := strconv.Atoi(base[strings.LastIndex(base, "-")+1:])
		if err != nil {
			t.Fatal(err)
		}
		if seq > maxSeq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTrainLoopsResumeBitExact: for each comparator fit, enabling
// checkpointing does not perturb the trained weights, and a run killed
// at any epoch boundary and resumed from disk reaches weights
// byte-identical to the uninterrupted run.
func TestTrainLoopsResumeBitExact(t *testing.T) {
	tr, dev, devOffset := fitTrace()
	const epochs = 3
	cfg := func(spec *core.CheckpointSpec) core.TrainConfig {
		return core.TrainConfig{
			Hidden: 6, Layers: 1, SeqLen: 16, BatchSize: 4,
			Epochs: epochs, LR: 5e-3, Seed: 3,
			Dev: dev, DevOffset: devOffset, DevEvery: 2,
			Checkpoint: spec,
		}
	}
	for _, f := range ablationFits(t, tr) {
		train := f.train
		t.Run(strings.ReplaceAll(f.model, "_", "-"), func(t *testing.T) {
			want := train(cfg(nil))
			dir := t.TempDir()
			if got := train(cfg(&core.CheckpointSpec{Dir: dir, Keep: -1})); !bytes.Equal(want, got) {
				t.Fatal("enabling checkpointing changed the trained weights")
			}
			for k := 1; k < epochs; k++ {
				spec := &core.CheckpointSpec{Dir: cutCheckpoints(t, dir, k), Keep: -1, Resume: true}
				if !bytes.Equal(want, train(cfg(spec))) {
					t.Fatalf("resume from epoch boundary %d diverged from uninterrupted run", k)
				}
			}
			// Resuming a finished run short-circuits to the final weights.
			if !bytes.Equal(want, train(cfg(&core.CheckpointSpec{Dir: dir, Keep: -1, Resume: true}))) {
				t.Fatal("resume of a completed run returned different weights")
			}
		})
	}
}

// recorder collects epoch events by model name under a mutex.
type recorder struct {
	mu     sync.Mutex
	events map[string][]obs.EpochEvent
}

func (r *recorder) EpochDone(e obs.EpochEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events[e.Model] = append(r.events[e.Model], e)
}

// TestAllTrainingLoopsEmitEpochEvents: no comparator fit is silent; each
// routes per-epoch telemetry, learning rate and clipped gradient norm
// included, through the shared obs hook.
func TestAllTrainingLoopsEmitEpochEvents(t *testing.T) {
	tr, _, _ := fitTrace()
	rec := &recorder{events: map[string][]obs.EpochEvent{}}
	cfg := core.TrainConfig{
		Hidden: 6, Layers: 1, SeqLen: 16, BatchSize: 4,
		Epochs: 2, LR: 5e-3, Seed: 3, Obs: rec,
	}
	for _, f := range ablationFits(t, tr) {
		model := f.model
		f.train(cfg)
		evs := rec.events[model]
		if len(evs) != cfg.Epochs {
			t.Errorf("%s: %d events, want %d", model, len(evs), cfg.Epochs)
			continue
		}
		for i, e := range evs {
			if e.Epoch != i || e.Steps <= 0 || e.WallMS < 0 || math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
				t.Errorf("%s: event %d is %+v", model, i, e)
			}
			if e.GradNorm <= 0 || e.LR <= 0 {
				t.Errorf("%s epoch %d: grad_norm %v, lr %v, want both > 0", model, e.Epoch, e.GradNorm, e.LR)
			}
		}
	}
}

// TestTrainingWindowSteadyStateAllocs holds the PMF and joint fits
// to internal/core's bound: they run the same window loop, so a
// steady-state window of any of them allocates no more than a
// flavor-LSTM window does. Allocations per window are the extra mallocs
// of one more epoch over the windows in it.
func TestTrainingWindowSteadyStateAllocs(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	sc := workload.PresetConfig("azure")
	sc.Days, sc.Users, sc.BaseRate = 1, 30, 1.5
	tr := sc.Generate(5)
	bins := survival.PaperBins()
	cfg := core.TrainConfig{Hidden: 4, Layers: 2, SeqLen: 2, BatchSize: 4, Seed: 3}
	perWindow := func(n int, fit func(core.TrainConfig)) float64 {
		allocs := func(epochs int) float64 {
			c := cfg
			c.Epochs = epochs
			return testing.AllocsPerRun(1, func() { fit(c) })
		}
		// The windows of an epoch over n positions: n is cut into
		// min(BatchSize, n) segments, each run SeqLen steps a window.
		segLen := (n + min(cfg.BatchSize, n) - 1) / min(cfg.BatchSize, n)
		windows := (segLen + cfg.SeqLen - 1) / cfg.SeqLen
		return (allocs(2) - allocs(1)) / float64(windows)
	}
	nTok := len(core.FlavorTokens(tr))
	base := perWindow(nTok, func(c core.TrainConfig) { core.TrainFlavor(tr, c) })
	for _, f := range []struct {
		name string
		n    int
		fit  func(core.TrainConfig)
	}{
		{ObsLifetimePMF, len(core.LifetimeSteps(tr, bins)), func(c core.TrainConfig) { TrainLifetimePMF(tr, bins, c) }},
		{ObsJointLSTM, len(jointTokens(tr)), func(c core.TrainConfig) { TrainJoint(tr, c) }},
	} {
		// Counts are whole numbers per window; the half absorbs the
		// per-epoch state shared out over differing window counts.
		if got := perWindow(f.n, f.fit); got > base+0.5 {
			t.Errorf("%s: %.2f allocations per steady-state window, flavor LSTM %.2f", f.name, got, base)
		} else {
			t.Logf("%s: %.2f allocations per window (flavor LSTM %.2f)", f.name, got, base)
		}
	}
}

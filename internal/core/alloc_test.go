package core

import (
	"testing"

	"repro/internal/features"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/workload"
)

// tinyGenModels builds untrained (randomly initialized) stage-2/3
// models: allocation behavior and decode mechanics do not depend on
// the weights.
func tinyGenModels() (*FlavorModel, *LifetimeModel) {
	const k, days = 3, 2
	fm := &FlavorModel{K: k, Temporal: features.Temporal{HistoryDays: days}, HistoryDays: days}
	fm.Net = nn.NewLSTM(nn.Config{
		InputDim:  flavorInputDim(k, fm.Temporal),
		HiddenDim: 8, Layers: 2, OutputDim: k + 1,
	}, rng.New(1))
	bins := survival.PaperBins()
	lm := &LifetimeModel{
		Bins: bins, K: k,
		Temporal:    features.Temporal{HistoryDays: days},
		LifeFeat:    features.LifetimeFeatures{Bins: bins.J()},
		HistoryDays: days,
	}
	lm.Net = nn.NewLSTM(nn.Config{
		InputDim:  lifetimeInputDim(k, lm.Temporal, lm.LifeFeat),
		HiddenDim: 8, Layers: 2, OutputDim: bins.J(),
	}, rng.New(2))
	return fm, lm
}

// tinyGenModel is the untrained tiny three-stage model the decode tests
// share: a constant-rate arrival model over tinyGenModels' two networks.
func tinyGenModel() *Model {
	fm, lm := tinyGenModels()
	return &Model{Arrival: testArrivalModel(1.5), Flavor: fm, Lifetime: lm}
}

// TestGenerationStepAllocFree pins the teacher-forced step path the
// predictors and dev-set evaluation run (generation's twin is
// TestFleetEngineSteadyStateAllocs): once the states exist, one flavor
// step and one lifetime-hazard step must allocate nothing.
func TestGenerationStepAllocFree(t *testing.T) {
	fm, lm := tinyGenModels()
	fs := newFlavorState(fm.Net, fm.K, fm.Temporal)
	fs.probs(0, 0)
	fs.observe(1)
	if allocs := testing.AllocsPerRun(100, func() {
		fs.probs(1, 0)
		fs.observe(0)
	}); allocs != 0 {
		t.Fatalf("flavor decode step allocates %v times, want 0", allocs)
	}
	ls := lm.newLifetimeState()
	step := LifetimeStep{Period: 1, Flavor: 1, BatchSize: 2}
	ls.hazard(step, 0)
	ls.observe(2, false)
	if allocs := testing.AllocsPerRun(100, func() {
		ls.hazard(step, 0)
		ls.observe(1, false)
	}); allocs != 0 {
		t.Fatalf("lifetime hazard step allocates %v times, want 0", allocs)
	}
}

// TestPooledStateResetMatchesFresh verifies reset (what the
// predictors' Reset reuses a state through) is invisible: a dirtied and
// reset decoder state must produce bit-identical probabilities to a
// freshly constructed one.
func TestPooledStateResetMatchesFresh(t *testing.T) {
	fm, lm := tinyGenModels()

	reused := newFlavorState(fm.Net, fm.K, fm.Temporal)
	for i := 0; i < 7; i++ {
		reused.probs(i%4, 0)
		reused.observe(i % (fm.K + 1))
	}
	reused.reset()
	fresh := newFlavorState(fm.Net, fm.K, fm.Temporal)
	for i := 0; i < 5; i++ {
		got := reused.probs(i, 1)
		want := fresh.probs(i, 1)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("step %d: reused probs[%d]=%v, fresh %v", i, j, got[j], want[j])
			}
		}
		reused.observe(i % (fm.K + 1))
		fresh.observe(i % (fm.K + 1))
	}

	lreused := lm.newLifetimeState()
	lreused.hazard(LifetimeStep{Period: 0, Flavor: 1, BatchSize: 3}, 1)
	lreused.observe(4, true)
	lreused.reset()
	lfresh := lm.newLifetimeState()
	for i := 0; i < 5; i++ {
		step := LifetimeStep{Period: i, Flavor: i % lm.K, BatchSize: 2}
		got := lreused.hazard(step, 0)
		want := lfresh.hazard(step, 0)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("step %d: reused hazard[%d]=%v, fresh %v", i, j, got[j], want[j])
			}
		}
		lreused.observe(i%3, i%2 == 0)
		lfresh.observe(i%3, i%2 == 0)
	}
}

// TestTrainingWindowSteadyStateAllocs is the training-side twin of
// nn's TestShardedRunWindowSteadyStateAllocs: every BPTT fit runs the
// same window loop, so a steady-state hazard window allocates no more
// than a flavor-LSTM window does (internal/experiments holds the PMF
// and joint fits to the same bound). Allocations per window are the
// extra mallocs of one more epoch over the windows in it; two-step
// windows make the epoch's one fresh state a small fraction of a
// window's count. The weight gradients take mat.MulATB, whose pooled
// scratch race-mode sync.Pool.Put drops at random, so under -race the
// fits still run and only the comparison is left out (scripts/check.sh
// counts without the detector).
func TestTrainingWindowSteadyStateAllocs(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	sc := workload.PresetConfig("azure")
	sc.Days, sc.Users, sc.BaseRate = 1, 30, 1.5
	tr := sc.Generate(5)
	bins := survival.PaperBins()
	cfg := TrainConfig{Hidden: 4, Layers: 2, SeqLen: 2, BatchSize: 4, Seed: 3}
	perWindow := func(n int, fit func(TrainConfig)) float64 {
		allocs := func(epochs int) float64 {
			c := cfg
			c.Epochs = epochs
			return testing.AllocsPerRun(1, func() { fit(c) })
		}
		windows := newSegmentPlan(n, cfg.SeqLen, cfg.BatchSize).windows
		return (allocs(2) - allocs(1)) / float64(windows)
	}
	nTok, nJobs := len(FlavorTokens(tr)), len(LifetimeSteps(tr, bins))
	base := perWindow(nTok, func(c TrainConfig) { TrainFlavor(tr, c) })
	for _, f := range []struct {
		name string
		n    int
		fit  func(TrainConfig)
	}{
		{"lifetime_hazard", nJobs, func(c TrainConfig) { TrainLifetime(tr, bins, c) }},
	} {
		// Counts are whole numbers per window; the half absorbs the
		// per-epoch state shared out over differing window counts.
		got := perWindow(f.n, f.fit)
		if mat.RaceEnabled {
			t.Logf("%s: %.2f allocations per window (flavor LSTM %.2f); race-mode sync.Pool drops pooled scratch, comparison skipped", f.name, got, base)
		} else if got > base+0.5 {
			t.Errorf("%s: %.2f allocations per steady-state window, flavor LSTM %.2f", f.name, got, base)
		} else {
			t.Logf("%s: %.2f allocations per window (flavor LSTM %.2f)", f.name, got, base)
		}
	}
}

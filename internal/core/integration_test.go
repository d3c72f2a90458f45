package core

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixture trains the full model once on a small AzureLike history and
// shares it across integration tests.
type fixture struct {
	cfg   synth.Config
	full  *trace.Trace
	train *trace.Trace
	test  *trace.Trace
	testW trace.Window
	bins  survival.Bins
	model *Model
	tcfg  TrainConfig
}

var (
	fixOnce sync.Once
	fix     *fixture
)

// getFixture skips under the race detector, so no -race leg fits the
// model: the fit takes ~13x longer there and races nothing that the
// -race legs do not already cover.
func getFixture(t *testing.T) *fixture {
	t.Helper()
	if mat.RaceEnabled {
		t.Skip("needs the trained fixture, which is not fitted under -race; training's concurrency is raced by internal/nn's sharded-trainer tests and the root package's TestDeterminismAcrossWorkerCounts")
	}
	fixOnce.Do(func() {
		cfg := workload.PresetConfig("azure")
		cfg.Days = 4
		cfg.Users = 80
		cfg.BaseRate = 2
		full := cfg.Generate(42)
		trainW, _, testW := synth.StandardSplit(cfg.Days)
		bins := survival.PaperBins()
		f := &fixture{
			cfg:   cfg,
			full:  full,
			train: full.Slice(trainW, 0),
			test:  full.Slice(testW, 0),
			testW: testW,
			bins:  bins,
			tcfg: TrainConfig{
				Hidden:    24,
				Layers:    2,
				SeqLen:    64,
				BatchSize: 8,
				Epochs:    60,
				LR:        8e-3,
				Seed:      1,
			},
		}
		m, err := TrainModel(f.train, ModelOptions{Bins: bins, Train: f.tcfg})
		if err != nil {
			panic(err)
		}
		f.model = m
		fix = f
	})
	if fix == nil {
		t.Fatal("fixture failed to initialize")
	}
	return fix
}

func TestTrainArrivalCapturesDiurnal(t *testing.T) {
	f := getFixture(t)
	m := f.model.Arrival
	// Compare predicted rates at the planted afternoon peak vs pre-dawn
	// trough on a weekday (day 1 of history).
	day := 1 * trace.PeriodsPerDay
	peak := m.Rate(day+15*trace.PeriodsPerHour, 1)
	trough := m.Rate(day+3*trace.PeriodsPerHour, 1)
	if peak <= trough {
		t.Fatalf("arrival model missed diurnal pattern: peak %v trough %v", peak, trough)
	}
}

func TestArrivalSampleCount(t *testing.T) {
	f := getFixture(t)
	g := rng.New(1)
	var sum float64
	n := 500
	for i := 0; i < n; i++ {
		sum += float64(f.model.Arrival.SampleCount(g, f.testW.Start))
	}
	mean := sum / float64(n)
	if mean <= 0 || mean > 100 {
		t.Fatalf("implausible mean sampled count %v", mean)
	}
}

func TestArrivalVMKindCountsMore(t *testing.T) {
	f := getFixture(t)
	vmArr, err := TrainArrival(f.train, ArrivalOptions{Kind: VMArrivals})
	if err != nil {
		t.Fatal(err)
	}
	// VM arrivals outnumber batch arrivals (batches contain >1 VM on
	// average), so the fitted mean rate must be higher.
	p := 1*trace.PeriodsPerDay + 14*trace.PeriodsPerHour
	if vmArr.Rate(p, 0) <= f.model.Arrival.Rate(p, f.model.Arrival.HistoryDays-1) {
		t.Fatalf("VM rate %v should exceed batch rate %v",
			vmArr.Rate(p, 0), f.model.Arrival.Rate(p, f.model.Arrival.HistoryDays-1))
	}
}

func TestGenerateValidAndPlausible(t *testing.T) {
	f := getFixture(t)
	g := rng.New(7)
	gen := f.model.Generate(g, f.testW)
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	if gen.Periods != f.testW.Periods() {
		t.Fatalf("periods = %d", gen.Periods)
	}
	real := len(f.test.VMs)
	got := len(gen.VMs)
	if got < real/4 || got > real*4 {
		t.Fatalf("generated %d VMs, actual window has %d", got, real)
	}
	// Generated traces should show intra-batch flavor momentum like the
	// training data.
	pb := gen.PeriodBatches()
	var same, pairs int
	for _, list := range pb {
		for _, b := range list {
			for i := 1; i < len(b.Indices); i++ {
				pairs++
				if gen.VMs[b.Indices[i]].Flavor == gen.VMs[b.Indices[i-1]].Flavor {
					same++
				}
			}
		}
	}
	if pairs > 50 && float64(same)/float64(pairs) < 0.5 {
		t.Errorf("generated flavor momentum too weak: %v", float64(same)/float64(pairs))
	}
}

func TestGenerateRateScale(t *testing.T) {
	f := getFixture(t)
	base := f.model
	scaled := mustTilted(f.model, WhatIf{RateScale: 5})
	nBase := len(base.Generate(rng.New(3), f.testW).VMs)
	nScaled := len(scaled.Generate(rng.New(3), f.testW).VMs)
	ratio := float64(nScaled) / float64(nBase)
	if ratio < 3 || ratio > 8 {
		t.Fatalf("5x scale produced ratio %v (%d vs %d)", ratio, nScaled, nBase)
	}
}

func TestModelGeneratorDeterministicGivenSeed(t *testing.T) {
	f := getFixture(t)
	a := f.model.Generate(rng.New(11), f.testW)
	b := f.model.Generate(rng.New(11), f.testW)
	if len(a.VMs) != len(b.VMs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.VMs), len(b.VMs))
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestWithCatalog(t *testing.T) {
	f := getFixture(t)
	gen := f.model.Generate(rng.New(1), f.testW)
	re := WithCatalog(gen, f.full.Flavors)
	if re.Flavors != f.full.Flavors {
		t.Fatal("catalog not replaced")
	}
	if len(re.VMs) != len(gen.VMs) {
		t.Fatal("VMs changed")
	}
}

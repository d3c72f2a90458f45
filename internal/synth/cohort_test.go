package synth_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// threeCohorts returns a small three-cohort config with distinct
// arrival processes and rate fractions over the Azure catalog.
func threeCohorts() synth.Config {
	cfg := workload.PresetConfig("azure")
	cfg.Days = 3
	cfg.BaseRate = 6
	cfg.Cohorts = []synth.Cohort{
		{
			Name: "interactive", RateFraction: 0.5, SLOClass: "critical",
			Population: synth.Population{
				Users: 60, UserZipf: 1.1, FavoriteCount: 3, Persistence: 0.45,
				BatchSizeMean: 2.0, RepeatFlavorP: 0.85, RepeatLifetimeP: 0.8, TemplateP: 0.35,
				LifeMuMin: math.Log(8 * 60), LifeMuMax: math.Log(86400), LifeSigma: 1.0,
			},
		},
		{
			Name: "batch", RateFraction: 0.3, SLOClass: "batch",
			Arrival: func(g *rng.RNG, lambda float64) int {
				// Bursty: Poisson with a unit-mean Gamma rate multiplier.
				return g.Poisson(lambda * g.Gamma(0.25, 4))
			},
			Population: synth.Population{
				Users: 30, UserZipf: 1.3, FavoriteCount: 2, Persistence: 0.5,
				BatchSizeMean: 4.0, RepeatFlavorP: 0.9, RepeatLifetimeP: 0.85, TemplateP: 0.1,
				LifeMuMin: math.Log(3600), LifeMuMax: math.Log(4 * 86400), LifeSigma: 1.2,
			},
		},
		{
			Name: "gpu", RateFraction: 0.2, SLOClass: "best-effort",
			Arrival: func(g *rng.RNG, lambda float64) int {
				// Regular: Weibull-renewal-style underdispersed counts.
				n := 0
				t := g.Weibull(2, 1/(lambda*0.8862269254527580+1e-12))
				for t < 1 {
					n++
					t += g.Weibull(2, 1/(lambda*0.8862269254527580+1e-12))
				}
				return n
			},
			Population: synth.Population{
				Users: 10, UserZipf: 1.0, FavoriteCount: 2, Persistence: 0.3,
				BatchSizeMean: 1.5, RepeatFlavorP: 0.95, RepeatLifetimeP: 0.9, TemplateP: 0,
				LifeMuMin: math.Log(6 * 3600), LifeMuMax: math.Log(8 * 86400), LifeSigma: 0.8,
			},
			FlavorSubset: []int{12, 13, 14, 15},
		},
	}
	return cfg
}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCohortGenerateDeterministic pins the multi-cohort path's seed
// determinism and basic trace invariants.
func TestCohortGenerateDeterministic(t *testing.T) {
	cfg := threeCohorts()
	a := cfg.Generate(5)
	b := cfg.Generate(5)
	if err := a.Validate(); err != nil {
		t.Fatalf("invalid cohort trace: %v", err)
	}
	if len(a.VMs) == 0 {
		t.Fatal("cohort generate produced no VMs")
	}
	if !bytes.Equal(traceBytes(t, a), traceBytes(t, b)) {
		t.Fatal("same seed produced different cohort traces")
	}
	if c := cfg.Generate(6); bytes.Equal(traceBytes(t, a), traceBytes(t, c)) {
		t.Fatal("different seeds produced identical cohort traces")
	}
}

// TestCohortRateFractions checks each cohort's share of arrivals lands
// near its declared rate fraction. Cohort membership is recovered from
// the global user-ID ranges.
func TestCohortRateFractions(t *testing.T) {
	cfg := threeCohorts()
	cfg.Days = 6
	// Flatten burstiness out of the comparison: replace the bursty and
	// regular samplers with Poisson so each cohort's expected share is
	// exactly its fraction.
	for i := range cfg.Cohorts {
		cfg.Cohorts[i].Arrival = nil
	}
	tr := cfg.Generate(9)
	counts := make([]int, len(cfg.Cohorts))
	bounds := make([]int, len(cfg.Cohorts)+1)
	for i, co := range cfg.Cohorts {
		bounds[i+1] = bounds[i] + co.Users
	}
	// Count batches (not VMs): rate fractions govern batch arrivals,
	// while VM counts also absorb the per-cohort batch-size means.
	for _, pb := range tr.PeriodBatches() {
		for _, b := range pb {
			for c := range counts {
				if b.User >= bounds[c] && b.User < bounds[c+1] {
					counts[c]++
				}
			}
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		t.Fatal("no batches generated")
	}
	for i, co := range cfg.Cohorts {
		got := float64(counts[i]) / float64(total)
		if math.Abs(got-co.RateFraction) > 0.06 {
			t.Errorf("cohort %q: batch share %.3f want %.3f +- 0.06", co.Name, got, co.RateFraction)
		}
	}
}

// TestCohortFlavorSubset proves the flavor override: the gpu cohort
// must only ever start VMs from its declared flavor subset.
func TestCohortFlavorSubset(t *testing.T) {
	cfg := threeCohorts()
	tr := cfg.Generate(21)
	gpuStart := cfg.Cohorts[0].Users + cfg.Cohorts[1].Users
	allowed := map[int]bool{}
	for _, f := range cfg.Cohorts[2].FlavorSubset {
		allowed[f] = true
	}
	seenGPU := false
	for _, vm := range tr.VMs {
		if vm.User < gpuStart {
			continue
		}
		seenGPU = true
		if !allowed[vm.Flavor] {
			t.Fatalf("gpu cohort VM %d uses flavor %d outside subset", vm.ID, vm.Flavor)
		}
	}
	if !seenGPU {
		t.Fatal("gpu cohort generated no VMs")
	}
}

// TestCohortStreamIndependence pins the Split-per-cohort stream layout:
// appending a cohort must not change the bytes generated for the
// cohorts that were already there.
func TestCohortStreamIndependence(t *testing.T) {
	cfg := threeCohorts()
	two := cfg
	two.Cohorts = append([]synth.Cohort{}, cfg.Cohorts[:2]...)
	// Renormalize fractions so the two-cohort config is valid while the
	// per-cohort lambdas stay identical: scale BaseRate down instead.
	sum := two.Cohorts[0].RateFraction + two.Cohorts[1].RateFraction
	two.BaseRate = cfg.BaseRate * sum
	for i := range two.Cohorts {
		two.Cohorts[i].RateFraction /= sum
	}
	full := cfg.Generate(33)
	partial := two.Generate(33)
	userCut := cfg.Cohorts[0].Users + cfg.Cohorts[1].Users
	var fullFirst, partFirst []trace.VM
	for _, vm := range full.VMs {
		if vm.User < userCut {
			vm.ID = 0 // IDs interleave with the third cohort; ignore them
			fullFirst = append(fullFirst, vm)
		}
	}
	for _, vm := range partial.VMs {
		if vm.User < userCut {
			vm.ID = 0
			partFirst = append(partFirst, vm)
		}
	}
	if len(fullFirst) == 0 || len(fullFirst) != len(partFirst) {
		t.Fatalf("first-two-cohort VM counts differ: %d vs %d", len(fullFirst), len(partFirst))
	}
	for i := range fullFirst {
		if fullFirst[i] != partFirst[i] {
			t.Fatalf("VM %d differs with third cohort present: %+v vs %+v", i, fullFirst[i], partFirst[i])
		}
	}
}

// TestGenerateRejectsHangingPopulations: inputs whose favorite
// sampling could never finish either generate (favorites are clamped to
// the flavors on offer) or panic (a repeated subset index).
func TestGenerateRejectsHangingPopulations(t *testing.T) {
	cfg := workload.PresetConfig("azure")
	cfg.Days, cfg.Users, cfg.BaseRate = 1, 10, 1
	cfg.FavoriteCount = cfg.Flavors.K() + 1
	if err := cfg.Generate(1).Validate(); err != nil {
		t.Fatal(err)
	}
	cohorts := threeCohorts()
	cohorts.Cohorts[2].FlavorSubset = []int{15, 15}
	defer func() {
		if recover() == nil {
			t.Fatal("a repeated flavor subset index did not panic")
		}
	}()
	cohorts.Generate(1)
}

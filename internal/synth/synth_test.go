package synth_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallAzure returns a scaled-down azure preset config for fast tests.
func smallAzure() synth.Config {
	cfg := workload.PresetConfig("azure")
	cfg.Days = 4
	cfg.Users = 60
	cfg.BaseRate = 2
	return cfg
}

func TestFlavorCatalogs(t *testing.T) {
	if k := synth.AzureFlavors().K(); k != 16 {
		t.Fatalf("Azure flavors = %d, want 16", k)
	}
	if k := synth.HuaweiFlavors().K(); k != 259 {
		t.Fatalf("Huawei flavors = %d, want 259", k)
	}
	names := map[string]bool{}
	for _, d := range synth.HuaweiFlavors().Defs {
		if names[d.Name] {
			t.Fatalf("duplicate flavor name %q", d.Name)
		}
		names[d.Name] = true
		if d.CPU <= 0 || d.MemGB <= 0 {
			t.Fatalf("non-positive resources: %+v", d)
		}
	}
}

func TestGenerateValidTrace(t *testing.T) {
	tr := smallAzure().Generate(1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Periods != 4*trace.PeriodsPerDay {
		t.Fatalf("periods = %d", tr.Periods)
	}
	if len(tr.VMs) < 500 {
		t.Fatalf("suspiciously few VMs: %d", len(tr.VMs))
	}
	for _, vm := range tr.VMs {
		if vm.Censored {
			t.Fatal("full-history trace must be uncensored")
		}
		if vm.Duration <= 0 {
			t.Fatalf("non-positive duration: %+v", vm)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallAzure()
	a := cfg.Generate(7)
	b := cfg.Generate(7)
	if len(a.VMs) != len(b.VMs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.VMs), len(b.VMs))
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			t.Fatalf("VM %d differs", i)
		}
	}
	c := cfg.Generate(8)
	if len(a.VMs) == len(c.VMs) {
		same := true
		for i := range a.VMs {
			if a.VMs[i] != c.VMs[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestBatchStructure(t *testing.T) {
	tr := smallAzure().Generate(2)
	pb := tr.PeriodBatches()
	var batches, jobs int
	for _, list := range pb {
		for _, b := range list {
			batches++
			jobs += len(b.Indices)
			// All VMs in a batch share the user.
			for _, idx := range b.Indices {
				if tr.VMs[idx].User != b.User {
					t.Fatal("batch user mismatch")
				}
			}
		}
	}
	if batches == 0 {
		t.Fatal("no batches")
	}
	mean := float64(jobs) / float64(batches)
	if mean < 1.5 || mean > 5 {
		t.Fatalf("mean batch size %v outside plausible range", mean)
	}
}

// TestFlavorMomentum verifies the planted intra-batch correlation: the
// probability that consecutive VMs in a batch share a flavor should be
// far higher than the marginal flavor-collision probability.
func TestFlavorMomentum(t *testing.T) {
	tr := smallAzure().Generate(3)
	pb := tr.PeriodBatches()
	var same, pairs int
	for _, list := range pb {
		for _, b := range list {
			for i := 1; i < len(b.Indices); i++ {
				pairs++
				if tr.VMs[b.Indices[i]].Flavor == tr.VMs[b.Indices[i-1]].Flavor {
					same++
				}
			}
		}
	}
	if pairs < 100 {
		t.Fatalf("too few pairs: %d", pairs)
	}
	frac := float64(same) / float64(pairs)
	// Repeat-momentum batches (1-TemplateP of them) repeat with p=0.85;
	// templated batches cycle distinct flavors, diluting the raw
	// same-flavor fraction.
	if frac < 0.5 {
		t.Fatalf("flavor momentum %v, want >= 0.5", frac)
	}
}

// TestLifetimeMomentum verifies consecutive VMs in a batch have highly
// correlated lifetimes.
func TestLifetimeMomentum(t *testing.T) {
	tr := smallAzure().Generate(4)
	pb := tr.PeriodBatches()
	var close, pairs int
	for _, list := range pb {
		for _, b := range list {
			for i := 1; i < len(b.Indices); i++ {
				pairs++
				a := tr.VMs[b.Indices[i]].Duration
				c := tr.VMs[b.Indices[i-1]].Duration
				if math.Abs(math.Log(a/c)) < 0.3 {
					close++
				}
			}
		}
	}
	frac := float64(close) / float64(pairs)
	if frac < 0.6 {
		t.Fatalf("lifetime momentum %v, want >= 0.6", frac)
	}
}

// TestDiurnalPattern verifies arrival seasonality: afternoon rates should
// exceed pre-dawn rates.
func TestDiurnalPattern(t *testing.T) {
	cfg := workload.PresetConfig("azure")
	cfg.Days = 7
	cfg.Users = 100
	cfg.BaseRate = 4
	cfg.DayEffect = 0 // isolate the diurnal signal
	tr := cfg.Generate(5)
	counts := tr.BatchCounts()
	var afternoon, predawn float64
	var na, np int
	for p, c := range counts {
		h := trace.HourOfDay(p)
		if h >= 13 && h < 17 {
			afternoon += float64(c)
			na++
		}
		if h >= 1 && h < 5 {
			predawn += float64(c)
			np++
		}
	}
	if afternoon/float64(na) <= predawn/float64(np)*1.3 {
		t.Fatalf("diurnal pattern too weak: afternoon %v predawn %v",
			afternoon/float64(na), predawn/float64(np))
	}
}

// TestHuaweiGrowth verifies the planted growth trend: late-history daily
// arrivals should exceed early-history arrivals.
func TestHuaweiGrowth(t *testing.T) {
	cfg := workload.PresetConfig("huawei")
	cfg.Days = 40
	cfg.Users = 80
	tr := cfg.Generate(6)
	counts := tr.BatchCounts()
	perDay := trace.PeriodsPerDay
	var early, late float64
	for p, c := range counts {
		d := p / perDay
		if d < 8 {
			early += float64(c)
		}
		if d >= 32 {
			late += float64(c)
		}
	}
	if late <= early*1.3 {
		t.Fatalf("growth not planted: early %v late %v", early, late)
	}
}

// TestHuaweiLifetimeRegime verifies early-history lifetimes are longer.
func TestHuaweiLifetimeRegime(t *testing.T) {
	cfg := workload.PresetConfig("huawei")
	cfg.Days = 40
	cfg.Users = 80
	tr := cfg.Generate(8)
	perDay := trace.PeriodsPerDay
	var earlySum, lateSum float64
	var earlyN, lateN int
	for _, vm := range tr.VMs {
		d := vm.Start / perDay
		if d < 10 {
			earlySum += math.Log(vm.Duration)
			earlyN++
		}
		if d >= 32 {
			lateSum += math.Log(vm.Duration)
			lateN++
		}
	}
	if earlySum/float64(earlyN) <= lateSum/float64(lateN)+0.2 {
		t.Fatalf("lifetime regime shift not planted: early %v late %v",
			earlySum/float64(earlyN), lateSum/float64(lateN))
	}
}

func TestStandardSplit(t *testing.T) {
	train, dev, test := synth.StandardSplit(30)
	if train.Start != 0 || train.End != 21*trace.PeriodsPerDay {
		t.Fatalf("train = %+v", train)
	}
	if dev.Start != train.End || test.Start != dev.End {
		t.Fatal("windows must be contiguous")
	}
	if test.End != 30*trace.PeriodsPerDay {
		t.Fatalf("test = %+v", test)
	}
}

// TestGenerateGolden pins the simulator's bytes directly: the SHA-256
// of the JSON trace each config generates. Every trained golden and
// benchmark digest downstream depends on these bits, so the constants
// are never re-recorded to make a change pass; a change that moves them
// changes the ground truth.
func TestGenerateGolden(t *testing.T) {
	azure := workload.PresetConfig("azure")
	azure.Days = 4
	huawei := workload.PresetConfig("huawei")
	huawei.Days = 6
	cases := []struct {
		name string
		cfg  synth.Config
		seed int64
		sha  string
	}{
		{"azure", azure, 1, "c40c9967fce9b3ab55bcbb96bceb928d0c11d914915960ced766e68c19ac77df"},
		{"azure", azure, 20210521, "c3f8642295a635a25ebcd0338c8567f2ce355046fc13dcccb70465bb8b02331f"},
		{"huawei", huawei, 1, "59adb7ae0bdc7b5cec763c406566453c44c0fab0daf44f95ef332da02a9e2ec8"},
		{"huawei", huawei, 20210521, "2233ff57eb62266b4cd2ed18355360c42bfa04f87b335d03705b013ca016bc0a"},
		{"cohorts", threeCohorts(), 1, "962b4e431a2b55500ce9a134b3ef2a9d4a3e8a74280c2434c53850e72fee2029"},
		{"cohorts", threeCohorts(), 20210521, "6d327b52966abe1163ad077f9dce95dbca92ca455175ba0dee7a86d74c68c35b"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(traceBytes(t, tc.cfg.Generate(tc.seed)))
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s seed %d: trace sha256 %s, want %s", tc.name, tc.seed, got, tc.sha)
		}
	}
}

func TestGenerateBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	synth.Config{}.Generate(1)
}

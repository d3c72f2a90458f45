package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := workload.PresetConfig("azure")
	cfg.Days = 3
	cfg.Users = 60
	cfg.BaseRate = 2
	return cfg.Generate(1)
}

func TestArrivalsPoissonBaseline(t *testing.T) {
	// A constant-rate iid Poisson count series should have dispersion
	// ~1 and autocorrelation ~0.
	cfg := workload.PresetConfig("azure")
	cfg.Days = 3
	cfg.Users = 60
	cfg.BaseRate = 2
	cfg.DiurnalAmp = 0
	cfg.WeekendDip = 1
	cfg.DayEffect = 0
	cfg.Persistence = 0
	tr := cfg.Generate(2)
	st := Arrivals(tr.BatchCounts(), 6)
	if math.Abs(st.IndexOfDisp-1) > 0.25 {
		t.Errorf("flat Poisson dispersion %v, want ~1", st.IndexOfDisp)
	}
	if math.Abs(st.Autocorr[0]) > 0.1 {
		t.Errorf("flat Poisson lag-1 autocorr %v, want ~0", st.Autocorr[0])
	}
}

func TestArrivalsSeasonalWorkload(t *testing.T) {
	tr := smallTrace(t)
	st := Arrivals(tr.BatchCounts(), 6)
	if st.MeanPerPeriod <= 0 {
		t.Fatal("mean should be positive")
	}
	if st.PeakTroughHr <= 1.2 {
		t.Errorf("diurnal peak/trough %v, want > 1.2", st.PeakTroughHr)
	}
	if st.Autocorr[0] <= 0.02 {
		t.Errorf("seasonal workload should show positive lag-1 autocorr: %v", st.Autocorr[0])
	}
}

func TestArrivalsEmpty(t *testing.T) {
	st := Arrivals(nil, 3)
	if st.MeanPerPeriod != 0 || st.CV != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}

func TestBatches(t *testing.T) {
	tr := smallTrace(t)
	st := Batches(tr)
	if st.Count == 0 || st.MaxSize < 1 {
		t.Fatalf("batch stats: %+v", st)
	}
	if st.MeanSize < 1 || st.MeanSize > 10 {
		t.Fatalf("mean size %v implausible", st.MeanSize)
	}
	if st.P95Size < st.MeanSize {
		t.Fatal("p95 below mean")
	}
	if st.SingletonPct < 0 || st.SingletonPct > 1 {
		t.Fatalf("singleton pct %v", st.SingletonPct)
	}
}

func TestBatchesEmpty(t *testing.T) {
	tr := &trace.Trace{Flavors: &trace.FlavorSet{Defs: []trace.FlavorDef{{CPU: 1, MemGB: 1}}}, Periods: 5}
	st := Batches(tr)
	if st.Count != 0 || st.MeanSize != 0 {
		t.Fatalf("empty batch stats: %+v", st)
	}
}

func TestFlavors(t *testing.T) {
	tr := smallTrace(t)
	st := Flavors(tr)
	if st.Distinct < 2 || st.Distinct > tr.Flavors.K() {
		t.Fatalf("distinct %d", st.Distinct)
	}
	if st.EntropyNat <= 0 || st.EntropyNat > math.Log(float64(tr.Flavors.K())) {
		t.Fatalf("entropy %v out of range", st.EntropyNat)
	}
	if st.Top1Share <= 0 || st.Top1Share > 1 || st.Top5Share < st.Top1Share {
		t.Fatalf("shares: %+v", st)
	}
	// Zipf-ish popularity: top-5 should dominate.
	if st.Top5Share < 0.4 {
		t.Errorf("top-5 share %v, want skewed popularity", st.Top5Share)
	}
}

func TestLifetimes(t *testing.T) {
	full := smallTrace(t)
	sliced := full.Slice(trace.Window{Start: 0, End: full.Periods}, 0)
	st := Lifetimes(sliced)
	if !(st.P50 < st.P90 && st.P90 <= st.P99) {
		t.Fatalf("quantiles not ordered: %+v", st)
	}
	if st.CensoredPct <= 0 || st.CensoredPct > 0.7 {
		t.Fatalf("censored pct %v implausible", st.CensoredPct)
	}
	// Long-tail property: the top decile should account for a large
	// share of CPU-hours (the paper cites >95% at Azure scale).
	if st.CPUHoursTopDecile < 0.3 {
		t.Errorf("top-decile CPU-hours %v, want heavy concentration", st.CPUHoursTopDecile)
	}
}

func TestCorrelationsPlantedMomentum(t *testing.T) {
	tr := smallTrace(t)
	st := Correlations(tr)
	if st.IntraBatchSameFlavor < 0.4 {
		t.Errorf("intra-batch flavor momentum %v too weak", st.IntraBatchSameFlavor)
	}
	if st.IntraBatchLifetimeCorr < 0.3 {
		t.Errorf("intra-batch lifetime correlation %v too weak", st.IntraBatchLifetimeCorr)
	}
	if st.CrossBatchSameFlavor <= 0.05 {
		t.Errorf("cross-batch flavor persistence %v too weak", st.CrossBatchSameFlavor)
	}
}

func TestCorrelationsIndependentBaseline(t *testing.T) {
	// Destroying the correlations should drive the stats down.
	cfg := workload.PresetConfig("azure")
	cfg.Days = 3
	cfg.Users = 60
	cfg.BaseRate = 2
	cfg.RepeatFlavorP = 0
	cfg.RepeatLifetimeP = 0
	cfg.TemplateP = 0
	cfg.Persistence = 0
	cfg.FavoriteCount = 8
	tr := cfg.Generate(3)
	st := Correlations(tr)
	// Same-user favorite-flavor collisions leave a floor (~0.54 for the
	// geometric preference weights); the planted momentum config sits
	// near 0.75+.
	if st.IntraBatchSameFlavor > 0.65 {
		t.Errorf("independent flavor momentum %v too high", st.IntraBatchSameFlavor)
	}
	planted := Correlations(smallTrace(t))
	if st.IntraBatchSameFlavor >= planted.IntraBatchSameFlavor {
		t.Errorf("independent momentum %v should be below planted %v",
			st.IntraBatchSameFlavor, planted.IntraBatchSameFlavor)
	}
}

func TestCharacterizeAndRender(t *testing.T) {
	tr := smallTrace(t)
	r := Characterize("test", tr)
	if r.VMs != len(tr.VMs) || r.Days != tr.Days() {
		t.Fatalf("report header wrong: %+v", r)
	}
	var sb strings.Builder
	r.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Workload characterization: test", "arrivals/period", "flavors:", "lifetimes:", "correlations:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single point should be 0")
	}
	if pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance input should be 0")
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[float64]string{
		120:    "2m",
		7200:   "2.0h",
		172800: "2.0d",
	}
	for in, want := range cases {
		if got := fmtDur(in); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", in, got, want)
		}
	}
}

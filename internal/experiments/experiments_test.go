package experiments

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

var (
	cloudsOnce  sync.Once
	smallClouds []*Cloud

	recordOnce sync.Once
	record     *Results
)

// clouds is the SmallScale Azure and Huawei clouds, shared by every test
// in the binary: their histories, fitted on first use.
func clouds() []*Cloud {
	cloudsOnce.Do(func() {
		s := SmallScale()
		smallClouds = []*Cloud{NewCloud(Azure, s), NewCloud(Huawei, s)}
	})
	return smallClouds
}

func azure() *Cloud { return clouds()[0] }

// results is the SmallScale record of both clouds and every experiment,
// computed once per test binary: the numbers cmd/experiments prints,
// testdata/results.small.json holds and EXPERIMENTS.md reports. Under
// -short it skips, and with it every gate that reads it.
func results(t *testing.T) *Results {
	t.Helper()
	if testing.Short() {
		t.Skip("heavy: the record fits both SmallScale clouds and runs every experiment")
	}
	var err error
	recordOnce.Do(func() { record, err = Run([]string{"all"}, clouds()...) })
	if record == nil {
		t.Fatalf("the results record failed to compute: %v", err)
	}
	return record
}

func azureResults(t *testing.T) *CloudResults  { return results(t).Clouds[0] }
func huaweiResults(t *testing.T) *CloudResults { return results(t).Clouds[1] }

// byName indexes rows by the name key gives each.
func byName[T any](rows []T, key func(T) string) map[string]T {
	m := make(map[string]T, len(rows))
	for _, r := range rows {
		m[key(r)] = r
	}
	return m
}

func TestTable1(t *testing.T) {
	rows := results(t).Table1
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, name := range []string{"Azure", "HuaweiCloud"} {
		r := rows[i]
		if r.Cloud != name || r.TrainVMs == 0 || r.TestVMs == 0 {
			t.Fatalf("row = %+v", r)
		}
		if r.TrainDays <= r.TestDays {
			t.Fatalf("train window should be longest: %+v", r)
		}
	}
}

// TestFigure4DOHSampling checks the §5.1 Azure result shape: sampling
// DOH days yields (weakly) better coverage than always encoding the last
// day, and coverage with sampling is reasonably high.
func TestFigure4DOHSampling(t *testing.T) {
	fig := azureResults(t).Figure4
	sampled, lastDay := fig[0], fig[1]
	if sampled.Coverage < 0.5 {
		t.Errorf("sampled-DOH coverage %v too low", sampled.Coverage)
	}
	if sampled.Coverage < lastDay.Coverage-0.05 {
		t.Errorf("sampling DOH days should not hurt coverage: %v vs %v",
			sampled.Coverage, lastDay.Coverage)
	}
	if sampled.Kind != "batch" || sampled.DOH != "sampled" || lastDay.DOH != "last-day" {
		t.Errorf("labels wrong: %+v %+v", sampled.Kind, lastDay.DOH)
	}
	if len(sampled.Intervals) != azure().TestW.Periods() {
		t.Errorf("interval count %d", len(sampled.Intervals))
	}
}

// TestFigure6NaivePoissonUndercovers checks the Figure 6 shape: a
// Poisson model of individual VM arrivals dramatically underestimates
// variance relative to the batch model.
func TestFigure6NaivePoissonUndercovers(t *testing.T) {
	r := azureResults(t)
	noDOH, withDOH := r.Figure6[0], r.Figure6[1]
	batchSampled := r.Figure4[0]
	if noDOH.Coverage >= batchSampled.Coverage {
		t.Errorf("VM-level Poisson coverage %v should be below batch coverage %v",
			noDOH.Coverage, batchSampled.Coverage)
	}
	if withDOH.Coverage < noDOH.Coverage-0.05 {
		t.Errorf("DOH sampling should not reduce VM-level coverage much: %v vs %v",
			withDOH.Coverage, noDOH.Coverage)
	}
}

// TestTable2Shape checks the Table 2 ordering on Azure: Uniform worst,
// then Multinomial, with the LSTM best on both metrics, and the
// RepeatFlav 1-best between Multinomial and LSTM.
func TestTable2Shape(t *testing.T) {
	rows := azureResults(t).Table2
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := byName(rows, func(r Table2Row) string { return r.System })
	uni, multi, repeat, lstm := get["Uniform"], get["Multinomial"], get["RepeatFlav"], get["LSTM"]
	if math.Abs(uni.NLL-math.Log(17)) > 1e-9 {
		t.Errorf("uniform NLL %v != ln17", uni.NLL)
	}
	if repeat.HasNLL {
		t.Error("RepeatFlav must report N/A NLL")
	}
	if !(lstm.NLL < multi.NLL && multi.NLL < uni.NLL) {
		t.Errorf("NLL ordering violated: %v %v %v", lstm.NLL, multi.NLL, uni.NLL)
	}
	if !(lstm.OneBestErr < repeat.OneBestErr && repeat.OneBestErr < multi.OneBestErr) {
		t.Errorf("1-best ordering violated: %v %v %v",
			lstm.OneBestErr, repeat.OneBestErr, multi.OneBestErr)
	}
}

// TestTable3Shape checks the Table 3 ordering on Azure, RepeatLifetime's
// 1-best against Overall KM included.
func TestTable3Shape(t *testing.T) {
	rows := azureResults(t).Table3
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := byName(rows, func(r Table3Row) string { return r.System })
	coin, km, pf, repeat, lstm := get["CoinFlip"], get["Overall KM"],
		get["Per-flavor KM"], get["RepeatLifetime"], get["LSTM"]
	if math.Abs(coin.BCE-math.Log(2)) > 1e-9 {
		t.Errorf("coin-flip BCE %v != ln2", coin.BCE)
	}
	if repeat.HasBCE {
		t.Error("RepeatLifetime must report N/A BCE")
	}
	if !(lstm.BCE < pf.BCE && pf.BCE <= km.BCE && km.BCE < coin.BCE) {
		t.Errorf("BCE ordering violated: lstm %v pf %v km %v coin %v",
			lstm.BCE, pf.BCE, km.BCE, coin.BCE)
	}
	if !(lstm.OneBestErr < km.OneBestErr) {
		t.Errorf("LSTM 1-best %v should beat KM %v", lstm.OneBestErr, km.OneBestErr)
	}
	if !(repeat.OneBestErr < km.OneBestErr) {
		t.Errorf("RepeatLifetime 1-best %v should beat KM %v", repeat.OneBestErr, km.OneBestErr)
	}
}

// TestTable4Shape checks the Survival-MSE orderings: LSTM halves the KM
// error; bins/interpolation matter far less than the model; CDI helps
// the LSTM.
func TestTable4Shape(t *testing.T) {
	rows := azureResults(t).Table4
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(system, disc, interp string) Table4Row {
		for _, r := range rows {
			if r.System == system && r.Discretization == disc && r.Interpolation == interp {
				return r
			}
		}
		t.Fatalf("missing row %s/%s/%s", system, disc, interp)
		return Table4Row{}
	}
	km47s := get("KM", "47 bins", "Stepped")
	km47c := get("KM", "47 bins", "CDI")
	km495c := get("KM", "495 bins", "CDI")
	kmCont := get("KM", "Continuous", "N/A")
	lstmS := get("LSTM", "47 bins", "Stepped")
	lstmC := get("LSTM", "47 bins", "CDI")
	// All KM variants should be within a factor of ~2 of one another
	// (the paper's are nearly identical at million-VM scale; small-sample
	// noise widens the band here)...
	kmVals := []float64{km47s.SurvivalMSE, km47c.SurvivalMSE, km495c.SurvivalMSE, kmCont.SurvivalMSE}
	for _, v := range kmVals {
		if v > 2*kmVals[0] || v < kmVals[0]/2 {
			t.Errorf("KM variants should be within 2x: %v", kmVals)
		}
	}
	// ...and the LSTM should be clearly better than every KM variant.
	for _, v := range kmVals {
		if !(lstmC.SurvivalMSE < v*0.85) {
			t.Errorf("LSTM CDI MSE %v should clearly beat KM %v", lstmC.SurvivalMSE, v)
		}
	}
	// CDI should help (or at worst be within noise of) the stepped
	// interpolation for the LSTM; the paper's gain is ~10%, ours is
	// sub-noise at the scaled sample size.
	if lstmC.SurvivalMSE > lstmS.SurvivalMSE*1.05 {
		t.Errorf("CDI should not hurt the LSTM: %v vs %v", lstmC.SurvivalMSE, lstmS.SurvivalMSE)
	}
}

func TestCensoringAblation(t *testing.T) {
	for _, r := range results(t).Clouds {
		if len(r.Censoring) != 3 {
			t.Fatalf("%s: rows = %d", r.Cloud, len(r.Censoring))
		}
		for _, row := range r.Censoring {
			if row.BCE <= 0 || math.IsNaN(row.BCE) {
				t.Errorf("%s: variant %s BCE %v", r.Cloud, row.Variant, row.BCE)
			}
		}
	}
}

// TestFigure7Shape checks the §6.1 Azure result: the batch-aware
// generators cover far more of the true workload than Naive.
func TestFigure7Shape(t *testing.T) {
	results := azureResults(t).Figure7
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	cov := byName(results, func(r CapacityResult) string { return r.Generator })
	naive, lstm := cov["Naive"].Coverage, cov["LSTM"].Coverage
	if lstm <= naive {
		t.Errorf("LSTM coverage %v should beat Naive %v", lstm, naive)
	}
	if naive > 0.5 {
		t.Errorf("Naive coverage %v suspiciously high (paper: ~0%%)", naive)
	}
	if lstm < 0.5 {
		t.Errorf("LSTM coverage %v too low (paper: 83%%)", lstm)
	}
}

// TestFigure9Shape checks the §6.2 reuse-distance result: the LSTM's
// short-distance reuse (bucket 0) tracks the real data much more closely
// than Naive, which shows far less reuse.
func TestFigure9Shape(t *testing.T) {
	fig := azureResults(t).Figure9
	actual := fig.Actual
	get := byName(fig.Generators, func(r ReuseResult) string { return r.Generator })
	lstmGap := math.Abs(get["LSTM"].Mean[0] - actual[0])
	naiveGap := math.Abs(get["Naive"].Mean[0] - actual[0])
	if lstmGap >= naiveGap {
		t.Errorf("LSTM bucket-0 gap %v should beat Naive %v (actual %v, lstm %v, naive %v)",
			lstmGap, naiveGap, actual[0], get["LSTM"].Mean[0], get["Naive"].Mean[0])
	}
	if get["Naive"].Mean[0] >= actual[0] {
		t.Errorf("Naive should show less reuse than actual: %v vs %v",
			get["Naive"].Mean[0], actual[0])
	}
}

// TestTable5Shape checks the packing result: Naive traces pack easier
// (higher FFAR) than real data, and the LSTM's median FFAR is closer to
// the real data's than Naive's is.
func TestTable5Shape(t *testing.T) {
	results := azureResults(t).Table5
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	get := byName(results, func(r PackingResult) string { return r.Source })
	test, naive, lstm := get["Test data"], get["Naive"], get["LSTM"]
	if naive.Median <= test.Median {
		t.Errorf("Naive median FFAR %v should exceed test data %v", naive.Median, test.Median)
	}
	// The LSTM's median FFAR should track the real data at least as well
	// as Naive's, within the sampling noise of the tuple set (the paper's
	// gaps are ~10x larger at its 500-tuple, million-VM scale).
	const noise = 0.004
	if math.Abs(lstm.Median-test.Median) >= math.Abs(naive.Median-test.Median)+noise {
		t.Errorf("LSTM median gap should not exceed Naive's: lstm %v naive %v test %v",
			lstm.Median, naive.Median, test.Median)
	}
	for _, r := range results {
		if len(r.FFARs) != azure().Scale.Tuples {
			t.Errorf("%s has %d packings", r.Source, len(r.FFARs))
		}
	}
}

// TestTenXScaling checks the §6.2 variation: 10x arrival scaling
// produces ~10x the VMs while preserving the reuse-distance shape.
func TestTenXScaling(t *testing.T) {
	for _, r := range results(t).Clouds {
		res := r.TenX
		if res.VMRatio < 6 || res.VMRatio > 15 {
			t.Errorf("%s: 10x scaling produced VM ratio %v", r.Cloud, res.VMRatio)
		}
		// Bucket-0 reuse proportion should be within a few points.
		if math.Abs(res.Reuse1x[0]-res.Reuse10x[0]) > 0.15 {
			t.Errorf("%s: reuse shape changed under 10x: %v vs %v", r.Cloud, res.Reuse1x[0], res.Reuse10x[0])
		}
	}
}

// TestHuaweiUniformNLL pins the 259-flavor vocabulary: uniform NLL is
// ln(260) = 5.56, matching Table 2's 5.55.
func TestHuaweiUniformNLL(t *testing.T) {
	uni := byName(huaweiResults(t).Table2, func(r Table2Row) string { return r.System })["Uniform"]
	if math.Abs(uni.NLL-math.Log(260)) > 1e-9 {
		t.Fatalf("uniform NLL %v != ln260", uni.NLL)
	}
}

// TestFigure8Shape checks the Huawei capacity result: the LSTM (with DOH
// sampling) covers more of the true workload than SimpleBatch, which is
// biased by the whole-history distributions under the planted regime
// change.
func TestFigure8Shape(t *testing.T) {
	cov := byName(huaweiResults(t).Figure8, func(r CapacityResult) string { return r.Generator })
	// The robust Huawei claims at this scale: the LSTM far outcovers
	// Naive, stays within noise of SimpleBatch (it clearly wins at the
	// paper's scale), and the DOH-sampling ablation matters (the paper's
	// 92.8% vs 61.9%).
	lstm := cov["LSTM"].Coverage
	if naive := cov["Naive"].Coverage; lstm <= naive {
		t.Errorf("LSTM coverage %v should beat Naive %v", lstm, naive)
	}
	if simple := cov["SimpleBatch"].Coverage; lstm < simple-0.1 {
		t.Errorf("LSTM coverage %v should not trail SimpleBatch %v under regime change", lstm, simple)
	}
	if noDOH := cov["LSTM (no DOH sampling)"].Coverage; lstm <= noDOH {
		t.Errorf("DOH sampling should improve coverage: %v vs %v", lstm, noDOH)
	}
}

// TestTable4SurvivalAllocs pins the pooled-curve memory discipline of
// the Table 4 sweep: survival curves are converted once per KM table
// and once per teacher-forced subject (one shared slab), never per
// (subject, grid-time) sample. Before the SurvivalCurveAt refactor a
// single Table4 call allocated ~19 GB across ~11.7M allocations; the
// pooled path measures ~8k allocs / ~6 MB, and the budget below sits
// two orders of magnitude above that but two under the broken state,
// so any reintroduction of per-sample conversion trips it immediately.
func TestTable4SurvivalAllocs(t *testing.T) {
	c := azure()
	c.Model() // fit outside the measurement (the record may have already)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Table4(c)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Table4: %d allocs, %.1f MB", allocs, float64(bytes)/(1<<20))
	if allocs > 100_000 {
		t.Errorf("Table4 allocations = %d, budget 100k: per-sample curve conversion is back?", allocs)
	}
	if bytes > 100<<20 {
		t.Errorf("Table4 allocated %.1f MB, budget 100 MB: per-sample curve conversion is back?", float64(bytes)/(1<<20))
	}
}

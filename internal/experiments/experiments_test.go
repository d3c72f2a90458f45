package experiments

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	azureOnce sync.Once
	azureC    *Cloud

	huaweiOnce sync.Once
	huaweiC    *Cloud
)

func azure(t *testing.T) *Cloud {
	t.Helper()
	azureOnce.Do(func() { azureC = NewCloud(Azure, SmallScale()) })
	return azureC
}

// huaweiScale trims the sampling load for the Huawei tests: the
// 259-flavor vocabulary makes each LSTM step ~5x more expensive than
// Azure's.
func huaweiScale() Scale {
	s := SmallScale()
	s.Samples = 12
	s.Tuples = 40
	return s
}

func huawei(t *testing.T) *Cloud {
	t.Helper()
	huaweiOnce.Do(func() { huaweiC = NewCloud(Huawei, huaweiScale()) })
	return huaweiC
}

func TestTable1(t *testing.T) {
	rows := Table1(azure(t))
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Cloud != "Azure" || r.TrainVMs == 0 || r.TestVMs == 0 {
		t.Fatalf("row = %+v", r)
	}
	if r.TrainDays <= r.TestDays {
		t.Fatalf("train window should be longest: %+v", r)
	}
}

// TestFigure4DOHSampling checks the §5.1 Azure result shape: sampling
// DOH days yields (weakly) better coverage than always encoding the last
// day, and coverage with sampling is reasonably high.
func TestFigure4DOHSampling(t *testing.T) {
	sampled, lastDay := Figure4(azure(t))
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
	if len(sampled.Intervals) != azure(t).TestW.Periods() {
		t.Errorf("interval count %d", len(sampled.Intervals))
	}
}

// TestFigure6NaivePoissonUndercovers checks the Figure 6 shape: a
// Poisson model of individual VM arrivals dramatically underestimates
// variance relative to the batch model.
func TestFigure6NaivePoissonUndercovers(t *testing.T) {
	noDOH, withDOH := Figure6(azure(t))
	batchSampled, _ := Figure4(azure(t))
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
	rows := Table2(azure(t))
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(name string) Table2Row {
		for _, r := range rows {
			if r.System == name {
				return r
			}
		}
		t.Fatalf("missing system %q", name)
		return Table2Row{}
	}
	uni, multi, repeat, lstm := get("Uniform"), get("Multinomial"), get("RepeatFlav"), get("LSTM")
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

// TestTable3Shape checks the Table 3 ordering on Azure.
func TestTable3Shape(t *testing.T) {
	rows := Table3(azure(t))
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(name string) Table3Row {
		for _, r := range rows {
			if r.System == name {
				return r
			}
		}
		t.Fatalf("missing system %q", name)
		return Table3Row{}
	}
	coin, km, pf, repeat, lstm := get("CoinFlip"), get("Overall KM"),
		get("Per-flavor KM"), get("RepeatLifetime"), get("LSTM")
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
}

// TestTable4Shape checks the Survival-MSE orderings: LSTM halves the KM
// error; bins/interpolation matter far less than the model; CDI helps
// the LSTM.
func TestTable4Shape(t *testing.T) {
	rows := Table4(azure(t))
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
	rows := CensoringAblation(azure(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BCE <= 0 || math.IsNaN(r.BCE) {
			t.Errorf("variant %s BCE %v", r.Variant, r.BCE)
		}
	}
}

// TestFigure7Shape checks the §6.1 Azure result: the batch-aware
// generators cover far more of the true workload than Naive.
func TestFigure7Shape(t *testing.T) {
	results := Figure7(azure(t))
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Generator] = r.Coverage
	}
	if byName["LSTM"] <= byName["Naive"] {
		t.Errorf("LSTM coverage %v should beat Naive %v", byName["LSTM"], byName["Naive"])
	}
	if byName["Naive"] > 0.5 {
		t.Errorf("Naive coverage %v suspiciously high (paper: ~0%%)", byName["Naive"])
	}
	if byName["LSTM"] < 0.5 {
		t.Errorf("LSTM coverage %v too low (paper: 83%%)", byName["LSTM"])
	}
}

// TestFigure9Shape checks the §6.2 reuse-distance result: the LSTM's
// short-distance reuse (bucket 0) tracks the real data much more closely
// than Naive, which shows far less reuse.
func TestFigure9Shape(t *testing.T) {
	actual, results := Figure9(azure(t))
	byName := map[string]ReuseResult{}
	for _, r := range results {
		byName[r.Generator] = r
	}
	lstmGap := math.Abs(byName["LSTM"].Mean[0] - actual[0])
	naiveGap := math.Abs(byName["Naive"].Mean[0] - actual[0])
	if lstmGap >= naiveGap {
		t.Errorf("LSTM bucket-0 gap %v should beat Naive %v (actual %v, lstm %v, naive %v)",
			lstmGap, naiveGap, actual[0], byName["LSTM"].Mean[0], byName["Naive"].Mean[0])
	}
	if byName["Naive"].Mean[0] >= actual[0] {
		t.Errorf("Naive should show less reuse than actual: %v vs %v",
			byName["Naive"].Mean[0], actual[0])
	}
}

// TestTable5Shape checks the packing result: Naive traces pack easier
// (higher FFAR) than real data, and the LSTM's median FFAR is closer to
// the real data's than Naive's is.
func TestTable5Shape(t *testing.T) {
	results := Table5(azure(t))
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]PackingResult{}
	for _, r := range results {
		byName[r.Source] = r
	}
	test := byName["Test data"]
	naive := byName["Naive"]
	lstm := byName["LSTM"]
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
		if len(r.FFARs) != azure(t).Scale.Tuples {
			t.Errorf("%s has %d packings", r.Source, len(r.FFARs))
		}
	}
}

// TestTenXScaling checks the §6.2 variation: 10x arrival scaling
// produces ~10x the VMs while preserving the reuse-distance shape.
func TestTenXScaling(t *testing.T) {
	res := TenX(azure(t))
	if res.VMRatio < 6 || res.VMRatio > 15 {
		t.Errorf("10x scaling produced VM ratio %v", res.VMRatio)
	}
	// Bucket-0 reuse proportion should be within a few points.
	if math.Abs(res.Reuse1x[0]-res.Reuse10x[0]) > 0.15 {
		t.Errorf("reuse shape changed under 10x: %v vs %v", res.Reuse1x[0], res.Reuse10x[0])
	}
}

// TestHuaweiUniformNLL pins the 259-flavor vocabulary: uniform NLL is
// ln(260) = 5.56, matching Table 2's 5.55. Evaluated directly so the
// test does not need to train the Huawei LSTM.
func TestHuaweiUniformNLL(t *testing.T) {
	c := huawei(t)
	toks := core.FlavorTokens(c.Test)
	ev := core.EvaluateFlavor(&uniformFlavor{k: c.Train.Flavors.K()}, toks, c.TestW.Start)
	if math.Abs(ev.NLL-math.Log(260)) > 1e-9 {
		t.Fatalf("uniform NLL %v != ln260", ev.NLL)
	}
}

// TestFigure8Shape checks the Huawei capacity result: the LSTM (with DOH
// sampling) covers more of the true workload than SimpleBatch, which is
// biased by the whole-history distributions under the planted regime
// change.
func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains the Huawei model and samples traces")
	}
	c := huawei(t)
	results := Figure8(c)
	byName := map[string]float64{}
	for _, r := range results {
		byName[r.Generator] = r.Coverage
	}
	// The robust Huawei claims at this scale: the LSTM far outcovers
	// Naive, stays within noise of SimpleBatch (it clearly wins at the
	// paper's scale), and the DOH-sampling ablation matters (the paper's
	// 92.8% vs 61.9%).
	if byName["LSTM"] <= byName["Naive"] {
		t.Errorf("LSTM coverage %v should beat Naive %v", byName["LSTM"], byName["Naive"])
	}
	if byName["LSTM"] < byName["SimpleBatch"]-0.1 {
		t.Errorf("LSTM coverage %v should not trail SimpleBatch %v under regime change",
			byName["LSTM"], byName["SimpleBatch"])
	}
	if byName["LSTM"] <= byName["LSTM (no DOH sampling)"] {
		t.Errorf("DOH sampling should improve coverage: %v vs %v",
			byName["LSTM"], byName["LSTM (no DOH sampling)"])
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
	c := azure(t)
	Table4(c) // warm caches (model training, trace slices) outside the measurement
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

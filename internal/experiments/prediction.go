package experiments

import (
	"slices"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// ArrivalCoverage is the result of an arrival-forecast experiment
// (Figures 4, 5 and 6): per-period prediction intervals over the test
// window and their coverage of the true counts.
type ArrivalCoverage struct {
	Cloud     string
	Kind      string // "batch" or "VM"
	DOH       string // "sampled" or "last-day" or "none"
	Intervals []metrics.Interval
	Actual    []float64
	Coverage  float64
}

// sampleArrivals is the §5.1 coverage metric behind Figures 4–6 and the
// DOH grid search: it draws, samples times from g, m's count for every
// period of the held-out trace held (whose first period is absolute
// period offset; the DOH day is sampled per draw), and returns the 90%
// prediction intervals, held's counts of what m models (batches or VMs)
// and their coverage.
func sampleArrivals(m *core.ArrivalModel, held *trace.Trace, offset, samples int, g *rng.RNG) ([]metrics.Interval, []float64, float64) {
	var counts []int
	if m.Kind == core.BatchArrivals {
		counts = held.BatchCounts()
	} else {
		counts = held.ArrivalCounts()
	}
	sampled := make([][]float64, samples)
	for s := range sampled {
		row := make([]float64, len(counts))
		for p := range row {
			row[p] = float64(m.SampleCount(g, offset+p))
		}
		sampled[s] = row
	}
	actual := make([]float64, len(counts))
	for p, v := range counts {
		actual[p] = float64(v)
	}
	iv := metrics.PredictionIntervals(sampled, 0.9)
	return iv, actual, metrics.Coverage(actual, iv)
}

// arrivalCoverage fits the arrival model and covers the test window
// (§5.1: 500 samples per period).
func arrivalCoverage(c *Cloud, kind core.ArrivalKind, useDOH bool, mode features.DOHMode) ArrivalCoverage {
	opt := core.ArrivalOptions{Kind: kind, UseDOH: useDOH,
		DOH: features.DOHSampler{Mode: mode, GeomP: 1.0 / 7.0}}
	m, err := core.TrainArrival(c.Train, opt)
	if err != nil {
		panic(err)
	}
	res := ArrivalCoverage{Cloud: c.ID.String()}
	res.Intervals, res.Actual, res.Coverage = sampleArrivals(m, c.Test, c.TestW.Start, c.Scale.Samples, rng.New(c.Scale.Seed+77))
	if kind == core.BatchArrivals {
		res.Kind = "batch"
	} else {
		res.Kind = "VM"
	}
	switch {
	case !useDOH:
		res.DOH = "none"
	case mode == features.DOHGeometric:
		res.DOH = "sampled"
	default:
		res.DOH = "last-day"
	}
	return res
}

// Figure4 reproduces the Azure batch-arrival coverage figure, including
// the last-day-DOH ablation discussed in §5.1 (82.5% vs 56.5% in the
// paper).
func Figure4(c *Cloud) (sampled, lastDay ArrivalCoverage) {
	return arrivalCoverage(c, core.BatchArrivals, true, features.DOHGeometric),
		arrivalCoverage(c, core.BatchArrivals, true, features.DOHLastDay)
}

// Figure5 is the Huawei variant of Figure 4 (94.5% vs 95.0%).
func Figure5(c *Cloud) (sampled, lastDay ArrivalCoverage) {
	return Figure4(c)
}

// Figure6 reproduces the individual-VM-arrival Poisson experiment: raw
// VM counts without DOH features (the traditional model) and with
// sampled DOH days (18% → 51.4% on Azure; 52.9% → 68.2% on Huawei).
func Figure6(c *Cloud) (noDOH, withDOH ArrivalCoverage) {
	return arrivalCoverage(c, core.VMArrivals, false, features.DOHLastDay),
		arrivalCoverage(c, core.VMArrivals, true, features.DOHGeometric)
}

// Table2Row is one system row of Table 2.
type Table2Row struct {
	System     string
	NLL        float64
	HasNLL     bool
	OneBestErr float64
}

// Table2 evaluates the four flavor predictors on the test sequence.
func Table2(c *Cloud) []Table2Row {
	toks := core.FlavorTokens(c.Test)
	preds := []core.FlavorPredictor{
		&uniformFlavor{k: c.Train.Flavors.K()},
		newMultinomialFlavor(c.Train),
		newRepeatFlavor(c.Train),
		core.NewLSTMFlavorPredictor(c.Model().Flavor),
	}
	rows := make([]Table2Row, 0, len(preds))
	for _, p := range preds {
		ev := core.EvaluateFlavor(p, toks, c.TestW.Start)
		rows = append(rows, Table2Row{
			System: p.Name(), NLL: ev.NLL, HasNLL: ev.HasNLL, OneBestErr: ev.OneBestErr,
		})
	}
	return rows
}

// Table3Row is one system row of Table 3.
type Table3Row struct {
	System     string
	BCE        float64
	HasBCE     bool
	OneBestErr float64
}

// Table3 evaluates the five lifetime predictors on the test sequence.
func Table3(c *Cloud) []Table3Row {
	steps := core.LifetimeSteps(c.Test, c.Bins)
	preds := []core.LifetimePredictor{
		&coinFlipLifetime{j: c.Bins.J()},
		newKMLifetime(c.Train, c.Bins),
		newPerFlavorKMLifetime(c.Train, c.Bins),
		newRepeatLifetime(c.Train, c.Bins),
		core.NewLSTMLifetimePredictor(c.Model().Lifetime),
	}
	rows := make([]Table3Row, 0, len(preds))
	for _, p := range preds {
		ev := core.EvaluateLifetime(p, steps, c.Bins, c.TestW.Start)
		rows = append(rows, Table3Row{
			System: p.Name(), BCE: ev.BCE, HasBCE: ev.HasBCE, OneBestErr: ev.OneBestErr,
		})
	}
	return rows
}

// Table4Row is one row of the continuous-domain Survival-MSE table.
type Table4Row struct {
	System         string
	Discretization string
	Interpolation  string
	SurvivalMSE    float64
}

// Table4 reproduces the Survival-MSE evaluation: KM with 47 and 495
// bins under stepped and CDI interpolation, continuous-time KM, and the
// LSTM with 47 bins under both interpolations. Curves are evaluated on
// an hourly grid out to 20 days.
func Table4(c *Cloud) []Table4Row {
	const (
		gridStep = 3600.0
		horizon  = 20 * 86400.0
	)
	// The "true survival function for each job" needs the true lifetime;
	// since the ground truth simulator is ours, extend the observation
	// horizon far past the test window so virtually no test job is
	// censored (the paper's Azure test window, at 5.7 days with 3.2%
	// censoring, has the same property at its native scale).
	extended := c.Full.Slice(c.TestW, 30*86400)
	obs, trainObs := observations(extended), observations(c.Train)
	var rows []Table4Row
	addKM := func(bins survival.Bins, disc string, interp survival.Interpolation, iname string) {
		// One curve conversion per table, not one per (subject, grid
		// time): the grid sweep below evaluates the same hazard millions
		// of times.
		s := survival.HazardToSurvival(survival.KaplanMeier(trainObs, bins))
		mse := survival.SurvivalMSE(func(_ int, t float64) float64 {
			return survival.SurvivalCurveAt(t, s, bins, interp)
		}, obs, gridStep, horizon)
		rows = append(rows, Table4Row{System: "KM", Discretization: disc, Interpolation: iname, SurvivalMSE: mse})
	}
	coarse := c.Bins
	fine := survival.FineBins()
	addKM(coarse, "47 bins", survival.Stepped, "Stepped")
	addKM(fine, "495 bins", survival.Stepped, "Stepped")
	addKM(coarse, "47 bins", survival.CDI, "CDI")
	addKM(fine, "495 bins", survival.CDI, "CDI")

	ckm := survival.NewContinuousKM(trainObs)
	mse := survival.SurvivalMSE(func(_ int, t float64) float64 { return ckm.At(t) }, obs, gridStep, horizon)
	rows = append(rows, Table4Row{System: "KM", Discretization: "Continuous", Interpolation: "N/A", SurvivalMSE: mse})

	// Teacher-forced inputs also come from the extended view: with the
	// paper's ~3% censoring the model sees essentially true previous
	// lifetimes, which the 1-day scaled window would otherwise hide.
	steps := core.LifetimeSteps(extended, c.Bins)
	hazards := teacherForcedHazards(c.Model().Lifetime, steps, c.TestW.Start)
	// Convert every subject's hazard to its survival curve exactly once
	// (one slab, J floats per subject) instead of per grid time — this
	// was ~19 GB of duplicate HazardToSurvival allocations per Table4
	// call, pinned by TestTable4SurvivalAllocs.
	j := c.Bins.J()
	slab := make([]float64, len(hazards)*j)
	curves := make([][]float64, len(hazards))
	for i, h := range hazards {
		curves[i] = survival.HazardToSurvivalInto(slab[i*j:(i+1)*j], h)
	}
	for _, spec := range []struct {
		interp survival.Interpolation
		name   string
	}{{survival.Stepped, "Stepped"}, {survival.CDI, "CDI"}} {
		interp := spec.interp
		mse := survival.SurvivalMSE(func(i int, t float64) float64 {
			return survival.SurvivalCurveAt(t, curves[i], c.Bins, interp)
		}, obs, gridStep, horizon)
		rows = append(rows, Table4Row{System: "LSTM", Discretization: "47 bins", Interpolation: spec.name, SurvivalMSE: mse})
	}
	return rows
}

// teacherForcedHazards is the hazard LSTM's hazard for every step of a
// test sequence whose first period is absolute period offset, under
// teacher forcing — the per-job survival curves of the Table 4
// Survival-MSE evaluation.
func teacherForcedHazards(m *core.LifetimeModel, steps []core.LifetimeStep, offset int) [][]float64 {
	p := core.NewLSTMLifetimePredictor(m)
	out := make([][]float64, len(steps))
	for i, step := range steps {
		// Hazard reuses one buffer; clone to keep every step.
		out[i] = slices.Clone(p.Hazard(step, offset+step.Period))
		p.Observe(step)
	}
	return out
}

// CensoringRow is one row of the §5.3 censoring-handling ablation.
type CensoringRow struct {
	Variant string
	BCE     float64
}

// CensoringAblation compares the three KM censoring treatments discussed
// in §5.3: proper censoring-aware KM, discarding censored VMs, and
// treating censoring times as terminations.
func CensoringAblation(c *Cloud) []CensoringRow {
	trainObs := observations(c.Train)
	steps := core.LifetimeSteps(c.Test, c.Bins)
	variants := []struct {
		name string
		h    []float64
	}{
		{"censoring-aware", survival.KaplanMeier(trainObs, c.Bins)},
		{"ignore-censored", survival.KaplanMeierIgnoreCensored(trainObs, c.Bins)},
		{"censored-as-events", survival.KaplanMeierCensoredAsEvents(trainObs, c.Bins)},
	}
	rows := make([]CensoringRow, 0, len(variants))
	for _, v := range variants {
		pred := &fixedHazard{name: v.name, h: v.h}
		ev := core.EvaluateLifetime(pred, steps, c.Bins, c.TestW.Start)
		rows = append(rows, CensoringRow{Variant: v.name, BCE: ev.BCE})
	}
	return rows
}

// fixedHazard is a LifetimePredictor with a constant hazard.
type fixedHazard struct {
	name string
	h    []float64
}

func (f *fixedHazard) Name() string                            { return f.name }
func (f *fixedHazard) Reset()                                  {}
func (f *fixedHazard) Hazard(core.LifetimeStep, int) []float64 { return f.h }
func (f *fixedHazard) PredictBin(core.LifetimeStep) int        { return 0 }
func (f *fixedHazard) Observe(core.LifetimeStep)               {}

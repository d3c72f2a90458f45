package experiments

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/rng"
)

// TestForecastVsGenerative checks the §7 contrast: the generative model
// produces more accurate point forecasts of total CPUs (lower MAPE) than
// the classical aggregate-series forecasters, because it models the
// job-level process rather than a single aggregate.
func TestForecastVsGenerative(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy: trains the LSTM and samples traces")
	}
	rows := ForecastVsGenerative(azure(t))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ForecastRow{}
	for _, r := range rows {
		byName[r.Method] = r
		if r.Coverage < 0 || r.Coverage > 1 {
			t.Errorf("%s coverage %v out of range", r.Method, r.Coverage)
		}
	}
	lstm := byName["Generative LSTM"]
	for _, classical := range []string{"SeasonalNaive", "HoltWinters"} {
		if lstm.MAPE >= byName[classical].MAPE {
			t.Errorf("generative MAPE %v should beat %s %v",
				lstm.MAPE, classical, byName[classical].MAPE)
		}
	}
}

// seasonalSeries builds level + trend + sinusoidal season + noise.
func seasonalSeries(n, period int, level, trend, amp, noise float64, g *rng.RNG) []float64 {
	out := make([]float64, n)
	for t := range out {
		season := amp * math.Sin(2*math.Pi*float64(t%period)/float64(period))
		out[t] = level + trend*float64(t) + season + noise*g.NormFloat64()
	}
	return out
}

func TestSeasonalNaiveExactOnPureSeason(t *testing.T) {
	s := &seasonalNaive{period: 4}
	series := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	if err := s.fit(series); err != nil {
		t.Fatal(err)
	}
	pred := s.forecast(6)
	want := []float64{1, 2, 3, 4, 1, 2}
	for i, w := range want {
		if pred[i] != w {
			t.Fatalf("pred[%d] = %v, want %v", i, pred[i], w)
		}
	}
}

func TestSeasonalNaiveErrors(t *testing.T) {
	if err := (&seasonalNaive{}).fit([]float64{1}); err == nil {
		t.Fatal("expected period error")
	}
	if err := (&seasonalNaive{period: 4}).fit([]float64{1, 2}); err == nil {
		t.Fatal("expected short-series error")
	}
}

func TestHoltWintersTracksTrendAndSeason(t *testing.T) {
	g := rng.New(1)
	period := 24
	series := seasonalSeries(period*10, period, 100, 0.5, 20, 1, g)
	hw := &holtWinters{period: period}
	if err := hw.fit(series); err != nil {
		t.Fatal(err)
	}
	pred := hw.forecast(period)
	truth := seasonalSeries(period*11, period, 100, 0.5, 20, 0, rng.New(2))[period*10:]
	if m := mape(pred, truth); m > 0.05 {
		t.Fatalf("Holt-Winters MAPE %v too high", m)
	}
}

func TestHoltWintersBeatsSeasonalNaiveUnderTrend(t *testing.T) {
	g := rng.New(3)
	period := 24
	series := seasonalSeries(period*8, period, 50, 1.0, 10, 0.5, g)
	truth := seasonalSeries(period*9, period, 50, 1.0, 10, 0, rng.New(4))[period*8:]

	hw := &holtWinters{period: period}
	if err := hw.fit(series); err != nil {
		t.Fatal(err)
	}
	sn := &seasonalNaive{period: period}
	if err := sn.fit(series); err != nil {
		t.Fatal(err)
	}
	if mape(hw.forecast(period), truth) >= mape(sn.forecast(period), truth) {
		t.Fatal("Holt-Winters should beat seasonal-naive on a trending series")
	}
}

// TestHoltWintersForecastsInPhase: a noise-free periodic series whose
// length is a whole number of seasons continues as itself. A forecast
// indexing the season of step i+1 instead of step n+i comes back
// rotated by one ([2 3 4 1] here).
func TestHoltWintersForecastsInPhase(t *testing.T) {
	season := []float64{1, 2, 3, 4}
	var series []float64
	for i := 0; i < 3; i++ {
		series = append(series, season...)
	}
	hw := &holtWinters{period: len(season)}
	if err := hw.fit(series); err != nil {
		t.Fatal(err)
	}
	for i, v := range hw.forecast(2 * len(season)) {
		if want := season[i%len(season)]; math.Abs(v-want) > 1e-9 {
			t.Fatalf("forecast[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestHoltWintersErrors(t *testing.T) {
	if err := (&holtWinters{}).fit([]float64{1}); err == nil {
		t.Fatal("expected period error")
	}
	if err := (&holtWinters{period: 4}).fit([]float64{1, 2, 3, 4}); err == nil {
		t.Fatal("expected two-season error")
	}
}

func TestForecastBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&holtWinters{period: 2}).forecast(2)
}

func TestProbabilisticCoverage(t *testing.T) {
	g := rng.New(5)
	period := 24
	series := seasonalSeries(period*12, period, 100, 0, 15, 3, g)
	horizon := period
	p := &probabilistic{base: &holtWinters{period: period}, level: 0.9}
	if err := p.fit(series, horizon); err != nil {
		t.Fatal(err)
	}
	iv := p.intervals(horizon)
	if len(iv) != horizon {
		t.Fatalf("intervals %d", len(iv))
	}
	truth := seasonalSeries(period*13, period, 100, 0, 15, 3, rng.New(6))[period*12:]
	cov := metrics.Coverage(truth, iv)
	if cov < 0.6 {
		t.Fatalf("coverage %v too low for a stationary series", cov)
	}
	for _, i := range iv {
		if i.Lo > i.Median || i.Median > i.Hi {
			t.Fatalf("interval not ordered: %+v", i)
		}
		if i.Lo < 0 {
			t.Fatal("negative workload bound")
		}
	}
}

func TestProbabilisticErrors(t *testing.T) {
	p := &probabilistic{base: &seasonalNaive{period: 4}, level: 1.5}
	if err := p.fit(make([]float64, 40), 4); err == nil {
		t.Fatal("expected level error")
	}
	p2 := &probabilistic{base: &seasonalNaive{period: 4}, level: 0.9}
	if err := p2.fit([]float64{1, 2, 3, 4}, 4); err == nil {
		t.Fatal("expected too-short error")
	}
}

func TestIntervalsBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&probabilistic{base: &seasonalNaive{period: 2}, level: 0.9}).intervals(2)
}

func TestMAPE(t *testing.T) {
	if m := mape([]float64{110, 90}, []float64{100, 100}); math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v", m)
	}
	if mape([]float64{5}, []float64{0}) != 0 {
		t.Fatal("zero actuals should be skipped")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mape([]float64{1}, []float64{1, 2})
}

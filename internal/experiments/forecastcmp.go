package experiments

import (
	"fmt"
	"math"

	"repro/internal/capacity"
	"repro/internal/metrics"
)

// ForecastRow is one method's row in the forecasting-vs-generative
// comparison (§7 "Workload Forecasting" contrast).
type ForecastRow struct {
	Method   string
	Coverage float64
	MAPE     float64
}

// forecastVsGenerative compares classical time-series forecasters of the
// aggregate total-CPU series against the generative LSTM's
// trace-sampled prediction intervals on the same test window and
// coverage metric: lstm, Figure 7's LSTM row. The forecasters see the
// observed aggregate series up to the test window; the generative model
// sees individual jobs.
func forecastVsGenerative(c *Cloud, lstm CapacityResult) []ForecastRow {
	full := capacity.FullSeries(c.Full)
	trainSeries := full[:c.TestW.Start]
	actual := full[c.TestW.Start:c.TestW.End]
	horizon := c.TestW.Periods()

	var rows []ForecastRow
	period := 288 // one day of 5-minute periods
	for _, base := range []forecaster{
		&seasonalNaive{period: period},
		&holtWinters{period: period},
	} {
		p := &probabilistic{base: base, level: 0.9}
		if err := p.fit(trainSeries, horizon); err != nil {
			rows = append(rows, ForecastRow{Method: base.name(), Coverage: -1})
			continue
		}
		iv := p.intervals(horizon)
		point := make([]float64, horizon)
		for i, v := range iv {
			point[i] = v.Median
		}
		rows = append(rows, ForecastRow{
			Method:   base.name(),
			Coverage: metrics.Coverage(actual, iv),
			MAPE:     mape(point, actual),
		})
	}

	// Generative model on the same footing: sampled traces plus the
	// carried-over load.
	med := make([]float64, horizon)
	for i, iv := range lstm.Forecast.Intervals {
		med[i] = iv.Median
	}
	rows = append(rows, ForecastRow{
		Method:   "Generative LSTM",
		Coverage: lstm.Coverage,
		MAPE:     mape(med, lstm.Forecast.Actual),
	})
	return rows
}

// The classical forecasters of aggregate workload the comparison
// contrasts with the generative approach: a seasonal-naive forecaster
// and Holt-Winters triple exponential smoothing with additive
// seasonality, both made probabilistic by empirical residual quantiles
// so they are scored on the generative model's coverage metric.

// forecaster produces h-step-ahead point forecasts from a history.
type forecaster interface {
	name() string
	// fit ingests the training series.
	fit(series []float64) error
	// forecast returns point predictions for the next h steps.
	forecast(h int) []float64
}

// seasonalNaive predicts the value from one season ago.
type seasonalNaive struct {
	period  int // season length in steps
	history []float64
}

func (s *seasonalNaive) name() string { return "SeasonalNaive" }

func (s *seasonalNaive) fit(series []float64) error {
	if s.period <= 0 {
		return fmt.Errorf("experiments: seasonal-naive needs period > 0")
	}
	if len(series) < s.period {
		return fmt.Errorf("experiments: series length %d shorter than period %d", len(series), s.period)
	}
	s.history = append([]float64(nil), series...)
	return nil
}

func (s *seasonalNaive) forecast(h int) []float64 {
	out := make([]float64, h)
	n := len(s.history)
	for i := 0; i < h; i++ {
		out[i] = s.history[n-s.period+(i%s.period)]
	}
	return out
}

// hwAlpha, hwBeta and hwGamma are Holt-Winters' level, trend and
// season smoothing factors; variables, so 1-hwAlpha is a float64
// subtraction (exact constant arithmetic could round it differently).
var hwAlpha, hwBeta, hwGamma = 0.3, 0.05, 0.2

// holtWinters is additive triple exponential smoothing.
type holtWinters struct {
	period       int
	level, trend float64
	seasonal     []float64
	n            int // length of the fitted series; 0 before fit
}

func (hw *holtWinters) name() string { return "HoltWinters" }

func (hw *holtWinters) fit(series []float64) error {
	m := hw.period
	if m <= 0 {
		return fmt.Errorf("experiments: Holt-Winters needs period > 0")
	}
	if len(series) < 2*m {
		return fmt.Errorf("experiments: need at least two seasons (%d), got %d", 2*m, len(series))
	}
	// Initialize from the first two seasons.
	var s1, s2 float64
	for i := 0; i < m; i++ {
		s1 += series[i]
		s2 += series[m+i]
	}
	s1 /= float64(m)
	s2 /= float64(m)
	hw.level = s1
	hw.trend = (s2 - s1) / float64(m)
	hw.seasonal = make([]float64, m)
	for i := 0; i < m; i++ {
		hw.seasonal[i] = series[i] - s1
	}
	// Smooth through the series.
	for t, y := range series {
		si := t % m
		prevLevel := hw.level
		hw.level = hwAlpha*(y-hw.seasonal[si]) + (1-hwAlpha)*(hw.level+hw.trend)
		hw.trend = hwBeta*(hw.level-prevLevel) + (1-hwBeta)*hw.trend
		hw.seasonal[si] = hwGamma*(y-hw.level) + (1-hwGamma)*hw.seasonal[si]
	}
	hw.n = len(series)
	return nil
}

// forecast continues the series: step n+i, i+1 steps past the last
// observation, is in season (n+i) mod period.
func (hw *holtWinters) forecast(h int) []float64 {
	if hw.n == 0 {
		panic("experiments: Holt-Winters forecast before fit")
	}
	m := len(hw.seasonal)
	out := make([]float64, h)
	for i := 0; i < h; i++ {
		out[i] = hw.level + float64(i+1)*hw.trend + hw.seasonal[(hw.n+i)%m]
	}
	return out
}

// probabilistic wraps a point forecaster with empirical residual
// quantiles estimated by a backtest over the training series, yielding
// prediction intervals comparable to the generative model's.
type probabilistic struct {
	base  forecaster
	level float64 // central interval mass (e.g. 0.9)

	loQ, hiQ float64 // residual quantiles
	fitted   bool
}

// backtestFolds is the number of held-out folds probabilistic.fit
// backtests.
const backtestFolds = 4

// fit fits the base forecaster on the full series and estimates residual
// quantiles from rolling-origin backtests.
func (p *probabilistic) fit(series []float64, horizon int) error {
	if p.level <= 0 || p.level >= 1 {
		return fmt.Errorf("experiments: level %v outside (0,1)", p.level)
	}
	var residuals []float64
	for f := 1; f <= backtestFolds; f++ {
		cut := len(series) - f*horizon
		if cut < horizon {
			break
		}
		if err := p.base.fit(series[:cut]); err != nil {
			return fmt.Errorf("experiments: backtest fold %d: %w", f, err)
		}
		pred := p.base.forecast(horizon)
		for i := 0; i < horizon && cut+i < len(series); i++ {
			residuals = append(residuals, series[cut+i]-pred[i])
		}
	}
	if len(residuals) == 0 {
		return fmt.Errorf("experiments: series too short for backtesting")
	}
	alpha := (1 - p.level) / 2
	p.loQ = metrics.Quantile(residuals, alpha)
	p.hiQ = metrics.Quantile(residuals, 1-alpha)
	if err := p.base.fit(series); err != nil {
		return err
	}
	p.fitted = true
	return nil
}

// intervals returns the h-step-ahead prediction intervals.
func (p *probabilistic) intervals(h int) []metrics.Interval {
	if !p.fitted {
		panic("experiments: intervals before fit")
	}
	pred := p.base.forecast(h)
	out := make([]metrics.Interval, h)
	for i, v := range pred {
		out[i] = metrics.Interval{Lo: v + p.loQ, Median: v, Hi: v + p.hiQ}
		if out[i].Lo < 0 {
			out[i].Lo = 0 // workload cannot be negative
		}
	}
	return out
}

// mape returns the mean absolute percentage error of pred vs actual,
// skipping zero actuals.
func mape(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("experiments: MAPE length mismatch %d vs %d", len(pred), len(actual)))
	}
	var sum float64
	var n int
	for i, a := range actual {
		if a == 0 {
			continue
		}
		sum += math.Abs(pred[i]-a) / math.Abs(a)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Package metrics implements the evaluation measures used throughout the
// paper: prediction-interval coverage, empirical quantiles, and simple
// distribution summaries.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-th empirical quantile (0 <= q <= 1) of xs using
// linear interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("metrics: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Interval is a per-point prediction interval with a median.
type Interval struct {
	Lo, Median, Hi float64
}

// PredictionIntervals computes per-index central prediction intervals of
// the given coverage level from samples[s][i] (sample s, index i).
func PredictionIntervals(samples [][]float64, level float64) []Interval {
	if len(samples) == 0 {
		panic("metrics: no samples")
	}
	n := len(samples[0])
	alpha := (1 - level) / 2
	out := make([]Interval, n)
	col := make([]float64, len(samples))
	for i := 0; i < n; i++ {
		for s, row := range samples {
			if len(row) != n {
				panic(fmt.Sprintf("metrics: sample %d has %d points, want %d", s, len(row), n))
			}
			col[s] = row[i]
		}
		out[i] = Interval{
			Lo:     Quantile(col, alpha),
			Median: Quantile(col, 0.5),
			Hi:     Quantile(col, 1-alpha),
		}
	}
	return out
}

// Coverage returns the fraction of actual values falling inside their
// prediction interval (inclusive).
func Coverage(actual []float64, intervals []Interval) float64 {
	if len(actual) != len(intervals) {
		panic(fmt.Sprintf("metrics: %d actuals vs %d intervals", len(actual), len(intervals)))
	}
	if len(actual) == 0 {
		return 0
	}
	hit := 0
	for i, v := range actual {
		if v >= intervals[i].Lo && v <= intervals[i].Hi {
			hit++
		}
	}
	return float64(hit) / float64(len(actual))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// CRPS estimates the continuous ranked probability score of an
// empirical forecast distribution (given by samples) against the
// observed value y, using the standard unbiased sample form
// E|X - y| - ½·E|X - X'|. Lower is better; CRPS generalizes absolute
// error to probabilistic forecasts.
func CRPS(samples []float64, y float64) float64 {
	n := len(samples)
	if n == 0 {
		panic("metrics: CRPS with no samples")
	}
	sorted := make([]float64, n)
	copy(sorted, samples)
	sort.Float64s(sorted)
	var term1 float64
	for _, x := range sorted {
		term1 += math.Abs(x - y)
	}
	term1 /= float64(n)
	// E|X - X'| over all pairs via the sorted-order identity:
	// Σ_i Σ_j |x_i - x_j| = 2 Σ_i (2i - n + 1) x_i for ascending x.
	var pairSum float64
	for i, x := range sorted {
		pairSum += float64(2*i-n+1) * x
	}
	term2 := 2 * pairSum / float64(n*n)
	return term1 - 0.5*term2
}

// MeanCRPS averages CRPS across a series: samples[s][i] is sample s of
// point i.
func MeanCRPS(samples [][]float64, actual []float64) float64 {
	if len(samples) == 0 {
		panic("metrics: MeanCRPS with no samples")
	}
	n := len(actual)
	col := make([]float64, len(samples))
	var total float64
	for i := 0; i < n; i++ {
		for s, row := range samples {
			if len(row) != n {
				panic(fmt.Sprintf("metrics: sample %d has %d points, want %d", s, len(row), n))
			}
			col[s] = row[i]
		}
		total += CRPS(col, actual[i])
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

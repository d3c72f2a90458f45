package main

import (
	"math"
	"sort"

	"repro/internal/metrics"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for empty input (a metric
// that does not apply to the workload).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, p/100)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailChunks is how many consecutive chunks of the window the tail
// percentile is taken over.
const tailChunks = 16

// chunkedPercentile cuts xs (in time order) into k consecutive chunks
// and returns the median of the chunks' p-th percentiles. A tail
// percentile of the whole window is at the mercy of the few seconds in
// which the host stalled; the median chunk is not. Measured on the
// reference host over ten runs, the spread of a p95 fell from 10% to 6%
// (serve_day) and from 19% to 13% (train_fit) against the plain p95,
// both host-corrected. With fewer than two samples per chunk it falls
// back to the plain percentile.
func chunkedPercentile(xs []float64, p float64, k int) float64 {
	n := len(xs)
	if n < 2*k {
		return percentile(xs, p)
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(xs[i*n/k:(i+1)*n/k], p)
	}
	return median(per)
}

func mean(xs []float64) float64 { return metrics.Mean(xs) }

// cv is the coefficient of variation (population sd / mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

// tailCandidates are the tail percentiles the harness is willing to
// report, ascending, in tenths of a percent.
var tailCandidates = []int{900, 950, 990, 999}

// highestPercentile picks the highest candidate percentile that still
// has at least ten samples beyond it among n samples (choosing-metrics
// §1). It returns 0 when even p90 is not supported (n < 100).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if n*(1000-p) >= 10*1000 {
			best = float64(p) / 10
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the driver uses for the
// run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i in 1..3
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// Package analysis provides workload characterization of traces: the
// arrival, batch, flavor, lifetime, and correlation statistics that the
// workload-analysis literature reports (§7 of the paper surveys it) and
// that this repository used to validate its synthetic ground truth
// against the properties the paper documents for the real clouds.
package analysis

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ArrivalStats characterizes the per-period arrival process.
type ArrivalStats struct {
	MeanPerPeriod float64
	CV            float64   // coefficient of variation (Poisson ⇒ 1/√mean)
	IndexOfDisp   float64   // variance/mean (Poisson ⇒ 1)
	Autocorr      []float64 // lag-1..lag-len autocorrelation
	PeakTroughHr  float64   // max/min of the mean hour-of-day profile
}

// Arrivals computes arrival statistics from per-period counts.
func Arrivals(counts []int, lags int) ArrivalStats {
	n := len(counts)
	if n == 0 {
		return ArrivalStats{}
	}
	xs := make([]float64, n)
	var sum float64
	for i, c := range counts {
		xs[i] = float64(c)
		sum += xs[i]
	}
	mean := sum / float64(n)
	var variance float64
	for _, v := range xs {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(n)
	st := ArrivalStats{MeanPerPeriod: mean}
	if mean > 0 {
		st.CV = math.Sqrt(variance) / mean
		st.IndexOfDisp = variance / mean
	}
	st.Autocorr = make([]float64, lags)
	for k := 1; k <= lags; k++ {
		var cov float64
		for i := 0; i+k < n; i++ {
			cov += (xs[i] - mean) * (xs[i+k] - mean)
		}
		if variance > 0 {
			st.Autocorr[k-1] = cov / float64(n-k) / variance
		}
	}
	// Hour-of-day profile.
	hourSum := make([]float64, 24)
	hourN := make([]float64, 24)
	for p, c := range counts {
		h := trace.HourOfDay(p)
		hourSum[h] += float64(c)
		hourN[h]++
	}
	peak, trough := math.Inf(-1), math.Inf(1)
	for h := 0; h < 24; h++ {
		if hourN[h] == 0 {
			continue
		}
		v := hourSum[h] / hourN[h]
		peak = math.Max(peak, v)
		trough = math.Min(trough, v)
	}
	if trough > 0 && !math.IsInf(peak, -1) {
		st.PeakTroughHr = peak / trough
	}
	return st
}

// BatchStats characterizes the user-batch structure.
type BatchStats struct {
	Count        int
	MeanSize     float64
	P95Size      float64
	MaxSize      int
	SingletonPct float64
}

// Batches computes batch statistics for a trace.
func Batches(tr *trace.Trace) BatchStats {
	var sizes []float64
	maxSize, singles := 0, 0
	for _, list := range tr.PeriodBatches() {
		for _, b := range list {
			s := len(b.Indices)
			sizes = append(sizes, float64(s))
			if s > maxSize {
				maxSize = s
			}
			if s == 1 {
				singles++
			}
		}
	}
	st := BatchStats{Count: len(sizes), MaxSize: maxSize}
	if len(sizes) == 0 {
		return st
	}
	st.MeanSize = metrics.Mean(sizes)
	st.P95Size = metrics.Quantile(sizes, 0.95)
	st.SingletonPct = float64(singles) / float64(len(sizes))
	return st
}

// FlavorStats characterizes the flavor popularity distribution.
type FlavorStats struct {
	Distinct   int     // flavors observed
	EntropyNat float64 // Shannon entropy of the empirical distribution
	Top1Share  float64 // share of the most popular flavor
	Top5Share  float64
}

// Flavors computes flavor popularity statistics.
func Flavors(tr *trace.Trace) FlavorStats {
	counts := make([]float64, tr.Flavors.K())
	var total float64
	for _, vm := range tr.VMs {
		counts[vm.Flavor]++
		total++
	}
	st := FlavorStats{}
	if total == 0 {
		return st
	}
	shares := make([]float64, 0, len(counts))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		st.Distinct++
		p := c / total
		shares = append(shares, p)
		st.EntropyNat += -p * math.Log(p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	for i, p := range shares {
		if i == 0 {
			st.Top1Share = p
		}
		if i < 5 {
			st.Top5Share += p
		}
	}
	return st
}

// LifetimeStats characterizes the lifetime distribution.
type LifetimeStats struct {
	CensoredPct float64
	P50         float64 // uncensored lifetime quantiles, seconds
	P90         float64
	P99         float64
	// CPUHoursTopDecile is the fraction of total CPU-hours contributed
	// by the longest-lived 10% of uncensored VMs (the paper cites >95%
	// of core-hours from a small fraction of long-running VMs).
	CPUHoursTopDecile float64
}

// Lifetimes computes lifetime statistics.
func Lifetimes(tr *trace.Trace) LifetimeStats {
	var durations []float64
	type vmLoad struct{ dur, cpuh float64 }
	var loads []vmLoad
	var censored int
	var totalCPUh float64
	for _, vm := range tr.VMs {
		if vm.Censored {
			censored++
			continue
		}
		durations = append(durations, vm.Duration)
		cpuh := tr.Flavors.Defs[vm.Flavor].CPU * vm.Duration / 3600
		loads = append(loads, vmLoad{vm.Duration, cpuh})
		totalCPUh += cpuh
	}
	st := LifetimeStats{}
	if len(tr.VMs) > 0 {
		st.CensoredPct = float64(censored) / float64(len(tr.VMs))
	}
	if len(durations) == 0 {
		return st
	}
	st.P50 = metrics.Quantile(durations, 0.5)
	st.P90 = metrics.Quantile(durations, 0.9)
	st.P99 = metrics.Quantile(durations, 0.99)
	sort.Slice(loads, func(i, j int) bool { return loads[i].dur > loads[j].dur })
	topN := len(loads) / 10
	var topCPUh float64
	for i := 0; i < topN; i++ {
		topCPUh += loads[i].cpuh
	}
	if totalCPUh > 0 {
		st.CPUHoursTopDecile = topCPUh / totalCPUh
	}
	return st
}

// CorrelationStats quantifies the inter-job correlations that the
// paper's models exploit and the naive baselines ignore.
type CorrelationStats struct {
	// IntraBatchSameFlavor is the fraction of consecutive within-batch
	// VM pairs sharing a flavor.
	IntraBatchSameFlavor float64
	// IntraBatchLifetimeCorr is the Pearson correlation of log-lifetimes
	// between consecutive within-batch VMs (uncensored pairs).
	IntraBatchLifetimeCorr float64
	// CrossBatchSameFlavor is the fraction of consecutive batches whose
	// first flavors match (user persistence signal).
	CrossBatchSameFlavor float64
}

// Correlations computes the momentum statistics for a trace.
func Correlations(tr *trace.Trace) CorrelationStats {
	var samePairs, pairs int
	var xs, ys []float64
	var crossSame, crossPairs int
	prevBatchFlavor := -1
	for _, list := range tr.PeriodBatches() {
		for _, b := range list {
			first := tr.VMs[b.Indices[0]]
			if prevBatchFlavor >= 0 {
				crossPairs++
				if first.Flavor == prevBatchFlavor {
					crossSame++
				}
			}
			prevBatchFlavor = tr.VMs[b.Indices[len(b.Indices)-1]].Flavor
			for i := 1; i < len(b.Indices); i++ {
				a, c := tr.VMs[b.Indices[i-1]], tr.VMs[b.Indices[i]]
				pairs++
				if a.Flavor == c.Flavor {
					samePairs++
				}
				if !a.Censored && !c.Censored && a.Duration > 0 && c.Duration > 0 {
					xs = append(xs, math.Log(a.Duration))
					ys = append(ys, math.Log(c.Duration))
				}
			}
		}
	}
	st := CorrelationStats{}
	if pairs > 0 {
		st.IntraBatchSameFlavor = float64(samePairs) / float64(pairs)
	}
	if crossPairs > 0 {
		st.CrossBatchSameFlavor = float64(crossSame) / float64(crossPairs)
	}
	st.IntraBatchLifetimeCorr = pearson(xs, ys)
	return st
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	mx, my := metrics.Mean(xs), metrics.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Report bundles the full characterization of one trace.
type Report struct {
	Name         string
	VMs          int
	Days         float64
	Arrivals     ArrivalStats
	BatchArrival ArrivalStats
	Batches      BatchStats
	Flavors      FlavorStats
	Lifetimes    LifetimeStats
	Correlations CorrelationStats
}

// Characterize computes the full report for a trace.
func Characterize(name string, tr *trace.Trace) Report {
	return Report{
		Name:         name,
		VMs:          len(tr.VMs),
		Days:         tr.Days(),
		Arrivals:     Arrivals(tr.ArrivalCounts(), 12),
		BatchArrival: Arrivals(tr.BatchCounts(), 12),
		Batches:      Batches(tr),
		Flavors:      Flavors(tr),
		Lifetimes:    Lifetimes(tr),
		Correlations: Correlations(tr),
	}
}

// Render prints the report as human-readable text.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "Workload characterization: %s\n", r.Name)
	fmt.Fprintf(w, "  %d VMs over %.1f days\n", r.VMs, r.Days)
	fmt.Fprintf(w, "  arrivals/period: mean %.2f, dispersion %.2f, lag-1 autocorr %.2f, peak/trough %.2f\n",
		r.Arrivals.MeanPerPeriod, r.Arrivals.IndexOfDisp, lag1(r.Arrivals), r.Arrivals.PeakTroughHr)
	fmt.Fprintf(w, "  batches/period:  mean %.2f, dispersion %.2f\n",
		r.BatchArrival.MeanPerPeriod, r.BatchArrival.IndexOfDisp)
	fmt.Fprintf(w, "  batches: %d, mean size %.2f, p95 %.0f, %.0f%% singletons\n",
		r.Batches.Count, r.Batches.MeanSize, r.Batches.P95Size, r.Batches.SingletonPct*100)
	fmt.Fprintf(w, "  flavors: %d distinct, entropy %.2f nats, top-1 %.0f%%, top-5 %.0f%%\n",
		r.Flavors.Distinct, r.Flavors.EntropyNat, r.Flavors.Top1Share*100, r.Flavors.Top5Share*100)
	fmt.Fprintf(w, "  lifetimes: p50 %s, p90 %s, p99 %s, %.1f%% censored, top decile = %.0f%% of CPU-hours\n",
		fmtDur(r.Lifetimes.P50), fmtDur(r.Lifetimes.P90), fmtDur(r.Lifetimes.P99),
		r.Lifetimes.CensoredPct*100, r.Lifetimes.CPUHoursTopDecile*100)
	fmt.Fprintf(w, "  correlations: intra-batch same-flavor %.0f%%, lifetime corr %.2f, cross-batch flavor %.0f%%\n",
		r.Correlations.IntraBatchSameFlavor*100, r.Correlations.IntraBatchLifetimeCorr,
		r.Correlations.CrossBatchSameFlavor*100)
}

func lag1(a ArrivalStats) float64 {
	if len(a.Autocorr) == 0 {
		return 0
	}
	return a.Autocorr[0]
}

func fmtDur(seconds float64) string {
	switch {
	case seconds < 3600:
		return fmt.Sprintf("%.0fm", seconds/60)
	case seconds < 86400:
		return fmt.Sprintf("%.1fh", seconds/3600)
	default:
		return fmt.Sprintf("%.1fd", seconds/86400)
	}
}

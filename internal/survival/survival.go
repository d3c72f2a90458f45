// Package survival implements discrete-time survival analysis (§2.3.1 of
// the paper): lifetime bins, conversions among the hazard, PMF, and
// survival functions, the Kaplan-Meier estimator (discrete, grouped, and
// continuous-time), continuous-density interpolation (CDI), and the
// Survival-MSE evaluation of Kvamme & Borgan used in Table 4.
package survival

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Bins partitions lifetimes (in seconds) into J consecutive intervals.
// Edges has length J+1 with Edges[0] == 0; the final interval
// [Edges[J-1], Edges[J]) is the terminal catch-all whose upper edge
// serves as the finite horizon used for interpolation and sampling.
type Bins struct {
	Edges []float64
}

const (
	minute = 60.0
	hour   = 3600.0
	day    = 86400.0
)

// PaperBins returns the paper's 47-bin layout (§2.3.1): 5-minute bins to
// 1 hour, hourly bins to 10 hours, hourly bins to 24 hours, daily bins
// to 10 days, 5-day bins to 20 days, and a terminal >20d bin (capped at
// 40 days for interpolation).
func PaperBins() Bins {
	edges := []float64{0}
	for m := 5.0; m <= 60; m += 5 { // 12 bins to 1h
		edges = append(edges, m*minute)
	}
	for h := 2.0; h <= 10; h++ { // 9 bins to 10h
		edges = append(edges, h*hour)
	}
	for h := 11.0; h <= 24; h++ { // 14 bins to 24h
		edges = append(edges, h*hour)
	}
	for d := 2.0; d <= 10; d++ { // 9 bins to 10d
		edges = append(edges, d*day)
	}
	edges = append(edges, 15*day, 20*day) // 2 bins to 20d
	edges = append(edges, 40*day)         // terminal >20d bin
	return Bins{Edges: edges}
}

// UniformBins returns n equal-width bins covering [0, max).
func UniformBins(n int, max float64) Bins {
	if n <= 0 || max <= 0 {
		panic("survival: UniformBins needs n > 0 and max > 0")
	}
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = max * float64(i) / float64(n)
	}
	return Bins{Edges: edges}
}

// FineBins returns the paper's 495-bin ablation: 5-minute intervals
// covering the same 0-40d span as PaperBins (Table 4's 495-bin rows are
// approximated by this uniform fine grid).
func FineBins() Bins {
	return UniformBins(495, 40*day)
}

// J returns the number of bins.
func (b Bins) J() int { return len(b.Edges) - 1 }

// Index returns the bin index (0-based) containing duration d seconds.
// Durations beyond the final edge fall in the last bin.
func (b Bins) Index(d float64) int {
	if d < 0 {
		panic(fmt.Sprintf("survival: negative duration %v", d))
	}
	// Binary search for the first edge greater than d.
	i := sort.SearchFloat64s(b.Edges[1:], math.Nextafter(d, math.Inf(1)))
	if i >= b.J() {
		return b.J() - 1
	}
	return i
}

// Lo returns the lower edge of bin j; Hi its upper edge.
func (b Bins) Lo(j int) float64 { return b.Edges[j] }

// Hi returns the upper edge of bin j.
func (b Bins) Hi(j int) float64 { return b.Edges[j+1] }

// Horizon returns the final (catch-all) upper edge.
func (b Bins) Horizon() float64 { return b.Edges[len(b.Edges)-1] }

// HazardToPMF converts a discrete hazard h(j) into the lifetime PMF:
// f(j) = h(j) ∏_{i<j} (1-h(i)). Any residual mass beyond the last bin is
// folded into the last bin so the PMF sums to 1.
func HazardToPMF(h []float64) []float64 {
	f := make([]float64, len(h))
	surv := 1.0
	for j, hj := range h {
		f[j] = hj * surv
		surv *= 1 - hj
	}
	if len(f) > 0 {
		f[len(f)-1] += surv
	}
	return f
}

// HazardToSurvival converts hazard to the survival function: S(j) =
// ∏_{i<=j} (1-h(i)) is the probability the lifetime exceeds bin j.
func HazardToSurvival(h []float64) []float64 {
	return HazardToSurvivalInto(make([]float64, len(h)), h)
}

// HazardToSurvivalInto is HazardToSurvival into a caller-owned buffer
// (len(dst) must equal len(h)), for hot loops that evaluate many
// curves — the Table 4 grid sweep converts each subject's hazard once
// instead of once per grid time. Returns dst.
func HazardToSurvivalInto(dst, h []float64) []float64 {
	if len(dst) != len(h) {
		panic("survival: HazardToSurvivalInto length mismatch")
	}
	surv := 1.0
	for j, hj := range h {
		surv *= 1 - hj
		dst[j] = surv
	}
	return dst
}

// PMFToHazardInto converts a PMF f over bins into the discrete hazard,
// written into h (len(f); it may be f itself), and returns h.
func PMFToHazardInto(h, f []float64) []float64 {
	h = h[:len(f)]
	surv := 1.0
	for j, fj := range f {
		if surv <= 0 {
			h[j] = 1
			continue
		}
		h[j] = math.Min(fj/surv, 1)
		surv -= fj
	}
	return h
}

// Observation is one subject for Kaplan-Meier estimation.
type Observation struct {
	Duration float64 // observed lifetime, or time-at-censoring
	Censored bool
}

// KaplanMeier estimates the discrete hazard over bins from possibly
// right-censored observations. A subject with an event in bin k is at
// risk in bins 0..k and contributes an event at k; a subject censored in
// bin c is at risk in bins 0..c-1 only (matching the likelihood in
// §2.3.2, which credits censored subjects with surviving bins < c).
func KaplanMeier(obs []Observation, bins Bins) []float64 {
	return kmShrunk(obs, bins, nil, 0)
}

// KaplanMeierIgnoreCensored estimates the hazard discarding censored
// subjects entirely (the biased variant discussed in §5.3).
func KaplanMeierIgnoreCensored(obs []Observation, bins Bins) []float64 {
	kept := make([]Observation, 0, len(obs))
	for _, o := range obs {
		if !o.Censored {
			kept = append(kept, o)
		}
	}
	return KaplanMeier(kept, bins)
}

// KaplanMeierCensoredAsEvents treats censoring times as termination
// events (the second ablation variant from §5.3).
func KaplanMeierCensoredAsEvents(obs []Observation, bins Bins) []float64 {
	conv := make([]Observation, len(obs))
	for i, o := range obs {
		conv[i] = Observation{Duration: o.Duration}
	}
	return KaplanMeier(conv, bins)
}

// KaplanMeierGroupedShrunk estimates one discrete hazard per group key
// (the paper's per-flavor KM baseline is tau = 0). Groups absent at
// estimation time fall back to the pooled hazard, which is stored under
// key -1. With tau > 0 it shrinks toward the pooled hazard empirical-
// Bayes style: each group's per-bin hazard is
// (events + tau*pooled) / (atRisk + tau). Shrinkage keeps sparse
// groups' hazards away from the degenerate 0/1 estimates that explode
// the BCE metric at small sample sizes; at the paper's million-VM scale
// tau is irrelevant, which is why the paper does not need it.
func KaplanMeierGroupedShrunk(obs []Observation, groups []int, bins Bins, tau float64) map[int][]float64 {
	if len(obs) != len(groups) {
		panic("survival: KaplanMeierGroupedShrunk length mismatch")
	}
	pooled := KaplanMeier(obs, bins)
	byGroup := make(map[int][]Observation)
	for i, o := range obs {
		byGroup[groups[i]] = append(byGroup[groups[i]], o)
	}
	out := make(map[int][]float64, len(byGroup)+1)
	for g, list := range byGroup {
		out[g] = kmShrunk(list, bins, pooled, tau)
	}
	out[-1] = pooled
	return out
}

// kmShrunk computes the discrete hazard with shrinkage toward prior.
func kmShrunk(obs []Observation, bins Bins, prior []float64, tau float64) []float64 {
	j := bins.J()
	events := make([]float64, j)
	atRisk := make([]float64, j)
	for _, o := range obs {
		k := bins.Index(o.Duration)
		if o.Censored {
			for i := 0; i < k; i++ {
				atRisk[i]++
			}
		} else {
			for i := 0; i <= k; i++ {
				atRisk[i]++
			}
			events[k]++
		}
	}
	h := make([]float64, j)
	for i := range h {
		denom := atRisk[i] + tau
		if denom <= 0 {
			continue
		}
		pseudo := 0.0
		if tau > 0 {
			pseudo = tau * prior[i]
		}
		h[i] = (events[i] + pseudo) / denom
	}
	return h
}

// ContinuousKM is the classic continuous-time Kaplan-Meier estimator:
// a right-continuous step survival function over the distinct event
// times.
type ContinuousKM struct {
	Times []float64 // distinct event times, ascending
	Surv  []float64 // S(t) just after Times[i]
}

// NewContinuousKM estimates the survival curve from observations.
func NewContinuousKM(obs []Observation) *ContinuousKM {
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration < sorted[j].Duration })
	km := &ContinuousKM{}
	n := float64(len(sorted))
	surv := 1.0
	i := 0
	for i < len(sorted) {
		t := sorted[i].Duration
		var events, leaving float64
		for i < len(sorted) && sorted[i].Duration == t {
			if !sorted[i].Censored {
				events++
			}
			leaving++
			i++
		}
		if events > 0 && n > 0 {
			surv *= 1 - events/n
			km.Times = append(km.Times, t)
			km.Surv = append(km.Surv, surv)
		}
		n -= leaving
	}
	return km
}

// At returns S(t) for the continuous KM curve.
func (km *ContinuousKM) At(t float64) float64 {
	// Find last event time <= t.
	i := sort.SearchFloat64s(km.Times, math.Nextafter(t, math.Inf(1))) - 1
	if i < 0 {
		return 1
	}
	return km.Surv[i]
}

// Interpolation selects how a discrete survival function is evaluated at
// continuous times (Table 4).
type Interpolation int

const (
	// Stepped assumes all terminations happen at bin upper edges.
	Stepped Interpolation = iota
	// CDI (continuous-density interpolation) assumes terminations are
	// distributed uniformly within each bin (§2.4).
	CDI
)

// SurvivalCurveAt evaluates the survival function S(t) at continuous
// time t under the given interpolation, from the discrete survival curve
// s (HazardToSurvival of a hazard). Convert a hazard once and call this
// per time: it allocates nothing.
func SurvivalCurveAt(t float64, s []float64, bins Bins, interp Interpolation) float64 {
	if t < 0 {
		return 1
	}
	if t >= bins.Horizon() {
		t = bins.Horizon()
	}
	j := bins.Index(math.Min(t, math.Nextafter(bins.Horizon(), 0)))
	sPrev := 1.0
	if j > 0 {
		sPrev = s[j-1]
	}
	switch interp {
	case Stepped:
		if t >= bins.Hi(j) {
			return s[j]
		}
		return sPrev
	case CDI:
		frac := (t - bins.Lo(j)) / (bins.Hi(j) - bins.Lo(j))
		return sPrev + frac*(s[j]-sPrev)
	default:
		panic("survival: unknown interpolation")
	}
}

// SampleDuration draws a continuous lifetime from a discrete hazard:
// sample the bin by walking the hazard, then draw the position inside
// the bin per the interpolation (uniform for CDI, upper edge for
// Stepped).
func SampleDuration(hazard []float64, bins Bins, g *rng.RNG, interp Interpolation) float64 {
	j := SampleBin(hazard, g)
	if interp == Stepped {
		return bins.Hi(j)
	}
	return g.Uniform(bins.Lo(j), bins.Hi(j))
}

// SampleBin draws a lifetime bin by sequentially testing each hazard;
// if every hazard is avoided the final bin is returned.
func SampleBin(hazard []float64, g *rng.RNG) int {
	for j, h := range hazard {
		if g.Float64() < h {
			return j
		}
	}
	return len(hazard) - 1
}

// SurvivalMSE computes the continuous-domain Survival-MSE of Table 4:
// the mean squared error between a model survival curve and the true
// indicator survival 1[t < duration], averaged over a uniform grid of
// evaluation times and over subjects. Censored subjects are compared
// only over grid times before their censoring time.
func SurvivalMSE(curves func(i int, t float64) float64, obs []Observation, gridStep, horizon float64) float64 {
	var total float64
	var count int
	for i, o := range obs {
		limit := horizon
		if o.Censored && o.Duration < limit {
			limit = o.Duration
		}
		for t := gridStep; t <= limit; t += gridStep {
			truth := 0.0
			if t < o.Duration {
				truth = 1
			}
			diff := curves(i, t) - truth
			total += diff * diff
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

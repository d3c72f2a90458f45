package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/workload"
)

// The open-loop schedule of serve_open_mixed. It is a pure function of
// the run seed and the slice index: two builds of the harness produce
// the same due times and the same class sequence.
//
// Every slice holds the same number of arrivals of each class (the
// cohorts' rate fractions of openRate), so that the class mix — and
// with it the cost of a slice — does not change from seed to seed. What
// the cohorts' own arrival samplers decide is *when* inside the slice
// each class arrives: per-tick counts are drawn from the sampler until
// the class quota is filled, and the ticks used are stretched over the
// slice. A bursty sampler (gamma, CV 2) fills its quota in a few crowded
// ticks; a regular one (weibull, CV 0.5) spreads it evenly.
const (
	openRate      = 40                     // requests per second, all classes
	openSliceLen  = 250 * time.Millisecond // schedule length of one slice
	openTick      = 25 * time.Millisecond  // sampler period
	openTicksNorm = int(openSliceLen / openTick)
)

// classShape is what an SLO class asks for: a size range (periods,
// log-uniform) and a format. The ranges meet end to end, so request
// cost is a continuum and no percentile sits in a gap between classes.
type classShape struct {
	minPeriods, maxPeriods int
	json                   bool
}

var classShapes = [numClasses]classShape{
	classCritical:   {6, 24, false},
	classBestEffort: {24, 144, false},
	classBatch:      {144, 288, true},
}

// openCohort is one cohort of the mixed preset as the schedule sees it.
type openCohort struct {
	class   int
	quota   int // arrivals per slice
	sampler synth.ArrivalSampler
}

func classOf(slo string) int {
	for c, n := range className {
		if n == slo {
			return c
		}
	}
	return noClass
}

// openCohorts compiles the spec's cohorts into per-slice quotas and
// samplers.
func openCohorts(spec *workload.Spec) ([]openCohort, error) {
	perSlice := float64(openRate) * openSliceLen.Seconds()
	var out []openCohort
	for _, c := range spec.Cohorts {
		s, err := c.Arrival.Sampler()
		if err != nil {
			return nil, err
		}
		out = append(out, openCohort{
			class:   classOf(c.SLOClass),
			quota:   int(math.Round(c.RateFraction * perSlice)),
			sampler: s,
		})
	}
	return out, nil
}

// openSlice builds the arrivals of slice i, sorted by due time.
func openSlice(runSeed int64, i int, cohorts []openCohort) []genOp {
	g := rng.New(opSeed(runSeed, i, 1<<18))
	var ops []genOp
	for _, c := range cohorts {
		lambda := float64(c.quota) / float64(openTicksNorm)
		// Per-tick counts until the quota is filled.
		var counts []int
		for left := c.quota; left > 0; {
			k := min(c.sampler(g, lambda), left)
			counts = append(counts, k)
			left -= k
		}
		tickLen := float64(openSliceLen) / float64(len(counts))
		shape := classShapes[c.class]
		for t, k := range counts {
			for ; k > 0; k-- {
				due := (float64(t) + g.Float64()) * tickLen
				logP := g.Uniform(math.Log(float64(shape.minPeriods)), math.Log(float64(shape.maxPeriods)))
				ops = append(ops, genOp{
					periods: int(math.Round(math.Exp(logP))),
					json:    shape.json,
					class:   c.class,
					due:     time.Duration(due),
				})
			}
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	for j := range ops {
		ops[j].seed = opSeed(runSeed, i, j)
	}
	return ops
}

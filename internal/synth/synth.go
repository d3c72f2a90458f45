// Package synth is the ground-truth workload simulator that stands in
// for the proprietary Microsoft Azure and Huawei Cloud production traces
// (§3 of the paper). It plants exactly the statistical structure the
// paper documents in the real data — user-specific batches, intra-batch
// flavor and lifetime momentum, diurnal and weekly seasonality, per-day
// random effects ("every day is unique"), long-range user persistence,
// workload growth with change-points, heavy-tailed lifetimes — so that
// the paper's experiments, which measure whether each model recovers
// that structure, remain meaningful without the original bytes. One
// cohort process (cohort.go) generates every Config; a Config without
// Cohorts is its one-cohort case. The scenarios standing in for the two
// clouds are defined once, as internal/workload's presets, which
// compile to a Config.
package synth

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Config is the full parameterization of the ground-truth process.
type Config struct {
	Name string
	Days int // history length

	Flavors *trace.FlavorSet

	// Arrival process.
	BaseRate   float64 // mean batches/period at reference conditions
	DiurnalAmp float64 // 0..1 amplitude of the hour-of-day curve
	WeekendDip float64 // multiplier applied on Saturday/Sunday
	DayEffect  float64 // sigma of the per-day log-normal random effect
	// Growth returns the arrival-rate multiplier for a given day
	// (identity if nil). The huawei workload preset grows fast and
	// levels off.
	Growth func(day int) float64

	// Population is the user/batch/lifetime block of the single
	// population a config without Cohorts generates.
	Population

	// FlavorLifeEffect scales per-flavor log-lifetime shifts, planting
	// the flavor→lifetime correlation that makes the paper's per-flavor
	// Kaplan-Meier baseline beat the pooled one (Table 3).
	FlavorLifeEffect float64

	// Cohorts splits the arrivals across heterogeneous client
	// populations (cohort.go): each cohort gets its own rate share,
	// arrival process, and Population, while BaseRate, the
	// diurnal/weekly/growth schedules, DayEffect, and FlavorLifeEffect
	// stay global. Empty Cohorts is the one-cohort case: the base
	// Population at rate fraction 1 with Poisson arrivals.
	Cohorts []Cohort
	// LifeShift returns an additive shift to the log-lifetime for a
	// given day (identity if nil). The huawei workload preset shortens
	// lifetimes over the history, planting the regime change that
	// defeats whole-history empirical baselines in Figure 8.
	LifeShift func(day int) float64
}

// Population is one client population's parameters: its users, the
// structure of its batches, and its lifetime profiles. Config carries
// one for the no-cohort case and every Cohort carries its own.
type Population struct {
	Users         int     // population size
	UserZipf      float64 // activity skew across users
	FavoriteCount int     // favorite flavors per user
	Persistence   float64 // probability a batch comes from a recently active user

	// Batch structure.
	BatchSizeMean   float64 // mean of the (1+geometric) batch size
	RepeatFlavorP   float64 // within-batch flavor momentum
	RepeatLifetimeP float64 // within-batch lifetime momentum
	// TemplateP is the probability a batch is a templated deployment:
	// the user's favorite flavors issued cyclically (web+db+cache-style
	// pods). Templates make the most probable next flavor different from
	// a plain repeat — the structure behind the paper's observation that
	// the LSTM beats RepeatFlav ("the most probable flavor is not always
	// a repeat of the previous one", §5.2).
	TemplateP float64

	// Lifetimes: per-user log-normal profiles.
	LifeMuMin, LifeMuMax float64 // user-level mean log-lifetime range (seconds)
	LifeSigma            float64 // within-user log-lifetime spread
}

// AzureFlavors builds the 16-flavor Azure-like catalog (4 CPU sizes ×
// 4 memory ratios), matching the paper's 16 CPU/memory combinations.
func AzureFlavors() *trace.FlavorSet {
	fs := &trace.FlavorSet{}
	for _, cpu := range []float64{1, 2, 4, 8} {
		for _, ratio := range []float64{1.75, 3.5, 7, 14} {
			fs.Defs = append(fs.Defs, trace.FlavorDef{
				Name:  fmt.Sprintf("A%gr%g", cpu, ratio),
				CPU:   cpu,
				MemGB: cpu * ratio,
			})
		}
	}
	return fs
}

// HuaweiFlavors builds a 259-flavor catalog mimicking Huawei Cloud's
// mix of CPU/memory combinations, hardware generations, and special
// resource attributes (§3.2).
func HuaweiFlavors() *trace.FlavorSet {
	fs := &trace.FlavorSet{}
	cpus := []float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}
	ratios := []float64{1, 2, 4, 8}
	gens := []string{"s3", "c6", "m5"}
	for _, gen := range gens {
		for _, cpu := range cpus {
			for _, ratio := range ratios {
				if fs.K() >= 259 {
					return fs
				}
				fs.Defs = append(fs.Defs, trace.FlavorDef{
					Name:  fmt.Sprintf("%s.%gxlarge.%g", gen, cpu, ratio),
					CPU:   cpu,
					MemGB: cpu * ratio,
				})
			}
		}
	}
	// Special flavors (GPU / local-disk variants) to reach exactly 259.
	i := 0
	for fs.K() < 259 {
		cpu := cpus[i%len(cpus)]
		fs.Defs = append(fs.Defs, trace.FlavorDef{
			Name:  fmt.Sprintf("g5.%gxlarge.v%d", cpu, i),
			CPU:   cpu,
			MemGB: cpu * 4,
		})
		i++
	}
	return fs
}

// user is one member of the simulated population.
type user struct {
	weight    float64
	favorites []int     // flavor indices
	favWeight []float64 // unnormalized preference weights
	batchMean float64
	lifeMu    float64
	lifeSigma float64
}

// Generate runs the ground-truth process and returns the full-history
// trace. The trace is uncensored (every VM has its true duration);
// apply trace.Slice to impose observation windows.
//
// Every cohort draws from its own Split-derived RNG streams, so cohorts
// are statistically independent and appending a new cohort to a config
// never perturbs the bytes generated for the existing ones (pinned by
// TestCohortStreamIndependence). Per period, cohorts emit batches in
// declaration order, keeping the trace sorted and deterministic.
func (c Config) Generate(seed int64) *trace.Trace {
	oneCohort := len(c.Cohorts) == 0
	if oneCohort {
		c.Cohorts = []Cohort{c.baseCohort()}
	}
	c.validate()
	g := rng.New(seed)

	states := make([]*cohortState, len(c.Cohorts))
	lead := 1.0 // leading factor of each period's rate schedule
	var dayG *rng.RNG
	if oneCohort {
		// A config without cohorts keeps the stream layout and rate
		// product order it had before cohorts existed, which every
		// trained golden depends on: the population's streams split
		// first, the flavor shifts after, the day effects drawn from
		// the arrival stream, and the rate computed as
		// BaseRate·diurnal·weekly·dayEffect·growth.
		states[0] = c.newCohortState(g, c.Cohorts[0], 0)
		lead, states[0].rate, dayG = c.BaseRate, 1, states[0].arrivalG
	}
	// Global structure shared by all cohorts: the flavor→lifetime
	// shifts and the per-day random effects ("every day is unique").
	flavorShift := make([]float64, c.Flavors.K())
	if c.FlavorLifeEffect != 0 {
		shiftG := g.Split()
		for f := range flavorShift {
			flavorShift[f] = c.FlavorLifeEffect * shiftG.NormFloat64()
		}
	}
	if !oneCohort {
		dayG = g.Split()
		userOff := 0
		for i, co := range c.Cohorts {
			states[i] = c.newCohortState(g.Split(), co, userOff)
			userOff += co.Users
		}
	}
	dayEffects := make([]float64, c.Days)
	for d := range dayEffects {
		dayEffects[d] = math.Exp(c.DayEffect * dayG.NormFloat64())
	}

	periods := c.Days * trace.PeriodsPerDay
	tr := &trace.Trace{Flavors: c.Flavors, Periods: periods}
	// A short recency window concentrates cross-batch persistence on the
	// last few users, matching the strong short-range reuse the paper
	// documents (Figure 9: most requests reuse one of the last few
	// flavor types).
	const recentCap = 6
	id := 0
	for p := 0; p < periods; p++ {
		day := trace.DayOfHistory(p)
		sched := lead * c.diurnal(trace.HourOfDay(p)) * c.weekly(trace.DayOfWeek(p)) * dayEffects[day]
		if c.Growth != nil {
			sched *= c.Growth(day)
		}
		for _, st := range states {
			co := st.cfg
			lambda := st.rate * sched
			var n int
			if co.Arrival != nil {
				n = co.Arrival(st.arrivalG, lambda)
			} else {
				n = st.arrivalG.Poisson(lambda)
			}
			for b := 0; b < n; b++ {
				var uid int
				if len(st.recent) > 0 && st.batchG.Bernoulli(co.Persistence) {
					// Half of persistent batches come from the immediately
					// previous batch's user (users submit several batches
					// in a row), the rest from the recent-user window.
					if st.batchG.Bernoulli(0.5) {
						uid = st.recent[len(st.recent)-1]
					} else {
						uid = st.recent[st.batchG.Intn(len(st.recent))]
					}
				} else {
					uid = st.userOff + st.alias.Sample(st.batchG)
				}
				st.recent = append(st.recent, uid)
				if len(st.recent) > recentCap {
					st.recent = st.recent[1:]
				}
				u := st.users[uid-st.userOff]
				size := 1 + st.batchG.Geometric(1/u.batchMean)
				templated := co.TemplateP > 0 && st.batchG.Bernoulli(co.TemplateP)
				prevFlavor := -1
				prevLife := -1.0
				for v := 0; v < size; v++ {
					var flavor int
					if templated {
						// Templated deployment: cycle the user's favorites
						// in order (web+db+cache-style pods).
						flavor = u.favorites[v%len(u.favorites)]
					} else if prevFlavor >= 0 && st.batchG.Bernoulli(co.RepeatFlavorP) {
						flavor = prevFlavor
					} else {
						flavor = u.favorites[st.batchG.Categorical(u.favWeight)]
					}
					life := prevLife
					if life < 0 || !st.lifeG.Bernoulli(co.RepeatLifetimeP) {
						mu := u.lifeMu + flavorShift[flavor]
						if c.LifeShift != nil {
							mu += c.LifeShift(day)
						}
						life = st.lifeG.LogNormal(mu, u.lifeSigma)
					} else {
						life *= st.lifeG.Uniform(0.9, 1.1)
					}
					tr.VMs = append(tr.VMs, trace.VM{
						ID:       id,
						User:     uid,
						Flavor:   flavor,
						Start:    p,
						Duration: life,
					})
					id++
					prevFlavor, prevLife = flavor, life
				}
			}
		}
	}
	return tr
}

func (c Config) diurnal(hour int) float64 {
	// Peak mid-afternoon, trough pre-dawn.
	return 1 + c.DiurnalAmp*math.Sin(2*math.Pi*(float64(hour)-9)/24)
}

func (c Config) weekly(dow int) float64 {
	if dow >= 5 {
		return c.WeekendDip
	}
	return 1
}

// StandardSplit carves the full history into train/dev/test windows in
// roughly the paper's Table-1 proportions (~70/12/18).
func StandardSplit(days int) (train, dev, test trace.Window) {
	p := trace.PeriodsPerDay
	trainEnd := days * 7 / 10
	devEnd := trainEnd + days*12/100
	if devEnd <= trainEnd {
		devEnd = trainEnd + 1
	}
	if devEnd >= days {
		devEnd = days - 1
	}
	return trace.Window{Start: 0, End: trainEnd * p},
		trace.Window{Start: trainEnd * p, End: devEnd * p},
		trace.Window{Start: devEnd * p, End: days * p}
}

package synth

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// ArrivalSampler draws the number of batches arriving in one period
// given the scheduled mean lambda for that period. A nil sampler means
// a Poisson process; the workload layer supplies bursty Gamma-mixed and
// Weibull-renewal samplers.
type ArrivalSampler func(g *rng.RNG, lambda float64) int

// Cohort is one heterogeneous client population inside a Config: its
// share of the aggregate arrival rate, its own arrival process, and a
// fully resolved Population (the workload spec compiler fills unset
// overrides from the Config base values). Cohorts make scenario
// diversity a first-class input (ROADMAP item 1): a spec can mix a
// steady interactive cohort, a bursty batch cohort, and a heavy-tailed
// GPU cohort over one flavor catalog.
type Cohort struct {
	Name string
	// RateFraction is this cohort's share of Config.BaseRate; fractions
	// across cohorts must sum to ~1 so BaseRate keeps its meaning.
	RateFraction float64
	// Arrival draws per-period batch counts (nil = Poisson).
	Arrival ArrivalSampler
	// SLOClass labels the cohort's traffic ("critical", "batch", ...);
	// generation ignores it, but the workload record format and the
	// /metrics echo carry it for downstream schedulers.
	SLOClass string

	// Population is the cohort's own (zero values are invalid); user IDs
	// are numbered globally, cohorts occupying consecutive ID ranges.
	Population

	// FlavorSubset restricts this cohort's favorite flavors to the
	// given distinct catalog indices (nil = whole catalog): the knob
	// behind "flavor distribution overrides" (e.g. a GPU-only cohort).
	FlavorSubset []int
}

// baseCohort is the one cohort a config without Cohorts generates.
func (c Config) baseCohort() Cohort {
	return Cohort{Name: c.Name, RateFraction: 1, Population: c.Population}
}

// validate panics on a structurally invalid config; the workload spec
// layer returns errors long before reaching here.
func (c Config) validate() {
	if c.Days <= 0 || c.Flavors == nil || c.Flavors.K() == 0 {
		panic(fmt.Sprintf("synth: invalid config %+v", c.Name))
	}
	var frac float64
	for i, co := range c.Cohorts {
		if co.Users <= 0 || co.RateFraction <= 0 || co.FavoriteCount <= 0 ||
			co.BatchSizeMean < 1 || co.LifeMuMax < co.LifeMuMin {
			panic(fmt.Sprintf("synth: invalid cohort %d (%q) in %s", i, co.Name, c.Name))
		}
		seen := make(map[int]bool, len(co.FlavorSubset))
		for _, f := range co.FlavorSubset {
			if f < 0 || f >= c.Flavors.K() {
				panic(fmt.Sprintf("synth: cohort %q flavor index %d outside catalog [0,%d)", co.Name, f, c.Flavors.K()))
			}
			if seen[f] {
				panic(fmt.Sprintf("synth: cohort %q lists flavor index %d twice", co.Name, f))
			}
			seen[f] = true
		}
		frac += co.RateFraction
	}
	if math.Abs(frac-1) > 1e-6 {
		panic(fmt.Sprintf("synth: cohort rate fractions sum to %v, want 1", frac))
	}
}

// cohortState is the per-cohort generation state: its user population,
// its private RNG streams, its rate factor, and its recent-user
// persistence window.
type cohortState struct {
	cfg     Cohort
	userOff int // global ID of this cohort's first user
	users   []user
	alias   *rng.Alias
	recent  []int   // recent user IDs (global numbering)
	rate    float64 // multiplies the period's schedule into its lambda

	arrivalG *rng.RNG
	batchG   *rng.RNG
	lifeG    *rng.RNG
}

// newCohortState splits a cohort's four streams from g (users, arrival,
// batch, lifetime, in that order) and builds its population.
func (c Config) newCohortState(g *rng.RNG, co Cohort, userOff int) *cohortState {
	st := &cohortState{cfg: co, userOff: userOff, rate: c.BaseRate * co.RateFraction}
	st.users = c.makeCohortUsers(g.Split(), co)
	st.arrivalG = g.Split()
	st.batchG = g.Split()
	st.lifeG = g.Split()
	weights := make([]float64, len(st.users))
	for j, u := range st.users {
		weights[j] = u.weight
	}
	st.alias = rng.NewAlias(weights)
	return st
}

// makeCohortUsers builds a cohort's users from its Population, drawing
// distinct favorites from its flavor subset (the whole catalog if nil),
// at most one per flavor on offer.
func (c Config) makeCohortUsers(g *rng.RNG, co Cohort) []user {
	catalog := co.FlavorSubset
	if catalog == nil {
		catalog = make([]int, c.Flavors.K())
		for i := range catalog {
			catalog[i] = i
		}
	}
	k := len(catalog)
	favCount := co.FavoriteCount
	if favCount > k {
		favCount = k
	}
	globalPop := rng.ZipfWeights(k, 1.0)
	// Shuffle so flavor index order is not popularity order.
	perm := g.Perm(k)
	popularity := make([]float64, k)
	for i, p := range perm {
		popularity[i] = globalPop[p]
	}
	popAlias := rng.NewAlias(popularity)
	users := make([]user, co.Users)
	zipf := rng.ZipfWeights(co.Users, co.UserZipf)
	for i := range users {
		u := &users[i]
		u.weight = zipf[i]
		seen := map[int]bool{}
		for len(u.favorites) < favCount {
			f := catalog[popAlias.Sample(g)]
			if seen[f] {
				continue
			}
			seen[f] = true
			u.favorites = append(u.favorites, f)
			// Geometric preference decay across favorites.
			u.favWeight = append(u.favWeight, math.Pow(0.3, float64(len(u.favWeight))))
		}
		u.batchMean = math.Max(1, co.BatchSizeMean*g.Uniform(0.5, 1.5))
		u.lifeMu = g.Uniform(co.LifeMuMin, co.LifeMuMax)
		u.lifeSigma = co.LifeSigma * g.Uniform(0.7, 1.3)
	}
	return users
}

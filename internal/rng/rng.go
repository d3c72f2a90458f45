// Package rng provides a seeded random source plus the distribution
// samplers the workload models need (Poisson, geometric, categorical,
// Zipf, log-normal). Every consumer in this repository draws through an
// *rng.RNG so experiments are reproducible bit-for-bit from a seed.
package rng

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded PRNG with workload-modeling samplers. Every
// consumer draws through a counting source, so State reports the exact
// stream position as (seed, source draws); training checkpoints record
// it (DESIGN.md §8).
type RNG struct {
	r       *rand.Rand
	src     countingSource
	seedVal int64
}

// countingSource wraps the stdlib source and counts source-level draws.
// All rand.Rand methods consume entropy exclusively through Int63/
// Uint64 on the source, so (seed, draws) fully determines the stream
// position regardless of which sampler mix produced the draws.
type countingSource struct {
	s     rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.s.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.s.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.draws = 0
	c.s.Seed(seed)
}

// State is a serializable snapshot of an RNG's stream position: the
// seed and the number of source draws taken since seeding.
type State struct {
	Seed  int64
	Draws uint64
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	g := &RNG{seedVal: seed}
	g.src = countingSource{s: rand.NewSource(seed).(rand.Source64)}
	g.r = rand.New(&g.src)
	return g
}

// State returns the RNG's current stream position.
func (g *RNG) State() State {
	return State{Seed: g.seedVal, Draws: g.src.draws}
}

// Split derives an independent child RNG from this one. Use it to give
// each subsystem its own stream so adding draws in one place does not
// perturb another.
func (g *RNG) Split() *RNG {
	return New(g.r.Int63())
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Poisson samples from a Poisson distribution with mean lambda.
// Knuth's product method is used for small lambda; for large lambda the
// PTRS transformed-rejection method of Hörmann (1993) is used. A mean
// <= 0 yields 0. A NaN or +Inf mean panics (no draw could end it), and
// so does a mean of 2^62 or more, whose draws an int cannot be trusted
// to hold: PTRS converts a float draw near the mean, and past 2^63 that
// conversion goes negative.
func (g *RNG) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case !(lambda < 1<<62):
		panic("rng: Poisson requires a finite mean below 2^62")
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= g.r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return g.poissonPTRS(lambda)
	}
}

// poissonPTRS implements Hörmann's PTRS rejection sampler (lambda >= 10).
func (g *RNG) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := g.r.Float64() - 0.5
		v := g.r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// Geometric samples the number of failures before the first success in
// Bernoulli(p) trials; the result is >= 0 with mean (1-p)/p.
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := g.r.Float64()
	// Inverse CDF: k = floor(ln(1-u) / ln(1-p)).
	return int(math.Log(1-u) / math.Log(1-p))
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Categorical samples an index from unnormalized non-negative weights
// by inverse-CDF walk. Panics if all weights are zero.
func (g *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: Categorical negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical all-zero weights")
	}
	u := g.r.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1
}

// LogNormal samples exp(N(mu, sigma)).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Gamma samples from Gamma(shape, scale) with mean shape*scale using
// the Marsaglia–Tsang squeeze method (2000). Shapes below 1 are boosted
// via the Gamma(shape+1) * U^(1/shape) identity. The workload layer
// uses unit-mean Gamma multipliers (shape=1/cv², scale=cv²) to build
// bursty doubly-stochastic arrival processes.
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// Boost: X ~ Gamma(a+1), X * U^(1/a) ~ Gamma(a).
		u := g.r.Float64()
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = g.r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull samples from Weibull(shape k, scale λ) by inverse CDF:
// λ * (-ln(1-U))^(1/k). The mean is λ·Γ(1+1/k); shape k < 1 gives
// heavy-tailed (bursty) interarrivals, k > 1 regular ones.
func (g *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull requires shape > 0 and scale > 0")
	}
	u := g.r.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// ZipfWeights returns n unnormalized Zipf(s) weights: w[i] = 1/(i+1)^s.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// Alias is a Walker alias table for O(1) categorical sampling; it is the
// hot-path counterpart of RNG.Categorical for large, fixed weight sets.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from unnormalized non-negative weights.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: NewAlias negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: NewAlias all-zero weights")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws an index from the alias table using g.
func (a *Alias) Sample(g *RNG) int {
	i := g.Intn(len(a.prob))
	if g.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

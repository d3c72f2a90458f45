package experiments

import (
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// The two non-RNN end-to-end generators of §6, the yardsticks of
// Figures 7–9 and Table 5.

// naiveGenerator is the traditional baseline (§6): independent VM
// arrivals from a Poisson regression, i.i.d. flavors from the training
// multinomial, i.i.d. lifetimes from the per-flavor Kaplan-Meier.
type naiveGenerator struct {
	arrival   *core.ArrivalModel // VM-level counts, no DOH
	flavors   *trace.FlavorSet
	flavorW   *rng.Alias
	lifetimes *perFlavorKMLifetime
	bins      survival.Bins
}

// NewNaiveGenerator fits the Naive baseline on the training trace.
func NewNaiveGenerator(tr *trace.Trace, bins survival.Bins) (core.Generator, error) {
	arr, err := core.TrainArrival(tr, core.ArrivalOptions{Kind: core.VMArrivals, UseDOH: false})
	if err != nil {
		return nil, err
	}
	return &naiveGenerator{
		arrival:   arr,
		flavors:   tr.Flavors,
		flavorW:   flavorWeights(tr),
		lifetimes: newPerFlavorKMLifetime(tr, bins),
		bins:      bins,
	}, nil
}

func (n *naiveGenerator) Name() string { return "Naive" }

// Generate implements core.Generator: every VM is its own single-job
// batch from a fresh user (full independence).
func (n *naiveGenerator) Generate(g *rng.RNG, w trace.Window) *trace.Trace {
	out := &trace.Trace{Flavors: n.flavors, Periods: w.Periods()}
	id := 0
	for p := w.Start; p < w.End; p++ {
		count := g.Poisson(n.arrival.Rate(p, 0))
		for v := 0; v < count; v++ {
			fl := n.flavorW.Sample(g)
			hz := n.lifetimes.Hazard(core.LifetimeStep{Flavor: fl}, 0)
			dur := survival.SampleDuration(hz, n.bins, g, survival.CDI)
			out.VMs = append(out.VMs, trace.VM{
				ID: id, User: id, Flavor: fl, Start: p - w.Start, Duration: dur,
			})
			id++
		}
	}
	return out
}

// simpleBatchGenerator is the paper's non-RNN batch-aware baseline (§6):
// batch arrivals from the proposed Poisson regression, batch sizes from
// the empirical training distribution, one flavor and one lifetime
// shared by the whole batch.
type simpleBatchGenerator struct {
	arrival   *core.ArrivalModel
	flavors   *trace.FlavorSet
	sizes     *rng.Alias
	sizeVals  []int
	flavorW   *rng.Alias
	lifetimes *perFlavorKMLifetime
	bins      survival.Bins
}

// newSimpleBatchGenerator fits the SimpleBatch baseline on the training
// trace.
func newSimpleBatchGenerator(tr *trace.Trace, bins survival.Bins) (*simpleBatchGenerator, error) {
	arr, err := core.TrainArrival(tr, core.ArrivalOptions{
		Kind:   core.BatchArrivals,
		UseDOH: true,
		DOH:    features.DOHSampler{Mode: features.DOHGeometric, GeomP: 1.0 / 7.0},
	})
	if err != nil {
		return nil, err
	}
	// Empirical batch-size distribution (sorted for determinism).
	sizeCounts := map[int]int{}
	maxSize := 0
	for _, batches := range tr.PeriodBatches() {
		for _, b := range batches {
			sizeCounts[len(b.Indices)]++
			maxSize = max(maxSize, len(b.Indices))
		}
	}
	var vals []int
	var weights []float64
	for s := 1; s <= maxSize; s++ {
		if c := sizeCounts[s]; c > 0 {
			vals = append(vals, s)
			weights = append(weights, float64(c))
		}
	}
	if len(vals) == 0 {
		vals, weights = []int{1}, []float64{1}
	}
	return &simpleBatchGenerator{
		arrival:   arr,
		flavors:   tr.Flavors,
		sizes:     rng.NewAlias(weights),
		sizeVals:  vals,
		flavorW:   flavorWeights(tr),
		lifetimes: newPerFlavorKMLifetime(tr, bins),
		bins:      bins,
	}, nil
}

func (s *simpleBatchGenerator) Name() string { return "SimpleBatch" }

// Generate implements core.Generator.
func (s *simpleBatchGenerator) Generate(g *rng.RNG, w trace.Window) *trace.Trace {
	out := &trace.Trace{Flavors: s.flavors, Periods: w.Periods()}
	id, user := 0, 0
	for p := w.Start; p < w.End; p++ {
		nBatches := g.Poisson(s.arrival.Rate(p, s.arrival.DOH.Sample(g)))
		for b := 0; b < nBatches; b++ {
			size := s.sizeVals[s.sizes.Sample(g)]
			fl := s.flavorW.Sample(g)
			hz := s.lifetimes.Hazard(core.LifetimeStep{Flavor: fl}, 0)
			dur := survival.SampleDuration(hz, s.bins, g, survival.CDI)
			for v := 0; v < size; v++ {
				out.VMs = append(out.VMs, trace.VM{
					ID: id, User: user, Flavor: fl, Start: p - w.Start, Duration: dur,
				})
				id++
			}
			user++
		}
	}
	return out
}

// flavorWeights is the alias table of the training flavor frequencies,
// every flavor kept drawable with a vanishing weight.
func flavorWeights(tr *trace.Trace) *rng.Alias {
	counts := make([]float64, tr.Flavors.K())
	for i := range counts {
		counts[i] = 1e-9
	}
	for _, vm := range tr.VMs {
		counts[vm.Flavor]++
	}
	return rng.NewAlias(counts)
}

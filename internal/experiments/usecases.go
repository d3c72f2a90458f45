package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/trace"
)

// splitStreams derives n child RNG streams from g, in order. Splitting
// happens serially before any parallel region, so the streams — and
// therefore every downstream draw — do not depend on the worker count.
func splitStreams(g *rng.RNG, n int) []*rng.RNG {
	gs := make([]*rng.RNG, n)
	for i := range gs {
		gs[i] = g.Split()
	}
	return gs
}

// CapacityResult is one generator's row in a Figure 7/8 experiment.
type CapacityResult struct {
	Generator string
	Coverage  float64
	Forecast  capacity.Forecast `json:"-"`
}

// sampleTraces draws one test-window trace from gen per stream of gs.
// Generators that support continuous batching decode every stream
// through shared step GEMMs, one fleet per core; the rest sample in
// parallel. Both paths produce the same traces as a serial run, stream
// for stream.
func sampleTraces(c *Cloud, gen core.Generator, gs []*rng.RNG) []*trace.Trace {
	if bg, ok := gen.(core.BatchGenerator); ok {
		return bg.GenerateBatch(gs, c.TestW)
	}
	trs := make([]*trace.Trace, len(gs))
	par.Do(len(gs), func(i int) { trs[i] = gen.Generate(gs[i], c.TestW) })
	return trs
}

// sampleCPUSeries generates n traces from pre-split streams of seed and
// returns their total-CPU series.
func sampleCPUSeries(c *Cloud, gen core.Generator, n int, seed int64) [][]float64 {
	out := make([][]float64, n)
	for i, tr := range sampleTraces(c, gen, splitStreams(rng.New(seed), n)) {
		out[i] = capacity.TotalCPUSeries(core.WithCatalog(tr, c.Full.Flavors))
	}
	return out
}

// CapacityPlanning reproduces Figures 7 (Azure) and 8 (Huawei): 90%
// prediction intervals for total CPUs over the test window from each
// generator, with the carried-over load of VMs already running at the
// window start added to every model (§6.1).
func CapacityPlanning(c *Cloud, gens []core.Generator) []CapacityResult {
	carry := capacity.CarryOverSeries(c.Full, c.TestW)
	actual := capacity.TotalCPUSeries(c.Full.Slice(c.TestW, 0))
	out := make([]CapacityResult, 0, len(gens))
	for gi, gen := range gens {
		samples := sampleCPUSeries(c, gen, c.Scale.Samples, c.Scale.Seed+int64(1000+gi))
		f := capacity.Evaluate(samples, actual, carry, 0.9)
		out = append(out, CapacityResult{Generator: gen.Name(), Coverage: f.Coverage, Forecast: f})
	}
	return out
}

// Figure7 runs capacity planning with the three §6 generators.
func Figure7(c *Cloud) []CapacityResult {
	return CapacityPlanning(c, c.Generators())
}

// Figure8 runs capacity planning on the Huawei-like cloud, adding the
// no-DOH LSTM ablation the paper reports (92.8% with DOH sampling vs
// 61.9% without).
func Figure8(c *Cloud) []CapacityResult {
	// The ablation's generator always encodes the last history day
	// instead of sampling DOH days.
	noDOH := *c.Model()
	arr := *noDOH.Arrival
	arr.DOH.Mode = features.DOHLastDay
	noDOH.Arrival = &arr
	gens := append(c.Generators(), namedGenerator{&noDOH, "LSTM (no DOH sampling)"})
	return CapacityPlanning(c, gens)
}

// namedGenerator overrides a generator's display name.
type namedGenerator struct {
	core.Generator
	name string
}

func (n namedGenerator) Name() string { return n.name }

// ReuseResult is one generator's reuse-distance distribution (Figure 9):
// per-bucket min/mean/max proportions across the sampled traces.
type ReuseResult struct {
	Generator string
	Min       []float64
	Mean      []float64
	Max       []float64
}

// ReuseFigure is Figure 9: the test data's reuse-distance distribution
// and each generator's.
type ReuseFigure struct {
	Actual     []float64
	Generators []ReuseResult
}

// Figure9 computes reuse-distance distributions for the actual test data
// and for samples from each generator.
func Figure9(c *Cloud) ReuseFigure {
	fig := ReuseFigure{Actual: sched.ReuseHistogram(sched.ReuseDistances(c.Test))}
	for gi, gen := range c.Generators() {
		// Reuse distributions are stable across samples; a fraction of
		// the capacity-planning sample count suffices.
		n := c.Scale.Samples/5 + 1
		gs := splitStreams(rng.New(c.Scale.Seed+int64(2000+gi)), n)
		res := ReuseResult{Generator: gen.Name()}
		for _, tr := range sampleTraces(c, gen, gs) {
			h := sched.ReuseHistogram(sched.ReuseDistances(tr))
			if res.Mean == nil {
				res.Min, res.Max, res.Mean = slices.Clone(h), slices.Clone(h), make([]float64, len(h))
			}
			for i, v := range h {
				res.Min[i] = math.Min(res.Min[i], v)
				res.Max[i] = math.Max(res.Max[i], v)
				res.Mean[i] += v
			}
		}
		for i := range res.Mean {
			res.Mean[i] /= float64(n)
		}
		fig.Generators = append(fig.Generators, res)
	}
	return fig
}

// PackingResult summarizes Table 5 / Figure 10 for one trace source:
// per-tuple limiting-resource FFARs, their median, and the fraction of
// packings exceeding 0.95.
type PackingResult struct {
	Source string
	FFARs  []sched.PackResult `json:"-"`
	Median float64
	Frac95 float64
}

func summarizePacking(name string, results []sched.PackResult) PackingResult {
	limiting := make([]float64, len(results))
	over := 0
	for i, r := range results {
		limiting[i] = r.Limiting
		if r.Limiting > 0.95 {
			over++
		}
	}
	med := 0.0
	if len(limiting) > 0 {
		med = metrics.Quantile(limiting, 0.5)
	}
	frac := 0.0
	if len(results) > 0 {
		frac = float64(over) / float64(len(results))
	}
	return PackingResult{Source: name, FFARs: results, Median: med, Frac95: frac}
}

// packTrace runs every tuple against one trace. The tuples share one
// sequential RNG stream (Pack's draw count is data-dependent), so the
// loop itself stays serial; Table5 parallelizes across sources instead.
func packTrace(tr *trace.Trace, tuples []sched.Tuple, seed int64) []sched.PackResult {
	g := rng.New(seed)
	events := sched.Events(tr, g.Split())
	out := make([]sched.PackResult, len(tuples))
	for i, tp := range tuples {
		out[i] = sched.RunTuple(tr, events, tp, g)
	}
	return out
}

// defaultTupleRanges sizes clusters so that CPU and memory are each the
// limiting resource in roughly half the packings (§6.2). The ranges are
// expressed relative to the cloud's mean per-VM demand.
func defaultTupleRanges(c *Cloud) sched.TupleRanges {
	var cpu, mem float64
	for _, vm := range c.Train.VMs {
		cpu += c.Full.Flavors.Defs[vm.Flavor].CPU
		mem += c.Full.Flavors.Defs[vm.Flavor].MemGB
	}
	n := float64(len(c.Train.VMs))
	if n == 0 {
		n = 1
	}
	meanCPU, meanMem := cpu/n, mem/n
	return sched.TupleRanges{
		MinServers: 5, MaxServers: 25,
		MinCPU: 4 * meanCPU, MaxCPU: 16 * meanCPU,
		MinMem: 4 * meanMem, MaxMem: 16 * meanMem,
	}
}

// Table5 reproduces the packing experiments of Table 5 / Figure 10: the
// same random scheduling tuples applied to the actual test data and to
// one sampled trace per tuple from each generator.
func Table5(c *Cloud) []PackingResult {
	tuples := sched.SampleTuples(rng.New(c.Scale.Seed+31), c.Scale.Tuples, defaultTupleRanges(c))
	gens := c.Generators()
	// Within one source the tuples share a single sequential RNG stream
	// (trace sampling, event jitter, and packing interleave draws whose
	// counts are data-dependent), so each source runs serially and the
	// fan-out is across sources. Every source seeds its own generator,
	// so the per-source streams — and hence the results — match a fully
	// serial run exactly.
	out := make([]PackingResult, len(gens)+1)
	par.Do(len(gens)+1, func(gi int) {
		if gi == len(gens) {
			out[gi] = summarizePacking("Test data", packTrace(c.Test, tuples, c.Scale.Seed+41))
			return
		}
		gen := gens[gi]
		g := rng.New(c.Scale.Seed + int64(3000+gi))
		results := make([]sched.PackResult, len(tuples))
		for i, tp := range tuples {
			tr := core.WithCatalog(gen.Generate(g.Split(), c.TestW), c.Full.Flavors)
			events := sched.Events(tr, g.Split())
			results[i] = sched.RunTuple(tr, events, tp, g)
		}
		out[gi] = summarizePacking(gen.Name(), results)
	})
	return out
}

// TenXResult holds the §6.2 10×-scaling robustness check: reuse
// histograms and packing summaries at 1× and 10× arrival rates for the
// LSTM generator.
type TenXResult struct {
	Reuse1x, Reuse10x []float64
	Pack1x, Pack10x   PackingResult
	VMRatio           float64
}

// TenX scales the LSTM generator's arrival rate 10× ("changing a single
// line of code", footnote 5) and verifies the reuse and FFAR shapes
// survive, using arrivals-only packings as in the paper's variation.
func TenX(c *Cloud) TenXResult {
	base := c.Model()
	scaled, err := core.Tilted(base, core.WhatIf{RateScale: 10})
	if err != nil {
		panic(fmt.Sprintf("experiments: tenx %s: %v", c.ID, err))
	}
	g := rng.New(c.Scale.Seed + 51)
	tr1 := core.WithCatalog(base.Generate(g.Split(), c.TestW), c.Full.Flavors)
	tr10 := core.WithCatalog(scaled.Generate(g.Split(), c.TestW), c.Full.Flavors)

	tuples := sched.SampleTuples(rng.New(c.Scale.Seed+52), c.Scale.Tuples, defaultTupleRanges(c))
	packArrivalsOnly := func(tr *trace.Trace, seed int64) []sched.PackResult {
		gg := rng.New(seed)
		events := sched.Events(tr, gg.Split())
		gs := splitStreams(gg, len(tuples))
		out := make([]sched.PackResult, len(tuples))
		par.Do(len(tuples), func(i int) {
			tp := tuples[i]
			start := int(tp.StartFrac * float64(len(events)))
			out[i] = sched.Pack(tr, events, sched.PackOptions{
				Servers: tp.Servers, CPUCap: tp.CPUCap, MemCap: tp.MemCap,
				Alg: sched.Algorithms()[tp.AlgIndex], Start: start, NoDeparts: true,
			}, gs[i])
		})
		return out
	}
	res := TenXResult{
		Reuse1x:  sched.ReuseHistogram(sched.ReuseDistances(tr1)),
		Reuse10x: sched.ReuseHistogram(sched.ReuseDistances(tr10)),
		Pack1x:   summarizePacking("LSTM 1x", packArrivalsOnly(tr1, c.Scale.Seed+53)),
		Pack10x:  summarizePacking("LSTM 10x", packArrivalsOnly(tr10, c.Scale.Seed+54)),
	}
	if len(tr1.VMs) > 0 {
		res.VMRatio = float64(len(tr10.VMs)) / float64(len(tr1.VMs))
	}
	return res
}

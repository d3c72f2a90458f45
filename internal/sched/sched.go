// Package sched is the VM-scheduler substrate for the paper's §6.2
// workload-scheduling experiments: an event-driven placement simulator
// with the four packing algorithms the paper samples from (random
// placement, busiest-fit, cosine similarity [Tetris], and delta
// perpendicular-distance [Fundy]), the first-failure allocation ratio
// (FFAR) metric, and the reuse-distance metric of Protean.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Request is one VM placement request.
type Request struct {
	VM  int // index into the source trace's VMs
	CPU float64
	Mem float64
}

// Server is one physical machine in the simulated cluster.
type Server struct {
	CPUCap, MemCap   float64
	CPUUsed, MemUsed float64
}

// Fits reports whether the request fits in the server's free capacity.
func (s *Server) Fits(r Request) bool {
	return s.CPUUsed+r.CPU <= s.CPUCap+1e-9 && s.MemUsed+r.Mem <= s.MemCap+1e-9
}

// Algorithm selects a server for a request. Choose returns the index of
// the chosen feasible server, or -1 when no server fits.
type Algorithm interface {
	Name() string
	Choose(servers []Server, r Request, g *rng.RNG) int
}

// Random places the request on a uniformly random feasible server.
type Random struct{}

// Name implements Algorithm.
func (Random) Name() string { return "Random" }

// Choose implements Algorithm.
func (Random) Choose(servers []Server, r Request, g *rng.RNG) int {
	feasible := make([]int, 0, len(servers))
	for i := range servers {
		if servers[i].Fits(r) {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) == 0 {
		return -1
	}
	return feasible[g.Intn(len(feasible))]
}

// BusiestFit places the request on the feasible server with the highest
// current utilization (normalized CPU + memory), packing tightly.
type BusiestFit struct{}

// Name implements Algorithm.
func (BusiestFit) Name() string { return "BusiestFit" }

// Choose implements Algorithm.
func (BusiestFit) Choose(servers []Server, r Request, _ *rng.RNG) int {
	best, bestScore := -1, math.Inf(-1)
	for i := range servers {
		s := &servers[i]
		if !s.Fits(r) {
			continue
		}
		score := s.CPUUsed/s.CPUCap + s.MemUsed/s.MemCap
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// CosineSimilarity places the request on the feasible server whose
// remaining-capacity vector is best aligned with the request vector
// (the multi-resource packing heuristic of Grandl et al.).
type CosineSimilarity struct{}

// Name implements Algorithm.
func (CosineSimilarity) Name() string { return "Cosine" }

// Choose implements Algorithm.
func (CosineSimilarity) Choose(servers []Server, r Request, _ *rng.RNG) int {
	best, bestScore := -1, math.Inf(-1)
	for i := range servers {
		s := &servers[i]
		if !s.Fits(r) {
			continue
		}
		freeCPU := (s.CPUCap - s.CPUUsed) / s.CPUCap
		freeMem := (s.MemCap - s.MemUsed) / s.MemCap
		reqCPU := r.CPU / s.CPUCap
		reqMem := r.Mem / s.MemCap
		dot := freeCPU*reqCPU + freeMem*reqMem
		na := math.Sqrt(freeCPU*freeCPU + freeMem*freeMem)
		nb := math.Sqrt(reqCPU*reqCPU + reqMem*reqMem)
		score := 0.0
		if na > 0 && nb > 0 {
			score = dot / (na * nb)
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// DeltaPerpDistance places the request on the feasible server that
// minimizes the increase of the utilization point's perpendicular
// distance from the balanced-use diagonal (the Fundy heuristic).
type DeltaPerpDistance struct{}

// Name implements Algorithm.
func (DeltaPerpDistance) Name() string { return "DeltaPerp" }

func perpDist(cpuFrac, memFrac float64) float64 {
	return math.Abs(cpuFrac-memFrac) / math.Sqrt2
}

// Choose implements Algorithm.
func (DeltaPerpDistance) Choose(servers []Server, r Request, _ *rng.RNG) int {
	best, bestDelta := -1, math.Inf(1)
	for i := range servers {
		s := &servers[i]
		if !s.Fits(r) {
			continue
		}
		before := perpDist(s.CPUUsed/s.CPUCap, s.MemUsed/s.MemCap)
		after := perpDist((s.CPUUsed+r.CPU)/s.CPUCap, (s.MemUsed+r.Mem)/s.MemCap)
		delta := after - before
		if delta < bestDelta {
			best, bestDelta = i, delta
		}
	}
	return best
}

// Algorithms returns the four paper algorithms in a stable order.
func Algorithms() []Algorithm {
	return []Algorithm{Random{}, BusiestFit{}, CosineSimilarity{}, DeltaPerpDistance{}}
}

// Event is one arrival or departure in the replay stream.
type Event struct {
	Time    float64
	Arrival bool
	VM      int // index into the trace's VMs
}

// Events builds the time-ordered arrival/departure stream for a trace
// per §2.4: arrivals are spread across their 5-minute period in
// generative order; each departure happens at arrival + duration, which
// interleaves departures with arrivals. g jitters departure placement
// within their own period; pass nil for deterministic spreading only.
func Events(tr *trace.Trace, g *rng.RNG) []Event {
	perPeriod := make(map[int][]int)
	maxPeriod := -1
	for i, vm := range tr.VMs {
		perPeriod[vm.Start] = append(perPeriod[vm.Start], i)
		if vm.Start > maxPeriod {
			maxPeriod = vm.Start
		}
	}
	// Iterate periods in order (not map order) so the jitter RNG draws
	// are assigned deterministically.
	events := make([]Event, 0, 2*len(tr.VMs))
	for p := 0; p <= maxPeriod; p++ {
		idxs, ok := perPeriod[p]
		if !ok {
			continue
		}
		n := len(idxs)
		for k, i := range idxs {
			at := float64(p)*trace.PeriodSeconds +
				trace.PeriodSeconds*float64(k+1)/float64(n+1)
			events = append(events, Event{Time: at, Arrival: true, VM: i})
			dur := tr.VMs[i].Duration
			if g != nil {
				// Re-place the departure uniformly within its period.
				depPeriod := math.Floor((at + dur) / trace.PeriodSeconds)
				dep := (depPeriod + g.Float64()) * trace.PeriodSeconds
				if dep <= at {
					dep = at + 1
				}
				events = append(events, Event{Time: dep, Arrival: false, VM: i})
			} else {
				events = append(events, Event{Time: at + dur, Arrival: false, VM: i})
			}
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].Time != events[b].Time {
			return events[a].Time < events[b].Time
		}
		// Departures before arrivals at identical times frees capacity
		// first, the optimistic (and conventional) tie-break.
		return !events[a].Arrival && events[b].Arrival
	})
	return events
}

// PackResult summarizes one packing run.
type PackResult struct {
	Failed   bool
	Placed   int     // requests placed before the first failure
	CPUFFAR  float64 // allocated CPU fraction at first failure
	MemFFAR  float64 // allocated memory fraction at first failure
	Limiting float64 // FFAR of the limiting (higher-FFAR) resource
}

// PackOptions configures a packing run.
type PackOptions struct {
	Servers   int
	CPUCap    float64
	MemCap    float64
	Alg       Algorithm
	Start     int  // index into the event stream to start from
	NoDeparts bool // arrivals-only variant (§6.2 robustness check)
}

// Pack replays the event stream onto an empty cluster until the first
// placement failure (or the stream ends) and reports FFAR. Departures of
// VMs that were never placed (e.g. they arrived before Start) are
// ignored.
func Pack(tr *trace.Trace, events []Event, opt PackOptions, g *rng.RNG) PackResult {
	if opt.Servers <= 0 || opt.CPUCap <= 0 || opt.MemCap <= 0 {
		panic(fmt.Sprintf("sched: bad pack options %+v", opt))
	}
	servers := make([]Server, opt.Servers)
	for i := range servers {
		servers[i] = Server{CPUCap: opt.CPUCap, MemCap: opt.MemCap}
	}
	placed := make(map[int]int) // vm index -> server
	var res PackResult
	for e := opt.Start; e < len(events); e++ {
		ev := events[e]
		vm := tr.VMs[ev.VM]
		if !ev.Arrival {
			if opt.NoDeparts {
				continue
			}
			if srv, ok := placed[ev.VM]; ok {
				def := tr.Flavors.Defs[vm.Flavor]
				servers[srv].CPUUsed -= def.CPU
				servers[srv].MemUsed -= def.MemGB
				delete(placed, ev.VM)
			}
			continue
		}
		def := tr.Flavors.Defs[vm.Flavor]
		req := Request{VM: ev.VM, CPU: def.CPU, Mem: def.MemGB}
		srv := opt.Alg.Choose(servers, req, g)
		if srv < 0 {
			res.Failed = true
			break
		}
		servers[srv].CPUUsed += req.CPU
		servers[srv].MemUsed += req.Mem
		placed[ev.VM] = srv
		res.Placed++
	}
	var cpuUsed, memUsed float64
	for i := range servers {
		cpuUsed += servers[i].CPUUsed
		memUsed += servers[i].MemUsed
	}
	res.CPUFFAR = cpuUsed / (float64(opt.Servers) * opt.CPUCap)
	res.MemFFAR = memUsed / (float64(opt.Servers) * opt.MemCap)
	res.Limiting = math.Max(res.CPUFFAR, res.MemFFAR)
	return res
}

// ReuseDistances computes, for each VM request in trace arrival order,
// the number of unique flavors requested since the last request of the
// same flavor (Protean's reuse-distance metric). First-time flavors get
// distance math.MaxInt (bucketed as "6+" downstream).
func ReuseDistances(tr *trace.Trace) []int {
	// Move-to-front list of flavors, most recent first; the reuse
	// distance is the list index (number of distinct flavors requested
	// more recently). The flavor universe is small (≤ a few hundred), so
	// a linear scan per request is cheap.
	var stack []int
	out := make([]int, len(tr.VMs))
	for i, vm := range tr.VMs {
		idx := -1
		for j, f := range stack {
			if f == vm.Flavor {
				idx = j
				break
			}
		}
		if idx < 0 {
			out[i] = math.MaxInt
		} else {
			out[i] = idx
			stack = append(stack[:idx], stack[idx+1:]...)
		}
		stack = append(stack, 0)
		copy(stack[1:], stack[:len(stack)-1])
		stack[0] = vm.Flavor
	}
	return out
}

// ReuseBuckets is the Figure 9 x-axis: distances 0..5 and "6+"
// (first-time flavors land in 6+).
const ReuseBuckets = 7

// ReuseHistogram buckets reuse distances into 0..5 and 6+ proportions.
func ReuseHistogram(distances []int) []float64 {
	counts := make([]int, ReuseBuckets)
	for _, d := range distances {
		if d >= 6 {
			counts[6]++
		} else {
			counts[d]++
		}
	}
	out := make([]float64, ReuseBuckets)
	if len(distances) == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(len(distances))
	}
	return out
}

// Tuple is one randomly sampled scheduling configuration (§6.2).
type Tuple struct {
	StartFrac float64 // fraction through the event stream to start at
	Servers   int
	CPUCap    float64
	MemCap    float64
	AlgIndex  int // index into Algorithms()
}

// TupleRanges bounds the tuple sampler. Capacities are sampled
// log-uniformly between the min and max.
type TupleRanges struct {
	MinServers, MaxServers int
	MinCPU, MaxCPU         float64
	MinMem, MaxMem         float64
}

// SampleTuples draws n scheduling tuples. The same tuples are reused
// across generators to reduce variance, as in the paper.
func SampleTuples(g *rng.RNG, n int, r TupleRanges) []Tuple {
	if r.MinServers <= 0 || r.MaxServers < r.MinServers {
		panic(fmt.Sprintf("sched: bad tuple ranges %+v", r))
	}
	algs := len(Algorithms())
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{
			StartFrac: g.Float64() * 0.5,
			Servers:   r.MinServers + g.Intn(r.MaxServers-r.MinServers+1),
			CPUCap:    logUniform(g, r.MinCPU, r.MaxCPU),
			MemCap:    logUniform(g, r.MinMem, r.MaxMem),
			AlgIndex:  g.Intn(algs),
		}
	}
	return out
}

func logUniform(g *rng.RNG, lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("sched: logUniform needs 0 < lo <= hi")
	}
	return math.Exp(g.Uniform(math.Log(lo), math.Log(hi)))
}

// RunTuple packs the trace under one tuple and returns the result.
func RunTuple(tr *trace.Trace, events []Event, tp Tuple, g *rng.RNG) PackResult {
	start := int(tp.StartFrac * float64(len(events)))
	return Pack(tr, events, PackOptions{
		Servers: tp.Servers,
		CPUCap:  tp.CPUCap,
		MemCap:  tp.MemCap,
		Alg:     Algorithms()[tp.AlgIndex],
		Start:   start,
	}, g)
}

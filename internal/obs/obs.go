// Package obs is the repository's instrumentation layer: atomic
// counters and gauges, fixed-bucket histograms, and a structured JSONL
// run journal with phase span timers (journal.go). It is stdlib-only and
// deliberately read-only with respect to the rest of the system — no
// obs call ever touches an RNG stream or model state, so enabling
// instrumentation cannot change generated traces or trained weights
// (the root determinism test pins this).
//
// Hot-path cost: Counter.Inc / Gauge.Add are a single atomic add;
// Histogram.Observe is a short linear bucket scan plus three atomic
// operations, with zero allocations. Registry lookups take a mutex, so
// callers resolve metrics once (at construction / handler-wiring time)
// and hold the pointer.
package obs

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; this is not enforced on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// LatencyBuckets is the default upper-bound layout for request/phase
// latencies in seconds: 1ms to 60s, roughly logarithmic. Values above
// the last bound land in the overflow bucket.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram: len(bounds)+1 atomic bucket
// counts (the last is overflow), a total count, and a CAS-accumulated
// sum. Bounds are upper bounds in ascending order and are immutable
// after construction.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns a consistent-enough copy for reporting (individual
// fields are atomically read; cross-field skew of in-flight updates is
// acceptable for monitoring).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	// Derived p50/p90/p99 ride along with every snapshot so /metrics
	// consumers get tail latencies without re-deriving them from raw
	// buckets (DESIGN.md §7).
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// HistogramSnapshot is the JSON-marshalable view of a Histogram.
// Counts has len(Bounds)+1 entries; the final entry counts values above
// the last bound (kept separate so +Inf never appears in JSON).
// P50/P90/P99 are the interpolated Quantile values at snapshot time
// (0 when the histogram is empty).
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
}

// Quantile returns an approximate q-quantile (0 < q < 1) by linear
// interpolation within the containing bucket. Values in the overflow
// bucket report the last bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		frac := (rank - prev) / float64(c)
		return lo + frac*(s.Bounds[i]-lo)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Registry is a named collection of metrics. Get-or-create lookups are
// mutex-protected; the returned metric pointers are lock-free to
// update, so callers resolve names once and keep the pointer.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFamily returns the n gauges "prefix.0" … "prefix.<n-1>",
// creating any that don't exist yet. It is the per-index variant of
// Gauge for fixed-cardinality dimensions known at wiring time (e.g.
// decode shards: decode.shard_occupancy.<k>); callers index the
// returned slice on the hot path instead of formatting names.
func (r *Registry) GaugeFamily(prefix string, n int) []*Gauge {
	gs := make([]*Gauge, n)
	for i := range gs {
		gs[i] = r.Gauge(prefix + "." + strconv.Itoa(i))
	}
	return gs
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns a JSON-marshalable view of every metric. Map keys
// marshal in sorted order, so serialized snapshots are stable.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is the point-in-time view of a Registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

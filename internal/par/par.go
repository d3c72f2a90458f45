// Package par is the deterministic parallel execution layer: a bounded
// worker scheme with a process-wide worker count (REPRO_PROCS env
// override, runtime.NumCPU() default) and Do, the one helper for
// running independent index-addressed tasks concurrently. Process-wide
// utilization counters (regions, tasks, worker busy/spawn-wait time)
// are exposed via Snapshot for the observability layer (/metrics,
// expvar).
//
// Determinism contract: every caller must arrange the work so the
// result is independent of scheduling order — each task writes only to
// its own index of a pre-sized slice (or to a disjoint row range), and
// any floating-point or RNG-consuming reduction happens in fixed index
// order: after the region on the caller's goroutine, or inside it by
// whichever worker holds a reduction role that takes finished indices
// strictly in ascending order (the training window's gradient commit).
// Under that contract the output is bit-identical for any worker count,
// which the root determinism regression test enforces end-to-end.
//
// A region's workers are the calling goroutine, which runs tasks
// itself, and Procs()-1 goroutines spawned per call, rather than
// workers parked in a shared global pool: nested parallel regions (e.g.
// a pipelined Model.Generate inside a parallel Monte-Carlo sweep) would
// deadlock a fixed-size shared pool, while per-call workers compose
// freely and the spawn cost (~1µs) is negligible at the granularity
// this repository parallelizes (training windows, experiment tasks,
// trace samples, packing trials). Linear-algebra kernels never open a
// region of their own: a training window, from its shards' input
// encoding to its optimizer step, is one region.
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// procs is the current worker count. It is stored atomically so tests
// (and the determinism harness) can flip it at runtime.
var procs atomic.Int32

func init() { procs.Store(int32(defaultProcs())) }

// defaultProcs resolves the initial worker count: the REPRO_PROCS
// environment variable when set to a positive integer, else the number
// of logical CPUs.
func defaultProcs() int {
	if s := os.Getenv("REPRO_PROCS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.NumCPU()
}

// Procs returns the current worker count. A value of 1 selects the
// serial path everywhere.
func Procs() int { return int(procs.Load()) }

// SetProcs overrides the worker count (the programmatic equivalent of
// REPRO_PROCS) and returns the previous value so callers can restore it:
//
//	defer par.SetProcs(par.SetProcs(8))
//
// Values below 1 are clamped to 1.
func SetProcs(n int) int {
	if n < 1 {
		n = 1
	}
	return int(procs.Swap(int32(n)))
}

// Stats is a point-in-time snapshot of the process-wide parallel-layer
// counters: how many parallel regions ran, how many tasks they carried,
// how many workers ran them (the calling goroutine counts as one; a
// serial region counts none), and the accumulated wall, busy, and
// spawn-wait times. Utilization over an interval is the delta of
// BusyNanos divided by (delta of WallNanos × worker count); SpawnNanos
// is the region-entry latency (time from Do being called to each
// worker, the caller included, starting to claim tasks) — the per-call
// analogue of queue wait in a pooled design.
type Stats struct {
	Regions    int64 `json:"regions"`
	Tasks      int64 `json:"tasks"`
	Workers    int64 `json:"workers"`
	WallNanos  int64 `json:"wall_nanos"`
	BusyNanos  int64 `json:"busy_nanos"`
	SpawnNanos int64 `json:"spawn_nanos"`
}

// Counters are process-wide and monotonic; consumers (the /metrics
// endpoint, expvar) report values or deltas. Cost per region: two
// clock reads and a handful of atomic adds — noise next to the
// millisecond-scale work Do fans out (the bench.sh overhead comparison
// keeps this honest).
var (
	statRegions atomic.Int64
	statTasks   atomic.Int64
	statWorkers atomic.Int64
	statWall    atomic.Int64
	statBusy    atomic.Int64
	statSpawn   atomic.Int64
)

// Snapshot returns the current counter values.
func Snapshot() Stats {
	return Stats{
		Regions:    statRegions.Load(),
		Tasks:      statTasks.Load(),
		Workers:    statWorkers.Load(),
		WallNanos:  statWall.Load(),
		BusyNanos:  statBusy.Load(),
		SpawnNanos: statSpawn.Load(),
	}
}

// Do runs fn(i) for every i in [0, n), spread over min(Procs(), n)
// workers: the calling goroutine, which runs tasks itself, and that
// many less one spawned goroutines. Workers claim indices in ascending
// order, so a task is claimed only after every lower index has been,
// which lets a task wait for work that lower indices finish (no index
// ever waits for a higher one). Tasks must be independent otherwise:
// fn(i) may read shared immutable state but must write only to state
// owned by index i. With Procs()==1 the tasks run inline in ascending
// order; otherwise completion order is unspecified, so reductions
// belong after Do returns.
//
// A panic in any task, the caller's own included, is re-raised on the
// calling goroutine after all workers have drained, preserving the
// package's panic-on-bug style.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	start := time.Now()
	statRegions.Add(1)
	statTasks.Add(int64(n))
	w := Procs()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(start).Nanoseconds()
		statWall.Add(d)
		statBusy.Add(d)
		return
	}
	statWorkers.Add(int64(w))
	r := &region{n: n, fn: fn, start: start}
	r.wg.Add(w - 1)
	for k := 1; k < w; k++ {
		go func() {
			defer r.wg.Done()
			r.work()
		}()
	}
	// A new goroutine waits in this P's next-to-run slot, which an idle
	// P steals only after a sleep (tens of µs on a 2-vCPU host); yielding
	// once starts it here at once and leaves the caller in the global run
	// queue for the P that wakes. Spawn wait per training window went
	// from ~90 to ~35 µs.
	runtime.Gosched()
	r.work()
	r.wg.Wait()
	statWall.Add(time.Since(start).Nanoseconds())
	if r.panicVal != nil {
		panic(r.panicVal)
	}
}

// region is one Do call's shared state: the task cursor and the first
// panic any worker recovered.
type region struct {
	n     int
	fn    func(i int)
	start time.Time
	next  atomic.Int64
	wg    sync.WaitGroup

	panicMu  sync.Mutex
	panicVal any
}

// work claims and runs tasks until none are left. A panic drains the
// remaining indices, so sibling workers exit promptly instead of
// running doomed work, and is kept for Do to re-raise.
func (r *region) work() {
	t0 := time.Now()
	statSpawn.Add(t0.Sub(r.start).Nanoseconds())
	defer func() {
		statBusy.Add(time.Since(t0).Nanoseconds())
		if v := recover(); v != nil {
			r.panicMu.Lock()
			if r.panicVal == nil {
				r.panicVal = v
			}
			r.panicMu.Unlock()
			r.next.Store(int64(r.n))
		}
	}()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			return
		}
		r.fn(i)
	}
}

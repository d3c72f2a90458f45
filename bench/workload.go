package main

import (
	"hash/fnv"
	"time"

	"repro/internal/obs"
)

// SLO classes of the mixed preset's cohorts, with the latency limit the
// open-loop workload holds each to.
const (
	classCritical = iota
	classBestEffort
	classBatch
	numClasses
	noClass = -1
)

var (
	className  = [numClasses]string{"critical", "best-effort", "batch"}
	classLimit = [numClasses]time.Duration{50 * time.Millisecond, 250 * time.Millisecond, 1000 * time.Millisecond}
)

// opStat is one finished operation.
type opStat struct {
	latNS int64
	class int // noClass when the workload has no SLO classes
	ok    bool
}

// sliceResult collects what one slice did. Workloads append to it.
type sliceResult struct {
	ops    []opStat
	bytes  int64     // response bytes received
	vms    int64     // VMs generated
	lateMS []float64 // open loop: how late the generator released each op
	err    error     // the first failure, for the report
}

func (r *sliceResult) noteErr(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// workloadRun is one prepared instance of a workload. The harness times
// slice from outside; everything else is untimed.
type workloadRun interface {
	// prepare builds the workload's serving side on top of the fixture
	// and runs a short warm-up. It is part of set-up time.
	prepare(fx *fixture, sl *spanLog) error
	// slice runs the i-th slice: a fixed, seeded list of operations.
	slice(i int, sl *spanLog, res *sliceResult)
	// finish joins layer-side spans into sl once the window is over.
	finish(sl *spanLog)
	// traceData hands over what the layers' own instruments recorded
	// during a traced window.
	traceData() traceData
	// verify re-derives the sampled outputs with the serial oracle and
	// returns how many did not match, plus a digest of the outputs that
	// two runs of the same build and seed must share.
	verify() (checked, mismatched int, digest uint64)
	close()
}

// traceData is layer-side telemetry of one traced window.
type traceData struct {
	engineRetries int64            // server: requests replayed on a new engine
	epochs        []obs.EpochEvent // training loops' per-epoch events
}

type workloadDef struct {
	name    string
	why     string
	fixture fixtureParams
	// openLoop: operations are released on a schedule, so throughput is
	// set by the schedule and is not host-corrected.
	openLoop bool
	// newRun makes a fresh instance. traced attaches the layers' own
	// tracers; quick shrinks slices for the smoke test.
	newRun func(seed int64, traced, quick bool) workloadRun
}

// The fixtures are sized so that one set-up (fit + snapshot round trip +
// engine publish + warm-up) is at least a second of deterministic work.
var workloads = []workloadDef{
	{
		name:    "serve_day",
		why:     "closed loop, 2 keep-alive connections POSTing one-day CSV requests to the default (batched f64) server: the out-of-box request path at 1-2 rows per decode batch",
		fixture: fixtureParams{days: 9, epochs: 3},
		newRun:  func(seed int64, traced, quick bool) workloadRun { return newServeDay(seed, traced, quick) },
	},
	{
		name:     "serve_open_mixed",
		why:      "open loop at 40 req/s with bursty per-cohort arrivals, three SLO classes of different size and format, f32 engine: idle gaps, coalescing bursts, queueing latency, JSON encode",
		fixture:  fixtureParams{days: 9, epochs: 3},
		openLoop: true,
		newRun:   func(seed int64, traced, quick bool) workloadRun { return newServeOpen(seed, traced, quick) },
	},
	{
		name:    "bulk_mc64",
		why:     "waves of 64 concurrent one-day streams straight into the batched f64 engine, no HTTP: the paper's Monte-Carlo use at 64-row occupancy, where server and trace encoding do nothing",
		fixture: fixtureParams{days: 9, epochs: 3},
		newRun:  func(seed int64, traced, quick bool) workloadRun { return newBulk(seed, traced, quick) },
	},
	{
		name:    "train_fit",
		why:     "repeated short fits of the flavor and lifetime LSTMs: nn forward/backward, transposed GEMMs and the parallel layer at 2 workers; decode changes must not move it",
		fixture: fixtureParams{days: 3, epochs: 8},
		newRun:  func(seed int64, traced, quick bool) workloadRun { return newTrainFit(seed, traced, quick) },
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opSeed derives the seed of operation j of slice i from the run seed
// (splitmix64 finaliser), never 0 because the server treats 0 as "pick
// one for me".
func opSeed(runSeed int64, slice, j int) int64 {
	x := uint64(runSeed)*0x9E3779B97F4A7C15 + uint64(slice)<<20 + uint64(j) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// sampledOps caps how many operations per run are kept for the oracle
// check: one per slice over the first eight slices.
const sampledOps = 8

// sampleIndex says which op of slice i (of n) is kept for verification,
// or -1 for none.
func sampleIndex(runSeed int64, i, n int) int {
	if i >= sampledOps || n == 0 {
		return -1
	}
	return int(uint64(opSeed(runSeed, i, 1<<19)) % uint64(n))
}

func digestBytes(h uint64, b []byte) uint64 {
	f := fnv.New64a()
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(h >> (8 * i))
	}
	f.Write(seed[:])
	f.Write(b)
	return f.Sum64()
}

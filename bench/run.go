package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// setupReps is how many times a run sets the workload up from scratch;
// setup_s is the median.
const setupReps = 3

// quickSlices is the window of a -quick smoke run: enough slices for
// train_fit to complete one training call of each kind.
const quickSlices = (trainFlavorEpochs + trainLifetimeEpochs) / trainSliceEpochs

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// prober times the frozen host probe and keeps the account of it.
type prober struct {
	hp      *hostProbe
	sl      *spanLog
	factors []float64
	spent   time.Duration
}

func (p *prober) probe() {
	t0 := time.Now()
	s := p.hp.sample()
	t1 := time.Now()
	p.sl.add("harness.probe", t0, t1, -1, -1)
	p.factors = append(p.factors, hostFactor(float64(s.computeNS), float64(s.memNS)))
	p.spent += t1.Sub(t0)
}

// reset starts a new account (a new set-up or window) and returns the
// finished one's mean factor and probe time.
func (p *prober) reset() (factor float64, spent time.Duration, samples []float64) {
	factor, spent, samples = mean(p.factors), p.spent, p.factors
	p.factors, p.spent = nil, 0
	return
}

// setupSample is one timed set-up.
type setupSample struct {
	raw    time.Duration // wall minus probe time
	factor float64
}

// setUp builds the fixture and a prepared workload instance, probing
// the host at every fixture-epoch boundary.
func setUp(def *workloadDef, seed int64, quick bool, sl *spanLog, sink obs.EpochSink, p *prober) (*fixture, workloadRun, setupSample, error) {
	params := def.fixture
	if quick {
		params = fixtureParams{days: 2, epochs: 1}
	}
	t0 := time.Now()
	p.probe()
	fx, err := buildFixture(params, sl, sink, p.probe)
	if err != nil {
		return nil, nil, setupSample{}, err
	}
	p.probe()
	w := def.newRun(seed, false, quick)
	if err := w.prepare(fx, sl); err != nil {
		return nil, nil, setupSample{}, fmt.Errorf("prepare %s: %w", def.name, err)
	}
	p.probe()
	wall := time.Since(t0)
	factor, spent, _ := p.reset()
	return fx, w, setupSample{raw: wall - spent, factor: factor}, nil
}

// window is the measured part of a run: slices of fixed work with a
// host probe before the first and after each.
type window struct {
	res       sliceResult
	slices    int
	wall, cpu time.Duration // summed over the slices
	factors   []float64
	probeTime time.Duration

	mem [2]runtime.MemStats
	par [2]par.Stats
}

// runWindow runs slices until their summed wall time reaches seconds
// or, if maxSlices is positive, exactly maxSlices slices. Whole slices
// only: a slice is the unit of fixed work.
func runWindow(w workloadRun, seconds float64, maxSlices int, sl *spanLog, p *prober) *window {
	win := &window{}
	runtime.ReadMemStats(&win.mem[0])
	win.par[0] = par.Snapshot()
	p.probe()
	for i := 0; (maxSlices <= 0 && win.wall.Seconds() < seconds) || i < maxSlices; i++ {
		cpu0 := cpuTime()
		t0 := time.Now()
		w.slice(i, sl, &win.res)
		t1 := time.Now()
		win.cpu += cpuTime() - cpu0
		win.wall += t1.Sub(t0)
		win.slices++
		sl.add("harness.slice", t0, t1, -1, -1)
		p.probe()
	}
	win.par[1] = par.Snapshot()
	runtime.ReadMemStats(&win.mem[1])
	_, win.probeTime, win.factors = p.reset()
	w.finish(sl)
	return win
}

// e2e are the end-to-end numbers of one window, raw and host-corrected.
type e2e struct {
	attempted, succeeded int
	wallS                float64
	hostFactor           float64

	rawOpsPerS, rawP50, rawP95, rawCPUPerOp float64
	opsPerS, p50, p95, cpuPerOp             float64
}

// okLatencies returns the latencies of successful ops in ms, optionally
// of one class only.
func (win *window) okLatencies(class int) []float64 {
	var out []float64
	for _, o := range win.res.ops {
		if o.ok && (class == noClass || o.class == class) {
			out = append(out, float64(o.latNS)/1e6)
		}
	}
	return out
}

// summarize turns a window into end-to-end numbers. Time-valued metrics
// are divided by the window's mean host factor (and throughput
// multiplied), so that a run on a slowed-down host reads as it would
// have on the reference host. openLoop leaves ops_per_s uncorrected: an
// open loop's throughput is set by its schedule, not by the host.
func (win *window) summarize(openLoop bool) e2e {
	lat := win.okLatencies(noClass)
	r := e2e{
		attempted:  len(win.res.ops),
		succeeded:  len(lat),
		wallS:      win.wall.Seconds(),
		hostFactor: mean(win.factors),
	}
	if r.succeeded == 0 || r.wallS == 0 {
		return r
	}
	n := float64(r.succeeded)
	r.rawOpsPerS = n / r.wallS
	r.rawP50 = percentile(lat, 50)
	r.rawP95 = chunkedPercentile(lat, 95, tailChunks)
	r.rawCPUPerOp = win.cpu.Seconds() * 1e3 / n
	r.opsPerS, r.p50, r.p95, r.cpuPerOp = correct(r.hostFactor, r.rawOpsPerS, r.rawP50, r.rawP95, r.rawCPUPerOp)
	if openLoop {
		r.opsPerS = r.rawOpsPerS
	}
	return r
}

// correct applies a host factor: times shrink by it, rates grow by it.
func correct(factor, opsPerS, p50, p95, cpuPerOp float64) (float64, float64, float64, float64) {
	if factor <= 0 {
		return opsPerS, p50, p95, cpuPerOp
	}
	return opsPerS * factor, p50 / factor, p95 / factor, cpuPerOp / factor
}

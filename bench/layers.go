package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// runTraced is the per-layer run. On one fixture it measures the
// workload twice at a quarter of the window each — first untraced, then
// with the layers' own tracers attached and a harness span around every
// call — and then times exported nn/mat/trace/... functions at the
// fixture's shapes. The difference between the two passes is the
// tracing overhead; the spans go to out/spans-<workload>.jsonl.
func runTraced(out io.Writer, def *workloadDef, o options) (*result, error) {
	sl := newSpanLog()
	p := &prober{hp: newHostProbe(), sl: sl}
	maxSlices, micro := 0, microFull
	if o.quick {
		maxSlices, micro = quickSlices, microQuick
	}

	var fitEvents []obs.EpochEvent
	fx, plain, setup, err := setUp(def, o.seed, o.quick, sl,
		obs.SinkFunc(func(e obs.EpochEvent) { fitEvents = append(fitEvents, e) }), p)
	if err != nil {
		return nil, err
	}
	winA := runWindow(plain, o.seconds/4, maxSlices, nil, p)
	a := winA.summarize(def.openLoop)
	checkedA, badA, digest := plain.verify()
	plain.close()

	traced := def.newRun(o.seed, true, o.quick)
	if err := traced.prepare(fx, nil); err != nil {
		return nil, fmt.Errorf("prepare traced %s: %w", def.name, err)
	}
	winB := runWindow(traced, o.seconds/4, maxSlices, sl, p)
	b := winB.summarize(def.openLoop)
	checkedB, badB, _ := traced.verify()
	td := traced.traceData()
	traced.close()

	m := map[string]float64{}
	harnessMetrics(m, winA, a, b, setup, def.openLoop)
	serverMetrics(m, sl, winA, td.engineRetries)
	decodeMetrics(m, sl, winA)
	parMetrics(m, winA, a)
	runtimeMetrics(m, winA, a)
	trainMetrics(m, append(fitEvents, td.epochs...))
	microProbes(m, fx, sl, micro)

	path := filepath.Join(o.outDir, "spans-"+def.name+".jsonl")
	if err := sl.writeFile(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	failed := a.attempted - a.succeeded + b.attempted - b.succeeded + badA + badB
	res := &result{
		Correct:   failed == 0 && checkedA > 0 && checkedB > 0,
		Attempted: a.attempted + b.attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "# ops untraced attempted=%d succeeded=%d; traced attempted=%d succeeded=%d; verified=%d mismatched=%d\n",
		a.attempted, a.succeeded, b.attempted, b.succeeded, checkedA+checkedB, badA+badB)
	for _, e := range []error{winA.res.err, winB.res.err} {
		if e != nil {
			fmt.Fprintf(out, "# first failure: %v\n", e)
		}
	}
	fmt.Fprintf(out, "# check digest=%016x\n", digest)
	fmt.Fprintf(out, "# spans %d written to %s\n", len(sl.spans), path)
	names := make([]string, 0, len(layerUnits))
	for name := range layerUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, layerUnits[name]}
		fmt.Fprintf(out, "%-36s %16.4f  %s\n", name, v, layerUnits[name])
	}
	return res, nil
}

// layerUnits names every per-layer metric and its unit; BENCHMARK.json
// lists the same set (pinned by a test). A metric that does not apply to
// a workload (server.* on bulk_mc64) reads 0 there.
var layerUnits = map[string]string{
	"harness.host_factor":         "x",
	"harness.host_factor_cv":      "x",
	"harness.raw_ops_per_s":       "1/s",
	"harness.raw_latency_p50_ms":  "ms",
	"harness.raw_latency_p95_ms":  "ms",
	"harness.raw_cpu_ms_per_op":   "ms",
	"harness.raw_setup_s":         "s",
	"harness.probe_share_pct":     "%",
	"harness.gen_lateness_p95_ms": "ms",
	"harness.trace_overhead_pct":  "%",

	"server.http_self_ms_p50":        "ms",
	"server.queue_ms_p50":            "ms",
	"server.queue_ms_p95":            "ms",
	"server.coalesce_ms_p50":         "ms",
	"server.coalesce_ms_p95":         "ms",
	"server.encode_ms_p50":           "ms",
	"server.response_kb_per_op":      "KB",
	"server.engine_retries":          "count",
	"server.lat_critical_p95_ms":     "ms",
	"server.lat_besteffort_p95_ms":   "ms",
	"server.lat_batch_p95_ms":        "ms",
	"server.slo_miss_share":          "share",
	"core.decode_ms_p50":             "ms",
	"core.decode_ms_p95":             "ms",
	"core.rounds_per_stream":         "count",
	"core.us_per_vm":                 "us",
	"core.vms_per_op":                "count",
	"core.serial_us_per_vm":          "us",
	"core.batch_speedup_x":           "x",
	"core.sharded_f32_streams_per_s": "1/s",

	"core.publish_ms":                  "ms",
	"core.engine_start_ms":             "ms",
	"core.snapshot_load_ms":            "ms",
	"core.snapshot_kb":                 "KB",
	"core.train_flavor_epoch_ms_p50":   "ms",
	"core.train_lifetime_epoch_ms_p50": "ms",
	"core.train_steps_per_s":           "1/s",

	"nn.fleet_step_us_rows1":    "us",
	"nn.fleet_step_us_rows8":    "us",
	"nn.fleet_step_us_rows64":   "us",
	"nn.fleet32_step_us_rows1":  "us",
	"nn.fleet32_step_us_rows64": "us",
	"nn.forward_ms_window":      "ms",
	"nn.backward_ms_window":     "ms",
	"nn.sharded_window_ms":      "ms",

	"mat.gemm_decode_ns_rows1":       "ns",
	"mat.gemm_decode_ns_rows64":      "ns",
	"mat.gemm32_decode_ns_rows1":     "ns",
	"mat.gemm32_decode_ns_rows64":    "ns",
	"mat.gemm_decode_flops_per_call": "count",
	"mat.exp_ns_per_elem":            "ns",
	"mat.gemm_bptt_us":               "us",
	"mat.atb_us":                     "us",
	"mat.abt_us":                     "us",
	"trace.csv_us_per_kvm":           "us",
	"trace.json_us_per_kvm":          "us",
	"trace.bytes_per_vm":             "B",
	"workload.parse_compile_us":      "us",
	"synth.vms_per_s":                "1/s",
	"glm.fit_ms":                     "ms",
	"par.regions_per_op":             "count",
	"par.busy_share":                 "share",
	"par.spawn_wait_us_per_region":   "us",
	"runtime.alloc_kb_per_op":        "KB",
	"runtime.allocs_per_op":          "count",
	"runtime.gc_cycles":              "count",
	"runtime.gc_pause_ms":            "ms",
}

func harnessMetrics(m map[string]float64, win *window, a, b e2e, setup setupSample, openLoop bool) {
	m["harness.host_factor"] = a.hostFactor
	m["harness.host_factor_cv"] = cv(win.factors)
	m["harness.raw_ops_per_s"] = a.rawOpsPerS
	m["harness.raw_latency_p50_ms"] = a.rawP50
	m["harness.raw_latency_p95_ms"] = a.rawP95
	m["harness.raw_cpu_ms_per_op"] = a.rawCPUPerOp
	m["harness.raw_setup_s"] = setup.raw.Seconds()
	m["harness.probe_share_pct"] = 100 * win.probeTime.Seconds() / (a.wallS + win.probeTime.Seconds())
	m["harness.gen_lateness_p95_ms"] = percentile(win.res.lateMS, 95)
	// Traced against untraced throughput. An open loop's throughput is
	// its schedule, so there the overhead is read off CPU per op.
	if openLoop {
		m["harness.trace_overhead_pct"] = 100 * (b.cpuPerOp - a.cpuPerOp) / a.cpuPerOp
	} else {
		m["harness.trace_overhead_pct"] = 100 * (a.opsPerS - b.opsPerS) / a.opsPerS
	}
}

// serverMetrics reads the request path: the server's own phase spans
// from the traced pass, sizes and per-class latencies from the untraced
// one.
func serverMetrics(m map[string]float64, sl *spanLog, win *window, engineRetries int64) {
	dur, self := sl.durations(), sl.selfTimes()
	m["server.http_self_ms_p50"] = percentile(self["client.roundtrip"], 50)
	m["server.queue_ms_p50"] = percentile(dur["server.queue"], 50)
	m["server.queue_ms_p95"] = percentile(dur["server.queue"], 95)
	m["server.coalesce_ms_p50"] = percentile(dur["server.coalesce"], 50)
	m["server.coalesce_ms_p95"] = percentile(dur["server.coalesce"], 95)
	m["server.encode_ms_p50"] = percentile(dur["trace.encode"], 50)
	if n := len(win.res.ops); n > 0 {
		m["server.response_kb_per_op"] = float64(win.res.bytes) / 1024 / float64(n)
	}
	m["server.engine_retries"] = float64(engineRetries)
	m["server.lat_critical_p95_ms"] = percentile(win.okLatencies(classCritical), 95)
	m["server.lat_besteffort_p95_ms"] = percentile(win.okLatencies(classBestEffort), 95)
	m["server.lat_batch_p95_ms"] = percentile(win.okLatencies(classBatch), 95)
	var classed, missed int
	for _, o := range win.res.ops {
		if o.class == noClass {
			continue
		}
		classed++
		// A failed request misses its limit whatever its latency.
		if !o.ok || time.Duration(o.latNS) > classLimit[o.class] {
			missed++
		}
	}
	if classed > 0 {
		m["server.slo_miss_share"] = float64(missed) / float64(classed)
	}
}

// decodeMetrics reads the engine's decode spans of the traced pass and
// the VM counts of the untraced one.
func decodeMetrics(m map[string]float64, sl *spanLog, winA *window) {
	dec := sl.durations()["core.decode"]
	m["core.decode_ms_p50"] = percentile(dec, 50)
	m["core.decode_ms_p95"] = percentile(dec, 95)
	m["core.rounds_per_stream"] = sl.meanSteps("core.decode")
	if winA.res.vms > 0 {
		// Wall time of the slices per generated VM: what one VM costs on
		// this workload, everything included.
		m["core.us_per_vm"] = winA.wall.Seconds() * 1e6 / float64(winA.res.vms)
		m["core.vms_per_op"] = float64(winA.res.vms) / float64(len(winA.res.ops))
	}
}

func parMetrics(m map[string]float64, win *window, a e2e) {
	d0, d1 := win.par[0], win.par[1]
	regions := float64(d1.Regions - d0.Regions)
	if a.succeeded > 0 {
		m["par.regions_per_op"] = regions / float64(a.succeeded)
	}
	if wall := float64(d1.WallNanos - d0.WallNanos); wall > 0 {
		// Busy worker time over region wall time x workers available.
		m["par.busy_share"] = float64(d1.BusyNanos-d0.BusyNanos) / (wall * float64(par.Procs()))
	}
	if regions > 0 {
		m["par.spawn_wait_us_per_region"] = float64(d1.SpawnNanos-d0.SpawnNanos) / 1e3 / regions
	}
}

func runtimeMetrics(m map[string]float64, win *window, a e2e) {
	m0, m1 := &win.mem[0], &win.mem[1]
	if a.succeeded > 0 {
		n := float64(a.succeeded)
		m["runtime.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
		m["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	}
	m["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// trainMetrics reads the training loops' own per-epoch events: the
// fixture fit's on every workload, plus the traced slices' on train_fit.
func trainMetrics(m map[string]float64, events []obs.EpochEvent) {
	var flavorMS, lifetimeMS []float64
	var steps int
	var wallMS float64
	for _, e := range events {
		switch e.Model {
		case "flavor_lstm":
			flavorMS = append(flavorMS, e.WallMS)
		case "lifetime_hazard":
			lifetimeMS = append(lifetimeMS, e.WallMS)
		default:
			continue
		}
		steps += e.Steps
		wallMS += e.WallMS
	}
	m["core.train_flavor_epoch_ms_p50"] = percentile(flavorMS, 50)
	m["core.train_lifetime_epoch_ms_p50"] = percentile(lifetimeMS, 50)
	if wallMS > 0 {
		m["core.train_steps_per_s"] = float64(steps) / (wallMS / 1e3)
	}
}

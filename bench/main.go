// Command bench is the repository's benchmark: four fixed-work
// workloads measured end to end from outside the layers, with every
// timing corrected by a frozen host probe, plus a traced per-layer run.
// See README.md in this directory.
//
//	go run ./bench -workload serve_day -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/par"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
	outDir   string // where the traced run writes its span file
}

func main() {
	var o options
	var trace, selfcheck int
	var allowEnv bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the requests, the arrival schedule, the training seed and the verified sample")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window, in seconds of slice time")
	flag.IntVar(&trace, "trace", 0, "1: traced run, print the per-layer metrics and write out/spans-<workload>.jsonl; 0: end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: tiny fixture, a few short slices")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for the traced run's span file")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run N alternating A/A pairs of every workload (seeds -seed .. -seed+N-1) and compare the two sets against BENCHMARK.json's bounds")
	flag.BoolVar(&allowEnv, "allow-env", false, "run even with REPRO_NOASM / REPRO_NOPACK / REPRO_PROCS set")
	flag.Parse()
	o.traced = trace != 0

	if err := checkEnv(allowEnv); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// Load comes from this one process on every core of the host.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if selfcheck > 0 {
		os.Exit(runSelfcheck(os.Stdout, selfcheck, o))
	}
	def := findWorkload(o.workload)
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(os.Stdout, def, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// switchEnv are the kill switches that change which kernels or how many
// workers run; a benchmark number taken under one of them is not
// comparable with the baseline.
var switchEnv = []string{"REPRO_NOASM", "REPRO_NOPACK", "REPRO_PROCS"}

func checkEnv(allow bool) error {
	for _, k := range switchEnv {
		if v, ok := os.LookupEnv(k); ok && !allow {
			return fmt.Errorf("%s=%q is set; unset it or pass -allow-env", k, v)
		}
	}
	return nil
}

// header prints what a reader needs to judge whether two runs are
// comparable.
func header(out io.Writer, o options) {
	fmt.Fprintf(out, "# bench workload=%s seed=%d seconds=%g trace=%v quick=%v\n", o.workload, o.seed, o.seconds, o.traced, o.quick)
	fmt.Fprintf(out, "# host nproc=%d gomaxprocs=%d par.procs=%d %s %s/%s hostref=v%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), par.Procs(), runtime.Version(), runtime.GOOS, runtime.GOARCH, hostrefVersion)
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "REPRO_") {
			env = append(env, kv)
		}
	}
	sort.Strings(env)
	if len(env) == 0 {
		env = []string{"(none)"}
	}
	fmt.Fprintf(out, "# env %s\n", strings.Join(env, " "))
}

// run executes one workload and prints its report; the caller prints
// the result line.
func run(out io.Writer, def *workloadDef, o options) (*result, error) {
	header(out, o)
	if o.traced {
		return runTraced(out, def, o)
	}
	return runEndToEnd(out, def, o)
}

// runEndToEnd is the untraced run: set up setupReps times, measure one
// window, verify, report the six end-to-end metrics.
func runEndToEnd(out io.Writer, def *workloadDef, o options) (*result, error) {
	p := &prober{hp: newHostProbe()}
	reps, maxSlices := setupReps, 0
	if o.quick {
		reps, maxSlices = 1, quickSlices
	}
	var w workloadRun
	var setups []setupSample
	var snapshot []byte
	for r := 0; r < reps; r++ {
		if w != nil {
			w.close()
		}
		// Every set-up, and the window after the last, starts from a
		// collected heap, as it would in a fresh process. Without this the
		// garbage of one set-up's fit ratchets the next one's peak RSS up
		// by an amount that depends on GC timing (spread 10-15%, 3% with).
		runtime.GC()
		fx, next, s, err := setUp(def, o.seed, o.quick, nil, nil, p)
		if err != nil {
			return nil, err
		}
		if snapshot != nil && !bytes.Equal(snapshot, fx.snapshot) {
			return nil, fmt.Errorf("fixture fit is not deterministic: snapshot of set-up %d differs from the first", r+1)
		}
		w, snapshot = next, fx.snapshot
		setups = append(setups, s)
	}
	defer w.close()

	runtime.GC()
	win := runWindow(w, o.seconds, maxSlices, nil, p)
	e := win.summarize(def.openLoop)
	checked, mismatched, digest := w.verify()

	var rawSetup, corSetup []float64
	for _, s := range setups {
		rawSetup = append(rawSetup, s.raw.Seconds())
		corSetup = append(corSetup, s.raw.Seconds()/s.factor)
	}
	failed := e.attempted - e.succeeded + mismatched
	res := &result{
		Correct:   failed == 0 && checked > 0,
		Attempted: e.attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {median(corSetup), "s"},
			"ops_per_s":      {e.opsPerS, "1/s"},
			"latency_p50_ms": {e.p50, "ms"},
			"latency_p95_ms": {e.p95, "ms"},
			"cpu_ms_per_op":  {e.cpuPerOp, "ms"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
		},
	}

	fmt.Fprintf(out, "# ops attempted=%d succeeded=%d failed=%d verified=%d mismatched=%d\n",
		e.attempted, e.succeeded, e.attempted-e.succeeded, checked, mismatched)
	if win.res.err != nil {
		fmt.Fprintf(out, "# first failure: %v\n", win.res.err)
	}
	fmt.Fprintf(out, "# check digest=%016x\n", digest)
	fmt.Fprintf(out, "# window slices=%d slice_wall_s=%.3f probe_s=%.3f host_factor=%.4f host_factor_cv=%.4f\n",
		win.slices, e.wallS, win.probeTime.Seconds(), e.hostFactor, cv(win.factors))
	fmt.Fprintf(out, "# samples latency=%d (highest supported percentile p%g) setup=%d probes=%d\n",
		e.succeeded, highestPercentile(e.succeeded), len(setups), len(win.factors))
	fmt.Fprintf(out, "%-18s %14s %14s  %s\n", "metric", "host-corrected", "raw", "unit")
	row := func(name string, raw float64) {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-18s %14.4f %14.4f  %s\n", name, m.Value, raw, m.Unit)
	}
	row("setup_s", median(rawSetup))
	row("ops_per_s", e.rawOpsPerS)
	row("latency_p50_ms", e.rawP50)
	row("latency_p95_ms", e.rawP95)
	row("cpu_ms_per_op", e.rawCPUPerOp)
	row("peak_rss_mb", res.Metrics["peak_rss_mb"].Value)
	return res, nil
}

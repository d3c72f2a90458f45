package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {25, 17.5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{40, 10, 30, 20}) {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestChunkedPercentileIgnoresAStall(t *testing.T) {
	// 160 samples at 10 ms; a stall makes 16 consecutive ones 50 ms. The
	// plain p95 lands in the stall, the median chunk does not.
	xs := make([]float64, 160)
	for i := range xs {
		xs[i] = 10
		if i >= 40 && i < 56 {
			xs[i] = 50
		}
	}
	if got := percentile(xs, 95); got != 50 {
		t.Fatalf("plain p95 = %g, want 50", got)
	}
	if got := chunkedPercentile(xs, 95, 16); got != 10 {
		t.Errorf("chunked p95 = %g, want 10", got)
	}
	// Too few samples for 16 chunks: the plain percentile.
	if got, want := chunkedPercentile(xs[:20], 95, 16), percentile(xs[:20], 95); got != want {
		t.Errorf("chunked p95 of 20 samples = %g, want plain %g", got, want)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes the run-to-run spread with.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q2, q3 := quartiles(xs)
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %g %g %g, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

func TestHostFactorArithmetic(t *testing.T) {
	if f := hostFactor(refComputeNS, refMemNS); f != 1 {
		t.Errorf("reference times give factor %g, want 1", f)
	}
	// Compute half 20% slow, memory half 40% slow: the mean, 30%.
	if f := hostFactor(1.2*refComputeNS, 1.4*refMemNS); math.Abs(f-1.3) > 1e-12 {
		t.Errorf("factor = %g, want 1.3", f)
	}
	// On a host running 1.25x slow, measured times shrink by the factor
	// and rates grow by it.
	ops, p50, p95, cpu := correct(1.25, 80, 12.5, 25, 5)
	if ops != 100 || p50 != 10 || p95 != 20 || cpu != 4 {
		t.Errorf("correct(1.25, ...) = %g %g %g %g, want 100 10 20 4", ops, p50, p95, cpu)
	}
}

func TestSummarizeCorrectsTimesNotOpenLoopRate(t *testing.T) {
	win := &window{
		wall: 2 * time.Second, cpu: time.Second,
		factors: []float64{1.5, 2.5}, // mean 2
	}
	for i := 0; i < 4; i++ {
		win.res.ops = append(win.res.ops, opStat{latNS: 10e6, class: noClass, ok: true})
	}
	win.res.ops = append(win.res.ops, opStat{latNS: 99e6, class: noClass, ok: false})
	closed, open := win.summarize(false), win.summarize(true)
	if closed.attempted != 5 || closed.succeeded != 4 {
		t.Fatalf("attempted/succeeded = %d/%d, want 5/4", closed.attempted, closed.succeeded)
	}
	if closed.rawOpsPerS != 2 || closed.opsPerS != 4 || closed.p50 != 5 || closed.cpuPerOp != 125 {
		t.Errorf("closed loop: %+v", closed)
	}
	if open.opsPerS != 2 || open.p50 != 5 {
		t.Errorf("open loop: ops_per_s %g (want the raw 2), p50 %g (want 5)", open.opsPerS, open.p50)
	}
}

// The probe's arithmetic is pinned: if this fails, hostref.go was
// edited and every host-corrected number has lost its baseline.
func TestProbeChecksumPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("checksum pinned on amd64 (math.Exp and float fusing differ elsewhere)")
	}
	if got := newHostProbe().sample().sum; got != probeChecksum {
		t.Fatalf("probe checksum %#x, want %#x", got, uint64(probeChecksum))
	}
}

// The open-loop schedule is a pure function of the seed: built twice
// from scratch it has the same due times, classes, sizes and seeds.
func TestOpenScheduleIsPureFunctionOfSeed(t *testing.T) {
	build := func(seed int64) [][]genOp {
		cohorts, err := openCohorts(mixedSpec(9))
		if err != nil {
			t.Fatal(err)
		}
		var out [][]genOp
		for i := 0; i < 12; i++ {
			out = append(out, openSlice(seed, i, cohorts))
		}
		return out
	}
	a, b := build(7), build(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds of the seed-7 schedule differ")
	}
	if reflect.DeepEqual(a, build(8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	perSlice := int(float64(openRate) * openSliceLen.Seconds())
	for i, ops := range a {
		if len(ops) != perSlice {
			t.Fatalf("slice %d has %d arrivals, want %d", i, len(ops), perSlice)
		}
		var perClass [numClasses]int
		for j, op := range ops {
			perClass[op.class]++
			if op.due < 0 || op.due >= openSliceLen {
				t.Fatalf("slice %d op %d due %v outside the slice", i, j, op.due)
			}
			if j > 0 && op.due < ops[j-1].due {
				t.Fatalf("slice %d not sorted by due time at %d", i, j)
			}
			sh := classShapes[op.class]
			if op.periods < sh.minPeriods || op.periods > sh.maxPeriods || op.json != sh.json || op.seed == 0 {
				t.Fatalf("slice %d op %d = %+v does not fit class %s", i, j, op, className[op.class])
			}
		}
		if perClass != [numClasses]int{classCritical: 5, classBestEffort: 2, classBatch: 3} {
			t.Fatalf("slice %d class mix %v, want 5 critical / 2 best-effort / 3 batch", i, perClass)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	sl := newSpanLog()
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	root := sl.add("client.roundtrip", sl.t0.Add(at(0)), sl.t0.Add(at(10)), -1, 0)
	sl.add("core.decode", sl.t0.Add(at(1)), sl.t0.Add(at(7)), root, 0)
	sl.add("trace.encode", sl.t0.Add(at(7)), sl.t0.Add(at(9)), root, 0)
	self := sl.selfTimes()
	if got := self["client.roundtrip"]; len(got) != 1 || got[0] != 2 {
		t.Errorf("self time of the round trip = %v, want [2] ms", got)
	}
	if got := self["core.decode"]; len(got) != 1 || got[0] != 6 {
		t.Errorf("self time of a leaf = %v, want [6] ms", got)
	}
}

// BENCHMARK.json and the harness must name the same workloads and
// metrics, or the driver refuses the run.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, harness has %v", names, workloadNames())
	}
	var gated []string
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		gated = append(gated, m.Name)
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
	}
	sort.Strings(gated)
	if want := []string{"cpu_ms_per_op", "latency_p50_ms", "latency_p95_ms", "ops_per_s", "peak_rss_mb", "setup_s"}; !reflect.DeepEqual(gated, want) {
		t.Errorf("end_to_end metrics %v, want %v", gated, want)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s has bound %g, but the largest is %g", m.Bound, maxBound)
		}
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layer, layerUnits) {
		t.Errorf("per_layer metrics differ from the harness's layerUnits")
	}
}

// The -quick smoke run of every workload, untraced and traced: keeps
// the harness compiling and its output contract honest under go test.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	dir := t.TempDir()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: def.name, seed: 3, seconds: 1, traced: traced, quick: true, outDir: dir}
			res, err := run(&out, &def, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", def.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", def.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := 6
			if traced {
				want = len(layerUnits)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), want)
			}
			for name, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s traced=%v: metric %s = %+v", def.name, traced, name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", def.name, name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not marshal: %v", def.name, err)
			}
			if !strings.Contains(out.String(), "# host nproc=") {
				t.Errorf("%s: report has no host header", def.name)
			}
		}
	}
}

func TestRefusesKillSwitchEnv(t *testing.T) {
	t.Setenv("REPRO_NOPACK", "1")
	if err := checkEnv(false); err == nil {
		t.Error("REPRO_NOPACK=1 was accepted without -allow-env")
	}
	if err := checkEnv(true); err != nil {
		t.Errorf("-allow-env still refused: %v", err)
	}
	header(io.Discard, options{})
}

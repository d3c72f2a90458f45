package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/mat/mattest"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// The decode contract (DESIGN.md §5), stated once:
//
//	GIVEN a golden row of TestGenerateTraceGolden or TestF32TraceGolden:
//	      a model with its knobs, a window, and n streams split serially
//	      from one seed;
//	WHEN  the streams are decoded by any path at the row's precision:
//	      GenerateBatch or GenerateBatchShardedF32 in one call or in
//	      chunks, the batch dealt over any number of shards, or
//	      concurrent requests through NewGenEngine at any shard count
//	      (one per par worker when it is built), a batch cap below n
//	      and the rate scale passed per request, with or without a
//	      request trace; at any REPRO_PROCS, on either kernel tier;
//	THEN  the sha256 of the n traces' JSON is the row's recorded digest.
//
// Each contractRow is one such decode, and its oracle is always the
// recorded constant, never another path. The table is written once;
// each row names the test that runs it, so every claim the contract
// carries (batch equals one-stream, shard invariance, engine equals
// one-stream at each precision, the per-request scale, tracing) is a
// test of its own over its rows, all through runContract.
type contractRow struct {
	test   string    // the test that runs the row
	path   string    // "batch", "sharded", "engine" or "engine+trace"
	prec   Precision // "" (engine rows) is the f64 default
	shards int       // K: the sharded batch's shards, or the par.SetProcs an engine is built at; 0 is procs
	procs  int       // par.SetProcs for the decode: REPRO_PROCS
	chunk  int       // batch rows: streams per GenerateBatch call; 0 is all n at once
	golden string    // the golden row whose digest the streams must equal
}

// contractTests are the tests that run the contract's rows.
var contractTests = []string{
	"TestDecodeContract",
	"TestGenerateBatchMatchesSerial",
	"TestGenerateBatchUntrained",
	"TestPackedDecodeByteIdentity",
	"TestShardedDecodeDeterminism",
	"TestShardedDecodeDeterminismTrained",
	"TestGenerateBatchF32ShardInvariance",
	"TestEngineConcurrentMatchesSerial",
	"TestShardedEngineMatchesSerial",
	"TestPrecisionRegistryMatrix",
	"TestEngineF32ConcurrentDeterministic",
	"TestEngineScale",
	"TestShardedEngineScale",
	"TestTracedDecodeByteIdentity",
}

// contractRows is the table: every path at every shard count and
// precision on the tiny model, and each path once more on the knobs and
// on the trained weights.
func contractRows() []contractRow {
	var rows []contractRow
	add := func(test string, r contractRow) {
		r.test = test
		rows = append(rows, r)
	}
	ks := []int{0, 1, 2, 3, 8}

	// The offline batch: every golden row in one call at one worker and
	// at eight (one shard per worker), the tiny model at two and three
	// too, and in chunks (batch composition).
	for _, procs := range []int{1, 8} {
		for _, golden := range []string{"tiny/day", "trained/testW"} {
			add("TestGenerateBatchMatchesSerial", contractRow{path: "batch", prec: PrecisionF64, procs: procs, golden: golden})
		}
		add("TestGenerateBatchUntrained", contractRow{path: "batch", prec: PrecisionF64, procs: procs, golden: "tiny/tilt+cap5"})
		for _, golden := range []string{"f32/tiny", "f32/trained"} {
			add("TestPackedDecodeByteIdentity", contractRow{path: "batch", prec: PrecisionF32, procs: procs, golden: golden})
		}
	}
	for _, procs := range []int{2, 3} {
		add("TestGenerateBatchMatchesSerial", contractRow{path: "batch", prec: PrecisionF64, procs: procs, golden: "tiny/day"})
	}
	add("TestDecodeContract", contractRow{path: "batch", prec: PrecisionF64, procs: 8, chunk: 4, golden: "tiny/tilt+cap5"}) // calls of 4, 4 and 1
	add("TestDecodeContract", contractRow{path: "batch", prec: PrecisionF32, procs: 8, chunk: 1, golden: "f32/tiny"})       // the one-stream f32 decode

	// The sharded batch: every shard count on the tiny model, and the
	// knobs and the trained weights sharded. GenerateBatchShardedF32
	// takes the shard count; at f64 the rows deal the batch through the
	// same unexported decode GenerateBatch calls with one shard per
	// worker.
	for _, k := range ks {
		add("TestShardedDecodeDeterminism", contractRow{path: "sharded", prec: PrecisionF64, shards: k, procs: 8, golden: "tiny/day"})
		add("TestGenerateBatchF32ShardInvariance", contractRow{path: "sharded", prec: PrecisionF32, shards: k, procs: 8, golden: "f32/tiny"})
	}
	add("TestShardedDecodeDeterminism", contractRow{path: "sharded", prec: PrecisionF64, shards: 3, procs: 8, golden: "tiny/tilt+cap5"})
	add("TestShardedDecodeDeterminismTrained", contractRow{path: "sharded", prec: PrecisionF64, shards: 2, procs: 8, golden: "trained/testW"})
	add("TestShardedDecodeDeterminismTrained", contractRow{path: "sharded", prec: PrecisionF32, shards: 2, procs: 8, golden: "f32/trained"})

	// The serving engine, which runs one shard per par worker: K is the
	// worker count it is built at. Every K on the tiny model at the
	// default precision and at each named one (K = 0 at one worker too,
	// where it is the single scheduler); the knobs and the trained
	// weights at K = 2; the per-request rate scale on tiny/scale3; and a
	// request trace attached at K = 1 and 2.
	for _, procs := range []int{1, 8} {
		add("TestEngineConcurrentMatchesSerial", contractRow{path: "engine", procs: procs, golden: "tiny/day"})
		add("TestPrecisionRegistryMatrix", contractRow{path: "engine", prec: PrecisionF64, procs: procs, golden: "tiny/day"})
		add("TestEngineF32ConcurrentDeterministic", contractRow{path: "engine", prec: PrecisionF32, procs: procs, golden: "f32/tiny"})
	}
	for _, k := range ks[1:] {
		add("TestShardedEngineMatchesSerial", contractRow{path: "engine", shards: k, procs: 8, golden: "tiny/day"})
		add("TestPrecisionRegistryMatrix", contractRow{path: "engine", prec: PrecisionF64, shards: k, procs: 8, golden: "tiny/day"})
		add("TestEngineF32ConcurrentDeterministic", contractRow{path: "engine", prec: PrecisionF32, shards: k, procs: 8, golden: "f32/tiny"})
	}
	add("TestEngineConcurrentMatchesSerial", contractRow{path: "engine", prec: PrecisionF64, shards: 2, procs: 8, golden: "tiny/tilt+cap5"})
	add("TestEngineConcurrentMatchesSerial", contractRow{path: "engine", prec: PrecisionF64, shards: 2, procs: 8, golden: "trained/testW"})
	add("TestEngineF32ConcurrentDeterministic", contractRow{path: "engine", prec: PrecisionF32, shards: 2, procs: 8, golden: "f32/trained"})
	add("TestEngineScale", contractRow{path: "engine", prec: PrecisionF64, procs: 8, golden: "tiny/scale3"})
	for _, k := range []int{1, 3} {
		add("TestShardedEngineScale", contractRow{path: "engine", prec: PrecisionF64, shards: k, procs: 8, golden: "tiny/scale3"})
	}
	for _, tiny := range []contractRow{{prec: PrecisionF64, golden: "tiny/day"}, {prec: PrecisionF32, golden: "f32/tiny"}} {
		for _, k := range []int{1, 2} {
			add("TestTracedDecodeByteIdentity", contractRow{path: "engine+trace", prec: tiny.prec, shards: k, procs: 8, golden: tiny.golden})
		}
	}
	return rows
}

func (r contractRow) String() string {
	prec := string(r.prec)
	if prec == "" {
		prec = "default"
	}
	s := r.path + "/" + prec
	if r.path != "batch" {
		s += fmt.Sprintf("/K=%d", r.shards)
	} else if r.chunk > 0 {
		s += fmt.Sprintf("/chunk=%d", r.chunk)
	}
	return fmt.Sprintf("%s/procs=%d/%s", s, r.procs, r.golden)
}

// concurrent reports whether the row carries serving concurrency — the
// router and its schedulers — on the tiny model at no more than 8
// streams. Only those rows run under the race detector: the detector
// finds races, not wrong bits.
func (r contractRow) concurrent(g generateGolden) bool {
	return strings.HasPrefix(r.path, "engine") && strings.Contains(g.name, "tiny") && g.n <= 8
}

// decode runs the row's path over the golden row's streams and returns
// each trace's JSON, by stream index.
func (r contractRow) decode(t *testing.T, g generateGolden) [][]byte {
	defer par.SetProcs(par.SetProcs(r.procs))
	gs := splitStreams(g.seed, g.n)
	f32 := r.prec == PrecisionF32
	switch r.path {
	case "batch":
		batch := g.m.GenerateBatch
		if f32 {
			batch = func(gs []*rng.RNG, w trace.Window) []*trace.Trace { return g.m.GenerateBatchShardedF32(gs, w, 0) }
		}
		chunk := cmp.Or(r.chunk, g.n)
		var out [][]byte
		for lo := 0; lo < g.n; lo += chunk {
			out = append(out, traceAll(t, batch(gs[lo:min(lo+chunk, g.n)], g.w))...)
		}
		return out
	case "sharded":
		if f32 {
			return traceAll(t, g.m.GenerateBatchShardedF32(gs, g.w, r.shards))
		}
		return traceAll(t, g.m.generateBatchSharded(gs, g.w, r.shards, PrecisionF64))
	}
	// The engine takes the rate scale per request, so its model carries
	// none: an engine that ignored the request's scale would show. Its
	// shard count is the par worker count it is built at.
	m := withKnobs(g.m, g.m.Tilt, 0, g.m.MaxJobsPerPeriod)
	par.SetProcs(cmp.Or(r.shards, r.procs))
	eng, err := NewGenEngine(m, EngineSpec{MaxBatch: g.n - 1, Precision: r.prec})
	par.SetProcs(r.procs)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var tc *rtrace.Tracer
	if r.path == "engine+trace" {
		tc = rtrace.NewTracer(g.n)
	}
	return generateAll(t, eng, gs, g.w, g.m.RateScale, tc)
}

// runContract decodes the contract rows that name t's test and compares
// the digest of each row's streams with its golden row's, on both kernel
// tiers. Under -race only the concurrent rows run, on the assembly
// kernels, and the trained fixture is not fitted.
func runContract(t *testing.T) {
	var rows []contractRow
	trained := false
	for _, r := range contractRows() {
		if r.test == t.Name() {
			rows = append(rows, r)
			trained = trained || strings.Contains(r.golden, "trained")
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no contract rows name %s", t.Name())
	}
	var f *fixture
	if trained && !mat.RaceEnabled {
		f = getFixture(t)
	}
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		// Fresh tiny models per tier, so no tier decodes on caches
		// another built.
		goldens := make(map[string]generateGolden)
		for _, g := range append(tinyGoldens(), f32Goldens(f)...) {
			goldens[g.name] = g
		}
		if f != nil {
			for _, g := range trainedGoldens(f) {
				goldens[g.name] = g
			}
		}
		for _, r := range rows {
			t.Run(r.String(), func(t *testing.T) {
				g, ok := goldens[r.golden]
				if mat.RaceEnabled && !(ok && r.concurrent(g)) {
					t.Skip("arithmetic row: runs without -race; the race detector runs the engine rows on the tiny model")
				}
				if !ok {
					t.Fatalf("no golden row %q", r.golden)
				}
				if d := digest(r.decode(t, g)); d != g.want {
					t.Errorf("traces sha256 %s, want the %s row's %s", d, g.name, g.want)
				}
			})
		}
	})
}

// TestDecodeContract checks that every row of the table names one of
// the contract's tests, so none goes unrun, and decodes its own rows:
// batch composition, the streams split over calls of a few each.
func TestDecodeContract(t *testing.T) {
	for _, r := range contractRows() {
		if !slices.Contains(contractTests, r.test) {
			t.Errorf("row %v names %s, which is not one of contractTests", r, r.test)
		}
	}
	runContract(t)
}

// TestGenerateBatchMatchesSerial: GenerateBatch of the streams in one
// call, at one worker and at eight, on the tiny and the trained model,
// and at two and three workers on the tiny one.
func TestGenerateBatchMatchesSerial(t *testing.T) { runContract(t) }

// TestGenerateBatchUntrained: GenerateBatch on the tiny model with a
// flavor tilt and a job cap, so the override and what-if draw order hold
// on the batched path too.
func TestGenerateBatchUntrained(t *testing.T) { runContract(t) }

// TestPackedDecodeByteIdentity: GenerateBatchShardedF32 with one shard
// per worker on packed panels, on the tiny and the trained model.
func TestPackedDecodeByteIdentity(t *testing.T) { runContract(t) }

// TestShardedDecodeDeterminism: the f64 batch dealt over every shard
// count, the every-core default (0) included, and on the knobs.
func TestShardedDecodeDeterminism(t *testing.T) { runContract(t) }

// TestShardedDecodeDeterminismTrained: the sharded batch at both
// precisions on the trained weights.
func TestShardedDecodeDeterminismTrained(t *testing.T) { runContract(t) }

// TestGenerateBatchF32ShardInvariance: GenerateBatchShardedF32 at every
// shard count.
func TestGenerateBatchF32ShardInvariance(t *testing.T) { runContract(t) }

// TestEngineConcurrentMatchesSerial: concurrent requests, more than the
// batch cap, through the default engine and the f64 engine on the knobs
// and the trained weights.
func TestEngineConcurrentMatchesSerial(t *testing.T) { runContract(t) }

// TestShardedEngineMatchesSerial: the default engine built at K = 1,
// 2, 3, 8 workers.
func TestShardedEngineMatchesSerial(t *testing.T) { runContract(t) }

// TestEngineF32ConcurrentDeterministic: the f32 engine at every K, on
// the tiny and the trained model.
func TestEngineF32ConcurrentDeterministic(t *testing.T) { runContract(t) }

// TestEngineScale: the per-request rate scale through one engine
// equals Model.RateScale.
func TestEngineScale(t *testing.T) { runContract(t) }

// TestShardedEngineScale: the per-request rate scale through K = 1 and
// 3 shards.
func TestShardedEngineScale(t *testing.T) { runContract(t) }

// TestTracedDecodeByteIdentity: a request trace attached changes no
// byte, at both precisions and K = 1 and 2 (TestTracedSpansTileRequest
// checks the spans it records).
func TestTracedDecodeByteIdentity(t *testing.T) { runContract(t) }

// splitStreams returns n child RNGs split serially from one seed —
// fresh for every decode, since decoding consumes the streams.
func splitStreams(seed int64, n int) []*rng.RNG {
	src := rng.New(seed)
	gs := make([]*rng.RNG, n)
	for i := range gs {
		gs[i] = src.Split()
	}
	return gs
}

// traceAll serializes traces for byte-level comparison.
func traceAll(t *testing.T, trs []*trace.Trace) [][]byte {
	out := make([][]byte, len(trs))
	for i, tr := range trs {
		out[i] = traceBytes(t, tr)
	}
	return out
}

// generateAll fires one concurrent Generate per stream through eng at
// the given rate scale and returns each response's bytes, by stream
// index. A non-nil tc attaches a request trace to every request, which
// must record a decode span.
func generateAll(t *testing.T, eng GenEngine, gs []*rng.RNG, w trace.Window, scale float64, tc *rtrace.Tracer) [][]byte {
	t.Helper()
	got := make([][]byte, len(gs))
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *rng.RNG) {
			defer wg.Done()
			rt := tc.StartTrace()
			tr, err := eng.Generate(rtrace.NewContext(context.Background(), rt), g, w, scale)
			if err != nil {
				errs[i] = err
				return
			}
			if tc != nil {
				if _, ok := tc.Finish(rt).SpanDur("decode"); !ok {
					errs[i] = fmt.Errorf("traced request recorded no decode span")
					return
				}
			}
			var buf bytes.Buffer
			errs[i] = tr.WriteJSON(&buf)
			got[i] = buf.Bytes()
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	return got
}

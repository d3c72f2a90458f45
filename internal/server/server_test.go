package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
)

var (
	srvOnce sync.Once
	srv     *Server
)

// testServer trains a tiny model once (a few seconds) and shares it.
func testServer(t testing.TB) *Server {
	t.Helper()
	srvOnce.Do(func() {
		cfg := synth.AzureLike()
		cfg.Days = 2
		cfg.Users = 40
		cfg.BaseRate = 1.5
		full := cfg.Generate(3)
		train := full.Slice(trace.Window{Start: 0, End: full.Periods}, 0)
		m, err := core.TrainModel(train, core.ModelOptions{
			Bins: survival.PaperBins(),
			Train: core.TrainConfig{
				Hidden: 12, Layers: 1, SeqLen: 48, BatchSize: 8, Epochs: 5, Seed: 1,
			},
		})
		if err != nil {
			panic(err)
		}
		srv = New(m, cfg.Flavors)
	})
	return srv
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	h := testServer(t).Handler()
	rec := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "ok" || resp["flavors"].(float64) != 16 {
		t.Fatalf("resp: %v", resp)
	}
}

func TestModelInfo(t *testing.T) {
	h := testServer(t).Handler()
	rec := do(t, h, "GET", "/model", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["lifetime_bins"].(float64) != 47 {
		t.Fatalf("resp: %v", resp)
	}
	// The kernel tier is reported as it stands: "avx2" wherever the
	// assembly kernels run, "portable" once the process is switched off
	// them.
	want := "avx2"
	if mat.Portable() {
		want = "portable"
	}
	if resp["kernels"] != want {
		t.Fatalf("kernels = %v, want %q", resp["kernels"], want)
	}
	defer mat.SetPortable(mat.SetPortable(true))
	if body := do(t, h, "GET", "/model", "").Body.String(); !strings.Contains(body, `"kernels":"portable"`) {
		t.Fatalf("portable tier not reported: %s", body)
	}
}

func TestGenerateCSV(t *testing.T) {
	h := testServer(t).Handler()
	rec := do(t, h, "POST", "/generate", `{"periods": 48, "seed": 7}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type %q", ct)
	}
	if rec.Header().Get("X-Trace-Seed") != "7" {
		t.Fatalf("seed header %q", rec.Header().Get("X-Trace-Seed"))
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if lines[0] != "id,user,flavor,start_period,duration_s,censored" {
		t.Fatalf("header: %q", lines[0])
	}
}

func TestGenerateJSONAndDeterminism(t *testing.T) {
	h := testServer(t).Handler()
	a := do(t, h, "POST", "/generate", `{"periods": 24, "seed": 9, "format": "json"}`)
	b := do(t, h, "POST", "/generate", `{"periods": 24, "seed": 9, "format": "json"}`)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	if a.Body.String() != b.Body.String() {
		t.Fatal("same seed must generate identical traces")
	}
	tr, err := trace.ReadJSON(strings.NewReader(a.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Periods != 24 {
		t.Fatalf("periods %d", tr.Periods)
	}
}

func TestGenerateFreshSeedsDiffer(t *testing.T) {
	h := testServer(t).Handler()
	a := do(t, h, "POST", "/generate", `{"periods": 24, "format": "json"}`)
	b := do(t, h, "POST", "/generate", `{"periods": 24, "format": "json"}`)
	if a.Header().Get("X-Trace-Seed") == b.Header().Get("X-Trace-Seed") {
		t.Fatal("fresh seeds should differ")
	}
}

func TestGenerateValidation(t *testing.T) {
	h := testServer(t).Handler()
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{"periods": 0}`, http.StatusBadRequest},
		{`{"periods": 99999999}`, http.StatusBadRequest},
		{`{"periods": 10, "scale": -1}`, http.StatusBadRequest},
		{`{"periods": 10, "format": "xml"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := do(t, h, "POST", "/generate", c.body)
		if rec.Code != c.want {
			t.Errorf("body %q: status %d, want %d", c.body, rec.Code, c.want)
		}
	}
}

func TestGenerateScale(t *testing.T) {
	h := testServer(t).Handler()
	small := do(t, h, "POST", "/generate", `{"periods": 96, "seed": 11, "scale": 1}`)
	big := do(t, h, "POST", "/generate", `{"periods": 96, "seed": 11, "scale": 8}`)
	ns := strings.Count(small.Body.String(), "\n")
	nb := strings.Count(big.Body.String(), "\n")
	if nb < ns*3 {
		t.Fatalf("scale 8 generated %d rows vs %d at scale 1", nb, ns)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := testServer(t).Handler()
	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var resp struct {
		UptimeS float64 `json:"uptime_s"`
		Served  float64 `json:"served"`
		Metrics struct {
			Counters   map[string]int64 `json:"counters"`
			Gauges     map[string]int64 `json:"gauges"`
			Histograms map[string]struct {
				Count  int64     `json:"count"`
				Sum    float64   `json:"sum"`
				Bounds []float64 `json:"bounds"`
				Counts []int64   `json:"counts"`
			} `json:"histograms"`
		} `json:"metrics"`
		Par   map[string]int64   `json:"par"`
		Mem   map[string]float64 `json:"mem"`
		Model map[string]any     `json:"model"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("metrics response is not valid JSON: %v", err)
	}
	if resp.UptimeS < 0 {
		t.Errorf("uptime_s = %v", resp.UptimeS)
	}
	if resp.Model["flavors"].(float64) != 16 {
		t.Errorf("model metadata missing from /metrics: %v", resp.Model)
	}
	if _, ok := resp.Par["tasks"]; !ok {
		t.Errorf("par stats missing from /metrics: %v", resp.Par)
	}
	if v, ok := resp.Mem["heap_in_use_bytes"]; !ok || v <= 0 {
		t.Errorf("mem stats missing from /metrics: %v", resp.Mem)
	}
	// The snapshot is taken while the /metrics request itself is still
	// in flight, so the gauge reads exactly 1 in its own response.
	if g, ok := resp.Metrics.Gauges["http.inflight"]; !ok || g != 1 {
		t.Errorf("http.inflight = %d (present=%v), want 1", g, ok)
	}
	for _, name := range []string{"http.latency_seconds.metrics", "generate.sample.seconds"} {
		hist, ok := resp.Metrics.Histograms[name]
		if !ok {
			t.Errorf("histogram %q missing", name)
			continue
		}
		if len(hist.Counts) != len(hist.Bounds)+1 {
			t.Errorf("%s: %d counts for %d bounds", name, len(hist.Counts), len(hist.Bounds))
		}
	}
}

// TestMetricsCountersAdvance drives a mix of successful and failing
// requests and asserts the middleware counters and latency histograms
// actually move. The fixture is shared across tests, so everything is
// checked as a before/after delta.
func TestMetricsCountersAdvance(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	before := s.Metrics().Snapshot()

	for i := 0; i < 2; i++ {
		if rec := do(t, h, "POST", "/generate", `{"periods": 12, "seed": 5}`); rec.Code != http.StatusOK {
			t.Fatalf("generate status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for _, body := range []string{`{`, `{"periods": 0}`, `{"periods": 10, "format": "xml"}`} {
		if rec := do(t, h, "POST", "/generate", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
	}
	do(t, h, "GET", "/healthz", "")

	after := s.Metrics().Snapshot()
	if got := after.Counters["http.requests.generate"] - before.Counters["http.requests.generate"]; got != 5 {
		t.Errorf("http.requests.generate delta = %d, want 5", got)
	}
	if got := after.Counters["http.errors.generate"] - before.Counters["http.errors.generate"]; got != 3 {
		t.Errorf("http.errors.generate delta = %d, want 3", got)
	}
	if got := after.Counters["http.requests.healthz"] - before.Counters["http.requests.healthz"]; got != 1 {
		t.Errorf("http.requests.healthz delta = %d, want 1", got)
	}
	if got := after.Counters["http.errors.healthz"] - before.Counters["http.errors.healthz"]; got != 0 {
		t.Errorf("http.errors.healthz delta = %d, want 0", got)
	}
	lat := func(s obs.Snapshot) int64 { return s.Histograms["http.latency_seconds.generate"].Count }
	if got := lat(after) - lat(before); got != 5 {
		t.Errorf("latency histogram count delta = %d, want 5 (errors included)", got)
	}
	// Phase histograms only cover requests that reached generation.
	samp := func(s obs.Snapshot) int64 { return s.Histograms["generate.sample.seconds"].Count }
	if got := samp(after) - samp(before); got != 2 {
		t.Errorf("sample phase histogram delta = %d, want 2", got)
	}
	if after.Gauges["http.inflight"] != 0 {
		t.Errorf("http.inflight = %d after requests drained", after.Gauges["http.inflight"])
	}
}

// TestGenerateConcurrentCoalesced fires many concurrent POST /generate
// requests so they coalesce into shared decode batches, then checks
// each response byte-for-byte against the one-stream decode of its seed —
// the server-level version of the engine determinism contract. Runs
// under -race via scripts/check.sh.
func TestGenerateConcurrentCoalesced(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	const n = 12
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"periods": 24, "seed": %d, "format": "json"}`, 1000+i)
			rec := do(t, h, "POST", "/generate", body)
			if rec.Code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			bodies[i] = rec.Body.String()
		}(i)
	}
	wg.Wait()
	start := s.model.Flavor.HistoryDays * trace.PeriodsPerDay
	w := trace.Window{Start: start, End: start + 24}
	for i := 0; i < n; i++ {
		tr := core.WithCatalog(s.model.Generate(rng.New(int64(1000+i)), w), s.catalog)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if bodies[i] != buf.String() {
			t.Fatalf("request %d: coalesced response differs from one-stream Generate", i)
		}
	}
}

// TestGenerateCancelledCounter submits a request whose context is
// already cancelled: the engine aborts the stream, no response body is
// written, and the abandonment lands on the http.cancelled counter
// rather than the error counter.
func TestGenerateCancelledCounter(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	before := s.Metrics().Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/generate", strings.NewReader(`{"periods": 24, "seed": 4}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	after := s.Metrics().Snapshot()
	if got := after.Counters["http.cancelled"] - before.Counters["http.cancelled"]; got != 1 {
		t.Errorf("http.cancelled delta = %d, want 1", got)
	}
	if got := after.Counters["http.errors.generate"] - before.Counters["http.errors.generate"]; got != 0 {
		t.Errorf("http.errors.generate delta = %d, want 0 (cancellation is not a server error)", got)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled request wrote %d body bytes, want none", rec.Body.Len())
	}
}

// failingWriter is a ResponseWriter whose connection breaks after limit
// body bytes: the write that crosses the limit and every later one fail.
// It records what a handler does once its body has started.
type failingWriter struct {
	header     http.Header
	limit, n   int
	failed     bool
	lateWrites int // Write calls after the failing one
	lateHeader int // WriteHeader calls once a body byte was offered
}

var errClientGone = fmt.Errorf("client gone")

func (w *failingWriter) Header() http.Header { return w.header }

func (w *failingWriter) WriteHeader(int) {
	if w.n > 0 || w.failed {
		w.lateHeader++
	}
}

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.failed {
		w.lateWrites++
		return 0, errClientGone
	}
	if w.n+len(b) > w.limit {
		took := w.limit - w.n
		w.n, w.failed = w.limit, true
		return took, errClientGone
	}
	w.n += len(b)
	return len(b), nil
}

// TestGenerateWriteErrorStopsResponse breaks the connection part-way
// through a /generate body in both formats: the handler must write
// nothing after the failing write (no error object appended to the cut
// body, no second WriteHeader) and count the failure once on
// generate.write_errors.
func TestGenerateWriteErrorStopsResponse(t *testing.T) {
	shared := testServer(t)
	for _, format := range []string{"csv", "json"} {
		t.Run(format, func(t *testing.T) {
			s := New(shared.model, shared.catalog) // a registry of its own
			w := &failingWriter{header: http.Header{}, limit: 100}
			body := fmt.Sprintf(`{"periods": %d, "seed": 7, "format": %q}`, trace.PeriodsPerDay, format)
			s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/generate", strings.NewReader(body)))
			if !w.failed {
				t.Fatalf("body of %d bytes never reached the %d-byte limit", w.n, w.limit)
			}
			if w.lateWrites != 0 {
				t.Errorf("%d writes after the failing one, want none", w.lateWrites)
			}
			if w.lateHeader != 0 {
				t.Errorf("%d WriteHeader calls after the body started, want none", w.lateHeader)
			}
			if got := s.Metrics().Counter("generate.write_errors").Value(); got != 1 {
				t.Errorf("generate.write_errors = %d, want 1", got)
			}
		})
	}
}

// TestMetricsShardGauges serves /generate through a two-shard engine
// (two par workers) and asserts the shard gauges surface in GET /metrics: decode.shards
// reporting K, every decode.shard_occupancy.<k> /
// decode.streams_per_shard.<k> gauge present, assignments totalling the served requests, and
// occupancy drained back to zero.
func TestMetricsShardGauges(t *testing.T) {
	shared := testServer(t)
	s := NewWithRegistry(shared.currentModel(), shared.catalog, obs.NewRegistry())
	const shards = 2
	defer par.SetProcs(par.SetProcs(shards))
	defer s.Close()
	h := s.Handler()

	const n = 8
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"periods": 12, "seed": %d}`, 300+i)
		if rec := do(t, h, "POST", "/generate", body); rec.Code != http.StatusOK {
			t.Fatalf("generate %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var resp struct {
		Metrics struct {
			Gauges map[string]int64 `json:"gauges"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Metrics.Gauges["decode.shards"]; got != shards {
		t.Errorf("decode.shards = %d, want %d", got, shards)
	}
	var assigned int64
	for k := 0; k < shards; k++ {
		occName := fmt.Sprintf("decode.shard_occupancy.%d", k)
		occ, ok := resp.Metrics.Gauges[occName]
		if !ok {
			t.Fatalf("gauge %q missing from /metrics", occName)
		}
		if occ != 0 {
			t.Errorf("%s = %d with no in-flight requests, want 0", occName, occ)
		}
		asnName := fmt.Sprintf("decode.streams_per_shard.%d", k)
		asn, ok := resp.Metrics.Gauges[asnName]
		if !ok {
			t.Fatalf("gauge %q missing from /metrics", asnName)
		}
		assigned += asn
	}
	if assigned != n {
		t.Errorf("streams_per_shard total = %d, want %d", assigned, n)
	}
}

// TestShardedServerMatchesOneStreamDecode pins shard-count transparency
// at the HTTP layer: a four-shard server (four par workers) answers a (seed, periods)
// request with the one-stream decode of that seed and window at its
// precision, serialized the way /generate does, at f64 and at f32.
func TestShardedServerMatchesOneStreamDecode(t *testing.T) {
	shared := testServer(t)
	defer par.SetProcs(par.SetProcs(4))
	for _, prec := range []core.Precision{core.PrecisionF64, core.PrecisionF32} {
		s := NewWithRegistry(shared.currentModel(), shared.catalog, obs.NewRegistry())
		s.Precision = string(prec)
		rec := do(t, s.Handler(), "POST", "/generate", `{"periods": 24, "seed": 77, "format": "json"}`)
		s.Close()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", prec, rec.Code, rec.Body.String())
		}
		if rec.Body.String() != refBytes(t, s, s.currentModel(), prec, 77, 24) {
			t.Fatalf("%s: four-shard server response differs from the one-stream decode of the same seed", prec)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	h := testServer(t).Handler()
	if rec := do(t, h, "GET", "/generate", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /generate status %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d", rec.Code)
	}
}

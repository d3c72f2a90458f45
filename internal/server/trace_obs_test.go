package server

import (
	"encoding/json"
	"net/http"
	"regexp"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rtrace"
)

// tracedServer builds a private server around the shared trained model
// with request tracing attached, decoding on two shards (two par
// workers, restored when the test ends).
func tracedServer(t *testing.T) *Server {
	t.Helper()
	base := testServer(t)
	prev := par.SetProcs(2)
	t.Cleanup(func() { par.SetProcs(prev) })
	s := New(base.currentModel(), base.catalog)
	s.Tracer = rtrace.NewTracer(16)
	t.Cleanup(s.Close)
	return s
}

type tracesResponse struct {
	Enabled  bool              `json:"enabled"`
	Count    uint64            `json:"count"`
	Capacity int               `json:"capacity"`
	Traces   []rtrace.Finished `json:"traces"`
}

// TestGenerateTracedEndToEnd is the ISSUE acceptance path: a traced
// /generate returns an X-Trace-Id, the trace is retrievable from
// /debug/traces with the full queue/coalesce/decode/encode span tree,
// the span tree accounts for >= 95% of the measured wall time (on the
// best of up to five requests), and the response bytes are identical to
// an untraced server's.
func TestGenerateTracedEndToEnd(t *testing.T) {
	s := tracedServer(t)
	h := s.Handler()
	const body = `{"periods": 288, "seed": 41, "format": "json"}`

	rec := do(t, h, "POST", "/generate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get("X-Trace-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("X-Trace-Id = %q, want 16 hex digits", id)
	}

	// Byte-identity across tracing: the shared untraced server (batched
	// engine, no tracer) must produce the same bytes for the same seed.
	plain := do(t, testServer(t).Handler(), "POST", "/generate", body)
	if plain.Code != http.StatusOK {
		t.Fatalf("untraced status %d", plain.Code)
	}
	if plain.Header().Get("X-Trace-Id") != "" {
		t.Fatal("untraced server must not emit X-Trace-Id")
	}
	if rec.Body.String() != plain.Body.String() {
		t.Fatal("traced response differs from untraced (tracing is not read-only)")
	}

	// The finished trace is in the ring, spans tile the request. What
	// the span tree leaves uncovered is how long the scheduler took to
	// wake this handler after the engine retired the stream — one-sided
	// noise, a property of the host — so coverage is read as the best of
	// up to five requests; everything else must hold on every one.
	var covs []float64
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			rec = do(t, h, "POST", "/generate", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("attempt %d: status %d: %s", attempt, rec.Code, rec.Body.String())
			}
			id = rec.Header().Get("X-Trace-Id")
		}
		tr := do(t, h, "GET", "/debug/traces?n=5", "")
		var resp tracesResponse
		if err := json.Unmarshal(tr.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Enabled || resp.Count < 1 || resp.Capacity != 16 {
			t.Fatalf("traces response: %+v", resp)
		}
		var fin *rtrace.Finished
		for i := range resp.Traces {
			if resp.Traces[i].ID == id {
				fin = &resp.Traces[i]
			}
		}
		if fin == nil {
			t.Fatalf("trace %s not found in /debug/traces tail", id)
		}
		for _, name := range []string{"queue", "coalesce", "decode", "encode"} {
			if _, ok := fin.SpanDur(name); !ok {
				t.Fatalf("span %q missing from %+v", name, fin.Spans)
			}
		}
		if d, _ := fin.SpanDur("decode"); d <= 0 {
			t.Fatal("decode span has zero duration")
		}
		if fin.Shard < 0 || fin.Shard >= 2 {
			t.Fatalf("shard = %d, want in [0,2)", fin.Shard)
		}
		covs = append(covs, fin.Coverage())
		if fin.Coverage() >= 0.95 {
			return
		}
	}
	t.Fatalf("span tree coverage of wall time over %d requests: %.3f, want >= 0.95 on one", len(covs), covs)
}

// TestPhaseHistogramsOnMetrics: the traced request populates the
// generate.phase.* histograms, and every histogram snapshot carries
// derived p50/p90/p99.
func TestPhaseHistogramsOnMetrics(t *testing.T) {
	s := tracedServer(t)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec := do(t, h, "POST", "/generate", `{"periods": 48, "seed": 21}`); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	rec := do(t, h, "GET", "/metrics", "")
	var resp struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"generate.phase.queue.seconds",
		"generate.phase.coalesce.seconds",
		"generate.phase.decode.seconds",
		"generate.encode.seconds",
	} {
		hs, ok := resp.Metrics.Histograms[name]
		if !ok {
			t.Fatalf("histogram %q missing from /metrics", name)
		}
		if hs.Count != 3 {
			t.Fatalf("%s count = %d, want 3", name, hs.Count)
		}
		if hs.P50 > hs.P90 || hs.P90 > hs.P99 {
			t.Fatalf("%s quantiles not monotone: %+v", name, hs)
		}
	}
}

// TestDebugTracesDisabled: with no tracer the endpoint reports
// enabled=false (not 404) and /generate omits the header.
func TestDebugTracesDisabled(t *testing.T) {
	h := testServer(t).Handler()
	rec := do(t, h, "GET", "/debug/traces", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp tracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || len(resp.Traces) != 0 {
		t.Fatalf("disabled tracer response: %+v", resp)
	}
	if rec := do(t, h, "GET", "/debug/traces?n=bogus", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", rec.Code)
	}
}

// TestReadyz: not-ready before the first snapshot, ready after, and
// not-ready again while a reload is in progress.
func TestReadyz(t *testing.T) {
	base := testServer(t)
	s := NewWithRegistry(nil, nil, obs.NewRegistry())
	t.Cleanup(s.Close)
	h := s.Handler()

	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish readyz = %d, want 503", rec.Code)
	}
	// Liveness stays green while readiness is red.
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	// /generate on an unpublished server is a clean 500, not a panic.
	if rec := do(t, h, "POST", "/generate", `{"periods": 12}`); rec.Code != http.StatusInternalServerError {
		t.Fatalf("generate without model = %d, want 500", rec.Code)
	}

	s.Reload(base.currentModel(), base.catalog)
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("post-publish readyz = %d, want 200", rec.Code)
	}
	if rec := do(t, h, "POST", "/generate", `{"periods": 12, "seed": 5}`); rec.Code != http.StatusOK {
		t.Fatalf("generate after publish = %d: %s", rec.Code, rec.Body.String())
	}

	// Mid-reload the probe flips back to 503.
	s.reloading.Store(true)
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mid-reload readyz = %d, want 503", rec.Code)
	}
	s.reloading.Store(false)
}

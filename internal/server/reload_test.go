package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// freshServer clones the shared test model into a private Server so
// reload tests can swap snapshots without disturbing other tests.
func freshServer(t *testing.T) *Server {
	t.Helper()
	shared := testServer(t)
	return NewWithRegistry(shared.currentModel(), shared.catalog, obs.NewRegistry())
}

// TestHotReloadUnderLoad is the tentpole serving guarantee: hot
// reloading the model while /generate requests are in flight drops no
// request and changes no response bytes. Run with -race (scripts/
// check.sh does): the snapshot swap and the engine retry path are
// exactly where a data race would live. The engine runs one scheduler
// per par worker; at one worker it is the single-scheduler engine.
func TestHotReloadUnderLoad(t *testing.T) {
	testHotReloadUnderLoad(t, 1)
}

// TestHotReloadUnderLoadSharded is the same guarantee at four par
// workers, so four decode shards on any host: reload must drain and
// replay across all shards without dropping or changing a request, and
// the engine rebuilt after the swap must come back sharded. Run with
// -race via scripts/check.sh.
func TestHotReloadUnderLoadSharded(t *testing.T) {
	testHotReloadUnderLoad(t, 4)
}

func testHotReloadUnderLoad(t *testing.T, procs int) {
	defer par.SetProcs(par.SetProcs(procs))
	s := freshServer(t)
	h := s.Handler()

	body := func(seed int64) string {
		return fmt.Sprintf(`{"periods": 24, "seed": %d, "format": "json"}`, seed)
	}
	// Reference bytes per seed, captured with no reloads happening.
	const seeds = 4
	want := make([]string, seeds)
	for i := range want {
		rec := do(t, h, "POST", "/generate", body(int64(i+1)))
		if rec.Code != http.StatusOK {
			t.Fatalf("reference request: status %d: %s", rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}

	const workers = 8
	const perWorker = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := int64(w%seeds + 1)
				rec := do(t, h, "POST", "/generate", body(seed))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %s", w, rec.Code, rec.Body.String())
					return
				}
				if got := rec.Body.String(); got != want[seed-1] {
					errs <- fmt.Errorf("worker %d: seed %d response changed across reload", w, seed)
					return
				}
			}
		}(w)
	}
	// Swap the serving snapshot repeatedly while the workers hammer
	// /generate. The model is identical, so the response bytes must be
	// too — which is precisely what makes dropped or corrupted requests
	// observable.
	model, catalog := s.currentModel(), s.catalog
	for i := 0; i < 10; i++ {
		s.Reload(model, catalog)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReloadWithEveryShardBusy lands a reload while every decode shard
// holds in-flight streams: the old router must signal all of its shards
// and let each finish what it is decoding, so every request that was in
// flight answers 200 with unchanged bytes and the occupancy gauges —
// shared by the draining and the fresh engine — return to zero.
func TestReloadWithEveryShardBusy(t *testing.T) {
	s := freshServer(t)
	const shards = 4
	defer par.SetProcs(par.SetProcs(shards))
	defer s.Close()
	h := s.Handler()

	// Week-long requests: still decoding when the reload arrives.
	const n = 2 * shards
	body := func(i int) string {
		return fmt.Sprintf(`{"periods": %d, "seed": %d}`, 7*trace.PeriodsPerDay, 40+i)
	}
	want := make([]string, n)
	for i := range want {
		rec := do(t, h, "POST", "/generate", body(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("reference request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}

	var wg sync.WaitGroup
	codes := make([]int, n)
	got := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(t, h, "POST", "/generate", body(i))
			codes[i], got[i] = rec.Code, rec.Body.String()
		}(i)
	}
	busy := func() (k int) {
		snap := s.Metrics().Snapshot()
		for i := 0; i < shards; i++ {
			if snap.Gauges[fmt.Sprintf("decode.shard_occupancy.%d", i)] > 0 {
				k++
			}
		}
		return k
	}
	for deadline := time.Now().Add(30 * time.Second); busy() < shards; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d shards ever held a stream at once", busy(), shards)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.Reload(s.currentModel(), s.catalog)
	wg.Wait()
	for i := range got {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d in flight across the reload: status %d: %s", i, codes[i], got[i])
		} else if got[i] != want[i] {
			t.Errorf("request %d: response changed across the reload", i)
		}
	}
	if k := busy(); k != 0 {
		t.Errorf("%d shards still report occupancy after every request returned", k)
	}
}

// TestHotReloadRepacksPanels pins the publish-time packing contract
// across a weight swap: a reload that actually changes the model must
// serve the NEW model's bytes immediately after the swap, with zero
// dropped or torn requests while it happens. The reference bytes come
// from the new model's one-stream Model.Generate, so a rebuilt engine
// reusing stale panels (or packing the old weights) could not pass: the
// only way to produce the new bytes is panels packed from the new
// weights. Run with -race via scripts/check.sh.
func TestHotReloadRepacksPanels(t *testing.T) {
	s := freshServer(t)
	h := s.Handler()

	const seed, periods = 5, 24
	body := fmt.Sprintf(`{"periods": %d, "seed": %d, "format": "json"}`, periods, seed)

	oldModel := s.currentModel()
	oldWant := refBytes(t, s, oldModel, core.PrecisionF64, seed, periods)
	rec := do(t, h, "POST", "/generate", body)
	if rec.Code != http.StatusOK || rec.Body.String() != oldWant {
		t.Fatalf("pre-reload serve mismatch (status %d)", rec.Code)
	}

	// A perturbed deep copy, so the reload is a real weight swap (the
	// shared test model is untouched).
	newModel := scaledCopy(t, oldModel)
	newWant := refBytes(t, s, newModel, core.PrecisionF64, seed, periods)
	if newWant == oldWant {
		t.Fatal("perturbed model decodes identically; the reload check would be vacuous")
	}

	// Hammer /generate across the swap: every response must be exactly
	// the old or the new model's bytes — never an error, never a blend.
	const workers = 8
	const perWorker = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := do(t, h, "POST", "/generate", body)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d: %s", w, rec.Code, rec.Body.String())
					return
				}
				if got := rec.Body.String(); got != oldWant && got != newWant {
					errs <- fmt.Errorf("worker %d: response matches neither snapshot", w)
					return
				}
			}
		}(w)
	}
	s.Reload(newModel, s.catalog)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The settled server must serve from new-model panels: exactly the
	// new model's one-stream reference bytes.
	rec = do(t, h, "POST", "/generate", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != newWant {
		t.Fatal("post-reload response is not the new model's reference decode; stale weights or stale panels are being served")
	}
}

// refBytes decodes one stream of m with the one-stream decode at prec —
// Model.Generate at f64, a one-stream GenerateBatchShardedF32 at f32 — and
// serializes it the way /generate does.
func refBytes(t *testing.T, s *Server, m *core.Model, prec core.Precision, seed int64, periods int) string {
	t.Helper()
	start := m.Flavor.HistoryDays * trace.PeriodsPerDay
	w := trace.Window{Start: start, End: start + periods}
	var tr *trace.Trace
	if prec == core.PrecisionF32 {
		tr = m.GenerateBatchShardedF32([]*rng.RNG{rng.New(seed)}, w, 0)[0]
	} else {
		tr = m.Generate(rng.New(seed), w)
	}
	var buf strings.Builder
	if err := core.WithCatalog(tr, s.catalog).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestReloadEndpoint(t *testing.T) {
	s := freshServer(t)
	h := s.Handler()

	// Unconfigured: explicit 501, not a panic.
	rec := do(t, h, "POST", "/-/reload", "")
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("no ReloadFunc: status %d", rec.Code)
	}

	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) { return nil, nil, fmt.Errorf("no new model") }
	rec = do(t, h, "POST", "/-/reload", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing ReloadFunc: status %d", rec.Code)
	}
	if got := s.reg.Counter("reload.errors").Value(); got != 1 {
		t.Fatalf("reload.errors = %d, want 1", got)
	}
	// A failed reload must leave the old snapshot serving.
	if do(t, h, "GET", "/model", "").Code != http.StatusOK {
		t.Fatal("model endpoint broken after failed reload")
	}

	model, catalog := s.currentModel(), s.catalog
	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) { return model, catalog, nil }
	rec = do(t, h, "POST", "/-/reload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["status"] != "reloaded" {
		t.Fatalf("resp: %v", resp)
	}
	if got := s.reg.Counter("reload.success").Value(); got != 1 {
		t.Fatalf("reload.success = %d, want 1", got)
	}
}

// TestReloadRefusesCatalogMismatch: a snapshot that pairs the model
// with a flavor catalog of another size (the shared model samples the
// 16 Azure-like flavors; the Huawei-like catalog is larger) is refused.
// POST /-/reload answers 500 naming both sizes and counts reload.errors,
// Reload (the SIGHUP path) returns the error, and the old snapshot keeps
// serving: a JSON body from /generate still reads back through
// trace.ReadJSON, which rejects a VM whose flavor is outside the body's
// catalog.
func TestReloadRefusesCatalogMismatch(t *testing.T) {
	s := freshServer(t)
	defer s.Close()
	h := s.Handler()
	model := s.currentModel()
	other := synth.HuaweiFlavors()
	if other.K() == model.Flavor.K {
		t.Fatalf("the Huawei-like catalog has the model's %d flavors; the test needs another size", other.K())
	}
	sizes := []string{strconv.Itoa(model.Flavor.K), strconv.Itoa(other.K())}

	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) { return model, other, nil }
	rec := do(t, h, "POST", "/-/reload", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("mismatched reload: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	for _, k := range sizes {
		if !strings.Contains(rec.Body.String(), k) {
			t.Errorf("reload error %q does not name size %s", rec.Body.String(), k)
		}
	}
	if err := s.Reload(model, other); err == nil {
		t.Error("Reload accepted a catalog of another size")
	}
	if got := s.reg.Counter("reload.errors").Value(); got != 1 {
		t.Errorf("reload.errors = %d, want 1", got)
	}
	if got := s.reg.Counter("reload.success").Value(); got != 0 {
		t.Errorf("reload.success = %d, want 0", got)
	}

	gen := do(t, h, "POST", "/generate", `{"periods": 96, "seed": 5, "format": "json"}`)
	if gen.Code != http.StatusOK {
		t.Fatalf("generate after the refused reload: status %d: %s", gen.Code, gen.Body.String())
	}
	tr, err := trace.ReadJSON(gen.Body)
	if err != nil {
		t.Fatalf("served body does not read back: %v", err)
	}
	if len(tr.VMs) == 0 || tr.Flavors.K() != model.Flavor.K {
		t.Fatalf("served %d VMs over a catalog of %d flavors, want some VMs over %d", len(tr.VMs), tr.Flavors.K(), model.Flavor.K)
	}
}

// TestReloadRefusesOverflowingRate: a model whose arrival rate
// overflows at the server's MaxScale (the Poisson draw of a request at
// that scale would panic) is refused on reload, and the old snapshot
// keeps serving; a server built on such a model answers /generate with
// an engine error, not a panic, and still closes.
func TestReloadRefusesOverflowingRate(t *testing.T) {
	s := freshServer(t)
	defer s.Close()
	h := s.Handler()
	model, catalog := s.currentModel(), s.catalog
	bad, err := core.Tilted(model, core.WhatIf{RateScale: 1e305})
	if err != nil {
		t.Fatal(err)
	}
	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) { return bad, catalog, nil }
	if rec := do(t, h, "POST", "/-/reload", ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("overflowing reload: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if err := s.Reload(bad, catalog); err == nil {
		t.Error("Reload accepted a model whose rate overflows at MaxScale")
	}
	if got := s.reg.Counter("reload.errors").Value(); got != 1 {
		t.Errorf("reload.errors = %d, want 1", got)
	}
	if s.currentModel() != model {
		t.Error("a refused reload replaced the serving model")
	}
	body := `{"periods": 4, "seed": 5}`
	if rec := do(t, h, "POST", "/generate", body); rec.Code != http.StatusOK {
		t.Fatalf("generate after the refused reload: status %d: %s", rec.Code, rec.Body.String())
	}

	direct := NewWithRegistry(bad, catalog, obs.NewRegistry())
	if rec := do(t, direct.Handler(), "POST", "/generate", body); rec.Code != http.StatusInternalServerError {
		t.Errorf("generate on an overflowing model: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	direct.Close()
}

// TestClientDisconnectMidDecode is the disconnect drill: a client that
// hangs up while its request decodes has its stream retired (the next
// round drops it: core's TestCancelledStreamRetiresNextRound), the
// handler returns without a body and counts http.cancelled rather than
// an error, the shard's occupancy falls back to zero, and no goroutine
// outlives the request. It is served over a real connection, so the
// cancellation comes from the server noticing the closed socket.
func TestClientDisconnectMidDecode(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	s := freshServer(t)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	post := func(ctx context.Context, body string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/generate", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		return client.Do(req)
	}
	gauge := func(name string) int64 { return s.reg.Snapshot().Gauges[name] }
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// A first request starts the engine, whose goroutines belong to the
	// baseline; the baseline is taken once the count has settled.
	resp, err := post(context.Background(), `{"periods": 4, "seed": 1}`)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	baseline := runtime.NumGoroutine()
	for still := 0; still < 5; time.Sleep(20 * time.Millisecond) {
		if n := runtime.NumGoroutine(); n != baseline {
			baseline, still = n, 0
		} else {
			still++
		}
	}

	// Four weeks at a hundred times the rate: minutes of decode, so the
	// stream is still running when the client goes.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		resp, err := post(ctx, fmt.Sprintf(`{"periods": %d, "seed": 2, "scale": 100}`, s.MaxPeriods))
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("status %d before the client hung up", resp.StatusCode)
		}
		done <- err
	}()
	waitFor("the stream to decode", func() bool { return gauge("decode.shard_occupancy.0") == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client: %v, want context.Canceled", err)
	}
	waitFor("the handler to return", func() bool {
		return s.reg.Counter("http.cancelled").Value() == 1 && gauge("http.inflight") == 0
	})
	if got := gauge("decode.shard_occupancy.0"); got != 0 {
		t.Errorf("decode.shard_occupancy.0 = %d after the handler returned, want 0", got)
	}
	if got := s.reg.Counter("http.errors.generate").Value(); got != 0 {
		t.Errorf("http.errors.generate = %d, want 0: a hang-up is not a server error", got)
	}
	client.CloseIdleConnections()
	var n int
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n = runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the drill, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestPrecisionSurvivesReload pins the serving precision contract: a
// server configured for the f32 fast path reports it in /model, serves
// deterministically, and keeps serving f32 across hot reloads (the
// rebuilt engine inherits the spec), with response bytes unchanged by
// the swap. A bad precision is refused by the gate: Reload returns its
// error while the old engine keeps serving the same bytes, and a fresh
// server answers /generate with a clean engine error (a 500, not a
// panic or a hang).
func TestPrecisionSurvivesReload(t *testing.T) {
	s := freshServer(t)
	s.Precision = string(core.PrecisionF32)
	h := s.Handler()

	rec := do(t, h, "GET", "/model", "")
	var meta map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta["precision"] != "f32" {
		t.Fatalf("model metadata precision = %v, want f32", meta["precision"])
	}

	body := `{"periods": 24, "seed": 7, "format": "json"}`
	before := do(t, h, "POST", "/generate", body)
	if before.Code != http.StatusOK {
		t.Fatalf("f32 generate: status %d: %s", before.Code, before.Body.String())
	}
	// The engine the first request built must be an f32 decode: its
	// response equals the model's own f32 reference bytes.
	ref := refBytes(t, s, s.currentModel(), core.PrecisionF32, 7, 24)
	if before.Body.String() != ref {
		t.Fatal("served f32 response differs from the model's f32 reference decode")
	}

	s.Reload(s.currentModel(), s.catalog)
	after := do(t, h, "POST", "/generate", body)
	if after.Code != http.StatusOK {
		t.Fatalf("post-reload generate: status %d: %s", after.Code, after.Body.String())
	}
	if after.Body.String() != before.Body.String() {
		t.Fatal("f32 response bytes changed across hot reload")
	}

	s.Precision = "f16"
	if err := s.Reload(s.currentModel(), s.catalog); err == nil {
		t.Fatal("Reload accepted an unknown precision")
	}
	if rec = do(t, h, "POST", "/generate", body); rec.Code != http.StatusOK || rec.Body.String() != before.Body.String() {
		t.Fatalf("after the refused reload: status %d, or the f32 bytes changed", rec.Code)
	}
	fresh := NewWithRegistry(s.currentModel(), s.catalog, obs.NewRegistry())
	fresh.Precision = "f16"
	if rec = do(t, fresh.Handler(), "POST", "/generate", body); rec.Code != http.StatusInternalServerError {
		t.Fatalf("bad precision: status %d, want 500", rec.Code)
	}
	fresh.Close()
}

// TestGenerateRejectsHostileRequests pins the request-validation caps:
// each of these bodies must get a clean 400, never a hung decode loop
// or a panic.
func TestGenerateRejectsHostileRequests(t *testing.T) {
	s := freshServer(t)
	h := s.Handler()
	cases := map[string]string{
		"huge scale":      `{"periods": 4, "scale": 1e300}`,
		"scale above cap": `{"periods": 4, "scale": 1000001}`,
		"negative scale":  `{"periods": 4, "scale": -2}`,
		"negative start":  `{"periods": 4, "start_period": -5}`,
		"absurd start":    `{"periods": 4, "start_period": 999999999999999}`,
		"garbage body":    `{"periods": !!!`,
		"wrong type":      `{"periods": "many"}`,
		"zero periods":    `{"periods": 0}`,
		"huge body": fmt.Sprintf(`{"periods": 4, "format": "%s"}`,
			strings.Repeat("x", 2<<20)),
	}
	for name, body := range cases {
		rec := do(t, h, "POST", "/generate", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

// fullDisk is a journal sink on a full disk: every write fails.
type fullDisk struct{}

func (fullDisk) Write([]byte) (int, error) { return 0, syscall.ENOSPC }

// TestJournalFailureKeepsServing is the journal drill: a -journal whose
// writes fail (ENOSPC here) loses its lines, but the loss shows on GET
// /metrics as obs.journal_errors and obs.journal_dropped_lines, and
// /generate keeps answering. The wiring is cmd/traced's: the journal
// counts into the registry the server publishes.
func TestJournalFailureKeepsServing(t *testing.T) {
	journal := obs.NewJournal(fullDisk{})
	reg := obs.NewRegistry()
	journal.CountInto(reg)
	shared := testServer(t)
	s := NewWithRegistry(shared.currentModel(), shared.catalog, reg)
	t.Cleanup(s.Close)
	h := s.Handler()

	const n = 5
	for i := 0; i < n; i++ {
		journal.Event("epoch", map[string]any{"i": i})
	}
	if rec := do(t, h, "POST", "/generate", `{"periods": 12, "seed": 7}`); rec.Code != http.StatusOK {
		t.Fatalf("generate with a failing journal = %d: %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "GET", "/metrics", "")
	var resp struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Metrics.Counters["obs.journal_errors"]; got != n {
		t.Errorf("obs.journal_errors = %d, want %d", got, n)
	}
	if got := resp.Metrics.Gauges["obs.journal_dropped_lines"]; got != n {
		t.Errorf("obs.journal_dropped_lines = %d, want %d", got, n)
	}
}

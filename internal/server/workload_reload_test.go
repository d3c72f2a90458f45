package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWorkloadSpecSurvivesHotReloadUnderLoad extends the
// TestHotReloadUnderLoad family to the declarative workload layer: a
// server configured from a three-cohort spec (catalog, /metrics
// summary, record sink) is hammered with concurrent /generate load
// while hot reloads rebuild the same spec-driven scenario through
// ReloadFunc. Zero requests may drop, response bytes may not change,
// the spec summary must still be served afterwards, and every recorded
// trace must be byte-identical to the response it mirrors — across
// both sides of every swap. Run with -race via scripts/check.sh.
func TestWorkloadSpecSurvivesHotReloadUnderLoad(t *testing.T) {
	spec := workload.Preset("mixed")
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}

	s := freshServer(t)
	// The spec-driven scenario: its compiled catalog is the serving
	// catalog and its summary is echoed on /metrics. (The mixed preset
	// rides the azure16 catalog, so the shared test model's flavor
	// space matches.)
	if cfg.Flavors.K() != s.catalog.K() {
		t.Fatalf("mixed spec catalog K=%d, test model trained on K=%d", cfg.Flavors.K(), s.catalog.K())
	}
	s.catalog = cfg.Flavors
	s.Workload = spec.Summary()

	recPath := filepath.Join(t.TempDir(), "served.jsonl")
	recorder, err := workload.OpenRecorder(recPath)
	if err != nil {
		t.Fatal(err)
	}
	s.OnTrace = func(tag string, seed int64, w trace.Window, scale float64, tr *trace.Trace) {
		if err := recorder.Append(workload.NewRecord("generate", core.EngineBatched, s.Precision, tag, seed, w, scale, tr)); err != nil {
			t.Errorf("record: %v", err)
		}
	}

	// ReloadFunc rebuilds the scenario the way cmd/traced does: the
	// model reloads from its source and the catalog re-compiles from
	// the same spec — so every swap exercises the spec-driven rebuild.
	model := s.currentModel()
	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) {
		recompiled, err := spec.Compile()
		if err != nil {
			return nil, nil, err
		}
		return model, recompiled.Flavors, nil
	}
	h := s.Handler()

	body := func(seed int64) string {
		return fmt.Sprintf(`{"periods": 24, "seed": %d, "format": "json"}`, seed)
	}
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
					errs <- fmt.Errorf("worker %d: seed %d response changed across spec-driven reload", w, seed)
					return
				}
			}
		}(w)
	}
	// Reload through the spec-rebuilding ReloadFunc (the POST /-/reload
	// path) while the workers hammer /generate.
	for i := 0; i < 10; i++ {
		rec := do(t, h, "POST", "/-/reload", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The spec summary survives every reload: /metrics still echoes the
	// scenario that configured the server.
	mrec := do(t, h, "GET", "/metrics", "")
	var metrics map[string]any
	if err := json.Unmarshal(mrec.Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	wl, ok := metrics["workload"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics lost the workload summary after reloads: %v", metrics["workload"])
	}
	if wl["name"] != "MixedCohorts" {
		t.Fatalf("workload summary name = %v", wl["name"])
	}
	if cohorts, ok := wl["cohorts"].([]any); !ok || len(cohorts) != 3 {
		t.Fatalf("workload summary cohorts = %v", wl["cohorts"])
	}

	// Every request was recorded, and each recorded trace round-trips
	// to exactly the bytes its response carried — on both sides of the
	// swaps.
	if err := recorder.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(recPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := workload.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantN := len(recs), seeds+workers*perWorker; got != wantN {
		t.Fatalf("recorded %d traces, want %d (dropped or double-recorded requests)", got, wantN)
	}
	for i, rec := range recs {
		var buf strings.Builder
		if err := rec.Trace().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if rec.Seed < 1 || rec.Seed > seeds {
			t.Fatalf("record %d has unexpected seed %d", i, rec.Seed)
		}
		if buf.String() != want[rec.Seed-1] {
			t.Fatalf("record %d (seed %d) does not reproduce the served response bytes", i, rec.Seed)
		}
	}
}

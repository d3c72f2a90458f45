package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyModel trains a small model on two days of the azure preset (a few
// seconds) and returns it with its catalog.
func tinyModel(t *testing.T) (*core.Model, *trace.FlavorSet) {
	t.Helper()
	cfg := workload.PresetConfig("azure")
	cfg.Days, cfg.Users, cfg.BaseRate = 2, 40, 1.5
	full := cfg.Generate(3)
	m, err := core.TrainModel(full, core.ModelOptions{
		Bins:  survival.PaperBins(),
		Train: core.TrainConfig{Hidden: 8, Layers: 1, SeqLen: 48, BatchSize: 8, Epochs: 2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg.Flavors
}

// tear truncates a published snapshot to half its length, as a crash
// mid-write outside the atomic rename would leave it.
func tear(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestReloadFromTornCheckpointDir is the torn-snapshot drill for the
// -checkpoint-dir reload source: a torn newest serving snapshot falls
// back to the previous intact one, and when every snapshot is torn the
// reload is refused, reload.errors reads 1 and the serving model keeps
// answering with unchanged bytes.
func TestReloadFromTornCheckpointDir(t *testing.T) {
	model, catalog := tinyModel(t)
	retrained, err := core.Tilted(model, core.WhatIf{RateScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, err := publishServing(dir, model)
	if err != nil {
		t.Fatal(err)
	}
	second, err := publishServing(dir, retrained)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadServing(dir)
	if err != nil || core.ModelTag(m) != core.ModelTag(retrained) {
		t.Fatalf("loadServing with both snapshots intact: tag %s, %v; want the newest", core.ModelTag(m), err)
	}
	tear(t, second)
	if m, err = loadServing(dir); err != nil || core.ModelTag(m) != core.ModelTag(model) {
		t.Fatalf("loadServing with the newest torn: tag %s, %v; want the previous snapshot's", core.ModelTag(m), err)
	}

	s := server.NewWithRegistry(nil, nil, obs.NewRegistry())
	defer s.Close()
	if err := s.Reload(model, catalog); err != nil {
		t.Fatal(err)
	}
	s.ReloadFunc = reloadSource("", dir, catalog)
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	const body = `{"periods": 24, "seed": 11, "format": "json"}`
	before := post("/generate", body)
	if before.Code != http.StatusOK {
		t.Fatalf("generate: status %d: %s", before.Code, before.Body.String())
	}

	tear(t, first)
	if rec := post("/-/reload", ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("reload with every snapshot torn: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if got := s.Metrics().Counter("reload.errors").Value(); got != 1 {
		t.Errorf("reload.errors = %d, want 1", got)
	}
	if after := post("/generate", body); after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
		t.Fatalf("after the refused reload: status %d, or the served bytes changed", after.Code)
	}
}

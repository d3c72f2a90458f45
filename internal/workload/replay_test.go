package workload

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

var (
	modelOnce sync.Once
	testModel *core.Model
)

// replayModel trains a tiny model once (the server-test pattern) and
// shares it across the replay tests.
func replayModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		cfg := PresetConfig("azure")
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
		testModel = m
	})
	return testModel
}

// newEngine builds a serving engine with a cap of four streams and
// `shards` decode shards: one per par worker, so par runs at `shards`
// workers while it is built.
func newEngine(t *testing.T, m *core.Model, shards int) core.GenEngine {
	t.Helper()
	prev := par.SetProcs(shards)
	eng, err := core.NewGenEngine(m, core.EngineSpec{MaxBatch: 4})
	par.SetProcs(prev)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReplayByteIdentityAcrossEngines is the acceptance criterion: a
// trace recorded from the one-stream Model.Generate (the record's
// engine label is "serial") replays byte-identically through the same
// seed on Generate again, on a single-scheduler engine, and on a
// sharded one.
func TestReplayByteIdentityAcrossEngines(t *testing.T) {
	m := replayModel(t)
	tag := core.ModelTag(m)
	if tag == "" {
		t.Fatal("empty model tag")
	}
	start := m.Flavor.HistoryDays * trace.PeriodsPerDay
	w := trace.Window{Start: start, End: start + 36}
	const seed, scale = 99, 1.0

	tr := m.Generate(rng.New(seed), w)
	if len(tr.VMs) == 0 {
		t.Fatal("recorded trace is empty; widen the window")
	}
	rec := NewRecord("test", "serial", "f64", tag, seed, w, scale, tr)

	// The record survives serialization before replay — the on-disk
	// round trip is part of the pinned path.
	data, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := ReadRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("serial", func(t *testing.T) {
		if err := rec2.Verify(m.Generate(rng.New(rec2.Seed), w)); err != nil {
			t.Fatalf("one-stream re-decode diverges from the round-tripped record: %v", err)
		}
	})
	for name, shards := range map[string]int{"batched": 1, "sharded": 2} {
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, m, shards)
			defer eng.Close()
			got, err := eng.Generate(context.Background(), rng.New(rec2.Seed), rec2.Window(), rec2.Scale)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec2.Verify(got); err != nil {
				t.Fatalf("replay on %d shard(s) diverges: %v", shards, err)
			}
		})
	}
}

// TestReplayWrongSeedDiverges: Verify actually detects divergence — a
// replay at a different seed must not silently pass.
func TestReplayWrongSeedDiverges(t *testing.T) {
	m := replayModel(t)
	start := m.Flavor.HistoryDays * trace.PeriodsPerDay
	w := trace.Window{Start: start, End: start + 36}
	eng := newEngine(t, m, 1)
	defer eng.Close()
	tr, err := eng.Generate(context.Background(), rng.New(5), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecord("test", core.EngineBatched, "f64", core.ModelTag(m), 5, w, 0, tr)
	rec.Seed = 6
	got, err := eng.Generate(context.Background(), rng.New(rec.Seed), rec.Window(), rec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Verify(got) == nil {
		t.Fatal("replay at the wrong seed should diverge")
	}
}

package repro

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestDeterminismAcrossWorkerCounts is the end-to-end enforcement of
// the par package's determinism contract: training the full model and
// generating a trace must produce byte-identical weights and output
// whether the parallel layer runs on one worker or eight. Every
// parallel region in the repository — sharded minibatch training,
// blocked GEMM, the pipelined generator, Monte-Carlo sampling — is
// required to reduce in fixed order, and this test catches any of them
// drifting.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) (flavorW, lifetimeW, traceJSON []byte) {
		defer par.SetProcs(par.SetProcs(procs))
		cfg := synth.AzureLike()
		cfg.Days = 3
		cfg.Users = 60
		cfg.BaseRate = 1.5
		full := cfg.Generate(7)
		trainW, _, testW := synth.StandardSplit(cfg.Days)
		train := full.Slice(trainW, 0)
		m, err := core.TrainModel(train, core.ModelOptions{
			Train: core.TrainConfig{
				Hidden: 8, Layers: 2, SeqLen: 16, BatchSize: 4,
				Epochs: 2, LR: 5e-3, Seed: 3,
			},
		})
		if err != nil {
			t.Fatalf("procs=%d: train: %v", procs, err)
		}
		flavorW, err = m.Flavor.Net.MarshalBinary()
		if err != nil {
			t.Fatalf("procs=%d: marshal flavor: %v", procs, err)
		}
		lifetimeW, err = m.Lifetime.Net.MarshalBinary()
		if err != nil {
			t.Fatalf("procs=%d: marshal lifetime: %v", procs, err)
		}
		tr := m.Generate(rng.New(11), testW)
		tr = core.WithCatalog(tr, full.Flavors)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatalf("procs=%d: write trace: %v", procs, err)
		}
		return flavorW, lifetimeW, buf.Bytes()
	}

	f1, l1, t1 := run(1)
	f8, l8, t8 := run(8)
	if !bytes.Equal(f1, f8) {
		t.Errorf("flavor weights differ between REPRO_PROCS=1 and 8 (%d vs %d bytes)", len(f1), len(f8))
	}
	if !bytes.Equal(l1, l8) {
		t.Errorf("lifetime weights differ between REPRO_PROCS=1 and 8 (%d vs %d bytes)", len(l1), len(l8))
	}
	if !bytes.Equal(t1, t8) {
		t.Errorf("generated traces differ between REPRO_PROCS=1 and 8 (%d vs %d bytes)", len(t1), len(t8))
	}
	if len(t1) == 0 {
		t.Fatal("empty serialized trace")
	}
}

// TestObservabilityIsReadOnly enforces the instrumentation layer's side
// of the determinism contract: attaching a telemetry journal, a
// Progress callback, and an epoch sink to training — and, on the decode
// side, a live request trace — must not touch any RNG stream or
// training state, so the trained weights and the generated trace are
// byte-identical with observability fully on and fully off.
func TestObservabilityIsReadOnly(t *testing.T) {
	run := func(observed bool) (flavorW, lifetimeW, traceJSON []byte) {
		cfg := synth.AzureLike()
		cfg.Days = 3
		cfg.Users = 60
		cfg.BaseRate = 1.5
		full := cfg.Generate(7)
		trainW, _, testW := synth.StandardSplit(cfg.Days)
		train := full.Slice(trainW, 0)
		tc := core.TrainConfig{
			Hidden: 8, Layers: 2, SeqLen: 16, BatchSize: 4,
			Epochs: 2, LR: 5e-3, Seed: 3,
		}
		var journal *obs.Journal
		if observed {
			path := filepath.Join(t.TempDir(), "run.jsonl")
			var err error
			journal, err = obs.OpenJournal(path)
			if err != nil {
				t.Fatalf("open journal: %v", err)
			}
			defer func() {
				journal.Close()
				blob, err := os.ReadFile(path)
				if err != nil || len(blob) == 0 {
					t.Errorf("journal was not written (err=%v, %d bytes)", err, len(blob))
				}
			}()
			tc.Obs = journal
			tc.Progress = func(int, float64) {}
		}
		span := journal.StartSpan("train")
		m, err := core.TrainModel(train, core.ModelOptions{Train: tc})
		span.End()
		if err != nil {
			t.Fatalf("observed=%v: train: %v", observed, err)
		}
		flavorW, err = m.Flavor.Net.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		lifetimeW, err = m.Lifetime.Net.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// Decode through the serving engine, one scheduler (one par
		// worker). The observed arm runs with request tracing attached
		// (spans recorded at every pipeline phase); the bare arm runs the
		// identical decode without it.
		prev := par.SetProcs(1)
		eng, err := core.NewGenEngine(m, core.EngineSpec{MaxBatch: 8})
		par.SetProcs(prev)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var tracer *rtrace.Tracer
		var rt *rtrace.Trace
		if observed {
			tracer = rtrace.NewTracer(8)
			rt = tracer.StartTrace()
			ctx = rtrace.NewContext(ctx, rt)
		}
		decoded, err := eng.Generate(ctx, rng.New(11), testW, 0)
		eng.Close()
		if err != nil {
			t.Fatalf("observed=%v: decode: %v", observed, err)
		}
		if observed {
			fin := tracer.Finish(rt)
			if _, ok := fin.SpanDur("decode"); !ok {
				t.Errorf("observed decode recorded no decode span: %+v", fin.Spans)
			}
		}
		tr := core.WithCatalog(decoded, full.Flavors)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return flavorW, lifetimeW, buf.Bytes()
	}

	fOn, lOn, tOn := run(true)
	fOff, lOff, tOff := run(false)
	if !bytes.Equal(fOn, fOff) {
		t.Error("flavor weights change when telemetry is enabled")
	}
	if !bytes.Equal(lOn, lOff) {
		t.Error("lifetime weights change when telemetry is enabled")
	}
	if !bytes.Equal(tOn, tOff) {
		t.Error("generated trace changes when telemetry is enabled")
	}
	if len(tOn) == 0 {
		t.Fatal("empty serialized trace")
	}
}

// TestDeterminismExperimentsSweep covers the experiment-layer fan-outs
// (Monte-Carlo sampling, packing trials) at two worker counts on a tiny
// cloud; unlike the training test above it exercises the shared-events
// parallel packing path with per-tuple RNG streams.
func TestDeterminismExperimentsSweep(t *testing.T) {
	cfg := synth.AzureLike()
	cfg.Days = 3
	cfg.Users = 60
	cfg.BaseRate = 1.5
	full := cfg.Generate(9)
	_, _, testW := synth.StandardSplit(cfg.Days)

	run := func(procs int) []byte {
		defer par.SetProcs(par.SetProcs(procs))
		naive, err := experiments.NewNaiveGenerator(full.Slice(trace.Window{Start: 0, End: testW.Start}, 0), survival.PaperBins())
		if err != nil {
			t.Fatalf("procs=%d: fit naive: %v", procs, err)
		}
		var buf bytes.Buffer
		g := rng.New(21)
		for i := 0; i < 4; i++ {
			tr := naive.Generate(g.Split(), testW)
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
		}
		return buf.Bytes()
	}
	if a, b := run(1), run(8); !bytes.Equal(a, b) {
		t.Errorf("naive generator sweep differs across worker counts (%d vs %d bytes)", len(a), len(b))
	}
}

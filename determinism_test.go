package repro

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fidelity"
	"repro/internal/mat/mattest"
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
// side, a live request trace plus the fidelity drift monitor — must not
// touch any RNG stream or training state, so the trained weights and
// the generated trace are byte-identical with observability fully on
// and fully off.
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
		// Decode through the serving engine. The observed arm runs with
		// request tracing attached (spans recorded at every pipeline
		// phase) and folds the result into a fidelity drift monitor; the
		// bare arm runs the identical decode with both disabled.
		eng, err := core.NewGenEngine(m, core.EngineSpec{MaxBatch: 8, Shards: 1})
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
			mon := fidelity.NewMonitor(
				fidelity.ReferenceFromTrace(train, survival.PaperBins().Edges),
				fidelity.Config{}, obs.NewRegistry())
			mon.ObserveTrace(decoded, 1)
			if mon.Snapshot().WindowVMs != int64(len(decoded.VMs)) {
				t.Error("fidelity monitor did not observe the decoded trace")
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

// TestBatchedFleetDecodeDeterminism extends the determinism contract to
// the continuous-batching decode path: generating a fleet of seeded
// traces one stream at a time (Model.Generate per seed), batched
// (Model.GenerateBatch over all seeds at once), and batched on a model
// resumed from a mid-training checkpoint must all produce byte-identical
// JSON per seed, on the assembly and on the portable kernels. Sampling
// hides a last-bit difference in a logit, so the trained flavor net's
// packed fleet is also stepped beside the scalar StepForward and its raw
// logits compared bit for bit — with StepForward, and across the two
// tiers (a bug both decoders of one tier share moves both).
func TestBatchedFleetDecodeDeterminism(t *testing.T) {
	train, catalog, testW := resumeFixture(t)
	dir := t.TempDir()
	base := trainFullModel(t, train, &core.CheckpointSpec{Dir: dir, Every: 1, Keep: -1})
	resumed := trainFullModel(t, train, &core.CheckpointSpec{
		Dir: cutDir(t, dir, 1), Every: 1, Keep: -1, Resume: true,
	})

	seeds := []int64{101, 102, 103, 104, 105, 106}
	encode := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if err := core.WithCatalog(tr, catalog).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	newGens := func() []*rng.RNG {
		gs := make([]*rng.RNG, len(seeds))
		for i, s := range seeds {
			gs[i] = rng.New(s)
		}
		return gs
	}

	var firstLogits []float64 // the fleet logits of the first tier that ran
	mattest.BothTiers(t, func(t *testing.T) {
		oneStream := make([][]byte, len(seeds))
		for i, s := range seeds {
			oneStream[i] = encode(base.Generate(rng.New(s), testW))
			if len(oneStream[i]) == 0 {
				t.Fatalf("seed %d: empty one-stream trace", s)
			}
		}
		batched := base.GenerateBatch(newGens(), testW)
		resumedBatched := resumed.GenerateBatch(newGens(), testW)
		for i, s := range seeds {
			if got := encode(batched[i]); !bytes.Equal(oneStream[i], got) {
				t.Errorf("seed %d: batched decode differs from one-stream Generate (%d vs %d bytes)", s, len(got), len(oneStream[i]))
			}
			if got := encode(resumedBatched[i]); !bytes.Equal(oneStream[i], got) {
				t.Errorf("seed %d: batched decode on resumed model differs from one-stream Generate on baseline", s)
			}
		}

		net := base.Flavor.Net
		fleet, st := net.NewFleetPacked(1, net.Pack()), net.NewState(1)
		fleet.Admit()
		var logits []float64
		for step := 0; step < 32; step++ {
			x := fleet.InputRow(0)
			clear(x)
			x[step%len(x)], x[(7*step+3)%len(x)] = 1, 0.5
			want := net.StepForward(x, st)
			got := fleet.Step([]int{0}).Row(0)
			logits = append(logits, got...)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("step %d: fleet logit %d = %x, StepForward %x", step, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
		if firstLogits == nil {
			firstLogits = logits
		}
		for i, want := range firstLogits {
			if math.Float64bits(logits[i]) != math.Float64bits(want) {
				t.Fatalf("fleet logit %d differs across kernel tiers", i)
			}
		}
	})
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

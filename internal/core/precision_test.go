package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/trace"
)

// tinyGenModel assembles the untrained tiny three-stage model the
// engine tests use, as a full Model.
func tinyGenModel() *Model {
	fm, lm := tinyGenModels()
	return &Model{Arrival: testArrivalModel(1.5), Flavor: fm, Lifetime: lm}
}

// TestPrecisionRegistryMatrix drives the engine at every precision and
// shard setting over the same seeds and pins the two determinism
// contracts: an f64 engine is byte-identical to the one-stream
// Model.Generate, and an f32 engine to the one-stream GenerateBatchF32
// — whatever the shard count, on the assembly and on the portable
// kernels.
func TestPrecisionRegistryMatrix(t *testing.T) {
	mattest.BothTiersUnraced(t, testPrecisionRegistryMatrix)
}

func testPrecisionRegistryMatrix(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	const n = 6
	seeds := make([]int64, n)
	f64Ref := make([][]byte, n)
	f32Ref := make([][]byte, n)
	src := rng.New(77)
	for i := range seeds {
		seeds[i] = src.Int63()
		f64Ref[i] = traceBytes(t, m.Generate(rng.New(seeds[i]), w))
		out := m.GenerateBatchF32([]*rng.RNG{rng.New(seeds[i])}, w)
		f32Ref[i] = traceBytes(t, out[0])
	}
	// Sampling can mask tiny logit drift (an untrained model's f32
	// bytes often coincide with f64), so guard against a disconnected
	// fast path structurally: the f32 fleet engine must be running
	// nn.Fleet32 steps, not the f64 fleets.
	fe := newFleetEngine(m, 1, PrecisionF32)
	for _, f := range []nn.StepFleet{fe.ff, fe.lf} {
		if _, ok := f.(*nn.Fleet32); !ok {
			t.Fatalf("f32 fleet engine is stepping %T, want *nn.Fleet32", f)
		}
	}
	// Shards: 0 is the default the server runs — one scheduler per par
	// worker, capped by MaxBatch — so at 8 workers those cells decode on
	// four shards.
	defer par.SetProcs(par.SetProcs(8))
	for _, prec := range []Precision{"", PrecisionF64, PrecisionF32} {
		for _, shards := range []int{0, 1, 2} {
			eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4, Shards: shards, Precision: prec})
			if err != nil {
				t.Fatalf("%q: %v", prec, err)
			}
			want := f64Ref
			if prec == PrecisionF32 {
				want = f32Ref
			}
			for i, seed := range seeds {
				tr, err := eng.Generate(context.Background(), rng.New(seed), w, 0)
				if err != nil {
					t.Fatalf("%q seed %d: %v", prec, seed, err)
				}
				if got := traceBytes(t, tr); !bytes.Equal(got, want[i]) {
					t.Fatalf("%q shards=%d stream %d: trace differs from the %s reference", prec, shards, i, prec.normalize())
				}
			}
			eng.Close()
		}
	}
	if _, err := NewGenEngine(m, EngineSpec{Precision: "f16"}); err == nil {
		t.Fatal("NewGenEngine accepted unknown precision f16")
	}
}

// TestGenerateBatchF32ShardInvariance pins the f32 batch-composition
// contract: sharded f32 decode is byte-identical to the single-fleet
// f32 batch at every shard count, the every-core default (0) included
// (the same invariance the f64 sharding rests on).
func TestGenerateBatchF32ShardInvariance(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	const n = 12
	src := rng.New(99)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = src.Int63()
	}
	mkStreams := func() []*rng.RNG {
		gs := make([]*rng.RNG, n)
		for i, s := range seeds {
			gs[i] = rng.New(s)
		}
		return gs
	}
	ref := m.GenerateBatchShardedF32(mkStreams(), w, 1)
	for _, shards := range []int{0, 2, 3, 4} {
		out := m.GenerateBatchShardedF32(mkStreams(), w, shards)
		for i := range out {
			if !bytes.Equal(traceBytes(t, out[i]), traceBytes(t, ref[i])) {
				t.Fatalf("shards=%d stream %d: sharded f32 trace differs from the single-fleet f32 batch", shards, i)
			}
		}
	}
}

// TestF32DivergenceWithinTolerance is the property test for the
// published precision policy, on the trained integration fixture: the
// teacher-forced f32 divergence of flavor probabilities, hazards, and
// survival curves stays within the documented tolerances, and the
// measurement is not vacuous (a trained f32 net must differ from f64
// somewhere).
func TestF32DivergenceWithinTolerance(t *testing.T) {
	f := getFixture(t)
	rep, err := f.model.ValidateF32()
	if err != nil {
		t.Fatalf("trained model fails the published f32 tolerance: %v", err)
	}
	if rep.MaxProbDiff == 0 || rep.MaxHazardDiff == 0 {
		t.Fatalf("f32 divergence identically zero (prob %v, hazard %v): comparison is vacuous", rep.MaxProbDiff, rep.MaxHazardDiff)
	}
	t.Logf("f32 divergence over %d steps: prob %.3g (tol %g), hazard %.3g (tol %g), survival %.3g (tol %g)",
		rep.Steps, rep.MaxProbDiff, float64(F32ProbTol), rep.MaxHazardDiff, float64(F32HazardTol),
		rep.MaxSurvivalDiff, float64(F32SurvivalTol))
}

// TestValidateF32RejectsBrokenConversion plants a wrong f32 conversion
// (another net's weights) and checks ValidateF32 refuses it — the
// publish-time gate must actually be able to fail.
func TestValidateF32RejectsBrokenConversion(t *testing.T) {
	m := tinyGenModel()
	// A conversion of differently-initialized weights of the same
	// shapes: outputs land far outside any rounding tolerance.
	badF := nn.NewLSTM(m.Flavor.Net.Cfg, rng.New(1001))
	badL := nn.NewLSTM(m.Lifetime.Net.Cfg, rng.New(1002))
	m.f32 = &ModelF32{Flavor: badF.Convert32(), Lifetime: badL.Convert32()}
	if _, err := m.ValidateF32(); err == nil {
		t.Fatal("ValidateF32 accepted a conversion of the wrong weights")
	}
}

// TestValidateF32RejectsStalePanels plants f32 panels packed from other
// weights of the same shapes — what a publish that re-converted but did
// not re-pack would serve — beside a correct f32 conversion. Every f32
// engine steps on those panels, so the publish-time gate has to step on
// them too: a calibration over unpacked stand-in fleets accepts this
// model.
func TestValidateF32RejectsStalePanels(t *testing.T) {
	m := tinyGenModel()
	if _, err := m.ValidateF32(); err != nil {
		t.Fatalf("freshly packed model: %v", err)
	}
	m.packed32 = &ModelPacked[float32]{
		Flavor:   nn.NewLSTM(m.Flavor.Net.Cfg, rng.New(1001)).Convert32().Pack(),
		Lifetime: nn.NewLSTM(m.Lifetime.Net.Cfg, rng.New(1002)).Convert32().Pack(),
	}
	if rep, err := m.ValidateF32(); err == nil {
		t.Fatalf("ValidateF32 accepted stale f32 panels (report %+v)", rep)
	}
}

// TestEngineF32ConcurrentDeterministic exercises the f32 batched
// engine under concurrency: every response must equal the f32
// reference decode of its seed regardless of batching. Run under
// -race via scripts/check.sh.
func TestEngineF32ConcurrentDeterministic(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4, Precision: PrecisionF32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 12
	refs := make([][]byte, n)
	for i := 0; i < n; i++ {
		out := m.GenerateBatchF32([]*rng.RNG{rng.New(int64(i + 1))}, w)
		refs[i] = traceBytes(t, out[0])
	}
	errs := make(chan error, n)
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			tr, err := eng.Generate(context.Background(), rng.New(int64(i+1)), w, 0)
			if err != nil {
				errs <- err
				return
			}
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				errs <- err
				return
			}
			results[i] = buf.Bytes()
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := range results {
		if !bytes.Equal(results[i], refs[i]) {
			t.Fatalf("stream %d: concurrent f32 decode differs from f32 reference", i)
		}
	}
}

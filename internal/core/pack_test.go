package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestPreparePackedCaching pins the publish-time cache contract: panels
// are built once and shared (every fleet steps on them; nn.NewFleetPacked
// panics without).
func TestPreparePackedCaching(t *testing.T) {
	m := tinyGenModel()
	p1 := m.PreparePacked()
	if p1 == nil || p1.Flavor == nil || p1.Lifetime == nil {
		t.Fatal("PreparePacked returned incomplete panels")
	}
	if m.PreparePacked() != p1 {
		t.Fatal("PreparePacked rebuilt panels instead of returning the cache")
	}
	p32 := m.PreparePackedF32()
	if p32 == nil || m.PreparePackedF32() != p32 {
		t.Fatal("PreparePackedF32 cache broken")
	}
}

// TestPackedDecodeByteIdentity is the cross-path pin inside the
// process: the engine and the batch entry points, at both precisions,
// decode on panels; at f64 every cell equals the one-stream
// Model.Generate of the same streams (generate/f64), at f32 the engine
// and the sharded batch equal the single-fleet batch — and every cell is
// byte-identical on the assembly and on the portable kernels. Every cell
// steps packed panels, Generate included; packed against unpacked is
// pinned at the logits (TestServedFleetLogitsTierParity holds the packed
// fleets to the scalar StepForward bit for bit).
func TestPackedDecodeByteIdentity(t *testing.T) {
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	const n = 5
	streams := func() []*rng.RNG { return splitStreams(7, n) }

	// A fresh model per tier keeps cache contents honest (a stale shared
	// cache could mask a broken rebuild).
	decodeAll := func(t *testing.T) map[string][][]byte {
		m := tinyGenModel()
		got := make(map[string][][]byte)
		for _, g := range streams() {
			got["generate/f64"] = append(got["generate/f64"], traceBytes(t, m.Generate(g, w)))
		}
		for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
			eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4, Shards: 2, Precision: prec})
			if err != nil {
				t.Fatalf("%s: %v", prec, err)
			}
			for _, g := range streams() {
				tr, err := eng.Generate(context.Background(), g, w, 0)
				if err != nil {
					t.Fatalf("%s: %v", prec, err)
				}
				got["engine/"+string(prec)] = append(got["engine/"+string(prec)], traceBytes(t, tr))
			}
			eng.Close()
		}
		for _, tr := range m.GenerateBatch(streams(), w) {
			got["batch/f64"] = append(got["batch/f64"], traceBytes(t, tr))
		}
		for _, tr := range m.GenerateBatchSharded(streams(), w, 3) {
			got["shardbatch/f64"] = append(got["shardbatch/f64"], traceBytes(t, tr))
		}
		for _, tr := range m.GenerateBatchF32(streams(), w) {
			got["batch/f32"] = append(got["batch/f32"], traceBytes(t, tr))
		}
		for _, tr := range m.GenerateBatchShardedF32(streams(), w, 3) {
			got["shardbatch/f32"] = append(got["shardbatch/f32"], traceBytes(t, tr))
		}
		return got
	}
	sameStreams := func(t *testing.T, what string, got, want [][]byte) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d streams, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: stream %d differs", what, i)
			}
		}
	}

	var first map[string][][]byte // the cells of the first tier that ran
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		got := decodeAll(t)
		for _, key := range []string{"engine/f64", "batch/f64", "shardbatch/f64"} {
			sameStreams(t, key+" vs generate/f64", got[key], got["generate/f64"])
		}
		for _, key := range []string{"engine/f32", "shardbatch/f32"} {
			sameStreams(t, key+" vs batch/f32", got[key], got["batch/f32"])
		}
		if first == nil {
			first = got
			return
		}
		for key, want := range first {
			sameStreams(t, key+" across kernel tiers", got[key], want)
		}
	})
}

// TestServedFleetLogitsTierParity is the bit-level twin of the
// byte-identity suites: sampling hides a last-bit difference in a logit
// (a trace moves only when a draw lands within an ulp of a bin edge), so
// trace bytes cannot tell a kernel that rounds once where the reference
// rounds twice. This steps the fleets newFleets serves — untrained tiny
// model and trained fixture, both precisions — over encoder-shaped rows
// and compares raw logits: the f64 fleets bit for bit with the scalar
// StepForward, and every fleet across the kernel tiers.
func TestServedFleetLogitsTierParity(t *testing.T) {
	models := map[string]*Model{"tiny": tinyGenModel(), "trained": getFixture(t).model}
	first := make(map[string][]float64) // model/precision -> logits of the first tier that ran
	mattest.BothTiers(t, func(t *testing.T) {
		for name, m := range models {
			for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
				ff, lf := m.newFleets(1, prec)
				ff.Admit()
				lf.Admit()
				fst, lst := m.Flavor.Net.NewState(1), m.Lifetime.Net.NewState(1)
				var logits []float64
				step := func(f nn.StepFleet, net *nn.LSTM, st *nn.State) {
					want := net.StepForward(f.InputRow(0), st)
					got := f.Step([]int{0}).Row(0)
					logits = append(logits, got...)
					for j := range want {
						if prec == PrecisionF64 && math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s: f64 fleet logit %d = %x, StepForward %x", name, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
						}
					}
				}
				k, bins := m.Flavor.K, m.Lifetime.Bins.J()
				for i := 0; i < 48; i++ {
					m.Flavor.encodeFlavorInput(ff.InputRow(0), i%(k+1), i, i%3)
					step(ff, m.Flavor.Net, fst)
					ls := LifetimeStep{Period: i, Flavor: i % k, BatchSize: 1 + i%5}
					m.Lifetime.encodeLifetimeInput(lf.InputRow(0), ls, i%3, i%bins, i%7 == 0)
					step(lf, m.Lifetime.Net, lst)
				}
				key := name + "/" + string(prec)
				if first[key] == nil {
					first[key] = logits
				}
				for i, want := range first[key] {
					if math.Float64bits(logits[i]) != math.Float64bits(want) {
						t.Fatalf("%s: logit %d differs across kernel tiers", key, i)
					}
				}
			}
		}
	})
}

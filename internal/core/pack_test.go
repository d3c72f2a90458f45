package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// withPackDisabled runs f with the REPRO_NOPACK kill-switch forced to
// the given state, restoring it afterwards.
func withPackDisabled(t *testing.T, disabled bool, f func(t *testing.T)) {
	saved := packDisabled
	packDisabled = disabled
	defer func() { packDisabled = saved }()
	name := "pack"
	if disabled {
		name = "nopack"
	}
	t.Run(name, f)
}

// TestPreparePackedCachingAndKillSwitch pins the publish-time cache
// contract: panels are built once and shared, and REPRO_NOPACK yields
// nil panels (so fleets fall back to unpacked weights) without
// touching an existing cache.
func TestPreparePackedCachingAndKillSwitch(t *testing.T) {
	m := tinyGenModel()
	saved := packDisabled
	defer func() { packDisabled = saved }()

	packDisabled = false
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

	packDisabled = true
	if m.PreparePacked() != nil || m.PreparePackedF32() != nil {
		t.Fatal("REPRO_NOPACK must yield nil panels")
	}
	packDisabled = false
	if m.PreparePacked() != p1 {
		t.Fatal("re-enabling packing must restore the cached panels")
	}

	// Structural pin: the default fleet engines really step on panels
	// (both precisions), and the kill-switch really drops them.
	fe := newFleetEngine(m, 1, PrecisionF64)
	if !fe.ff.(*nn.Fleet[float64]).Packed() || !fe.lf.(*nn.Fleet[float64]).Packed() {
		t.Fatal("f64 fleet engine is not stepping on packed panels")
	}
	fe32 := newFleetEngine(m, 1, PrecisionF32)
	if !fe32.ff.(*nn.Fleet32).Packed() || !fe32.lf.(*nn.Fleet32).Packed() {
		t.Fatal("f32 fleet engine is not stepping on packed panels")
	}
	packDisabled = true
	fe, fe32 = newFleetEngine(m, 1, PrecisionF64), newFleetEngine(m, 1, PrecisionF32)
	if fe.ff.(*nn.Fleet[float64]).Packed() || fe.lf.(*nn.Fleet[float64]).Packed() ||
		fe32.ff.(*nn.Fleet32).Packed() || fe32.lf.(*nn.Fleet32).Packed() {
		t.Fatal("REPRO_NOPACK fleet engine still stepping on panels")
	}
}

// TestPackedDecodeByteIdentity is the packing acceptance pin inside the
// process: the engine and the batch entry points, at both precisions,
// produce byte-identical traces with packing on and off (the
// REPRO_NOASM legs of the same matrix run via the scripts/check.sh
// environment tiers), and at f64 both equal the scalar unpacked
// Model.Generate.
func TestPackedDecodeByteIdentity(t *testing.T) {
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	const n = 5
	seeds := make([]int64, n)
	src := rng.New(41)
	for i := range seeds {
		seeds[i] = src.Int63()
	}

	// Decode the full matrix plus the batch entry points under one
	// kill-switch state. A fresh model per state keeps cache contents
	// honest (a stale shared cache could mask a broken rebuild).
	decodeAll := func(t *testing.T) map[string][][]byte {
		m := tinyGenModel()
		got := make(map[string][][]byte)
		for _, seed := range seeds {
			got["serial/f64"] = append(got["serial/f64"], traceBytes(t, m.Generate(rng.New(seed), w)))
		}
		for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
			eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4, Shards: 2, Precision: prec})
			if err != nil {
				t.Fatalf("%s: %v", prec, err)
			}
			for _, seed := range seeds {
				tr, err := eng.Generate(context.Background(), rng.New(seed), w, 0)
				if err != nil {
					t.Fatalf("%s: %v", prec, err)
				}
				got["engine/"+string(prec)] = append(got["engine/"+string(prec)], traceBytes(t, tr))
			}
			eng.Close()
		}
		for _, tr := range m.GenerateBatch(splitStreams(7, n), w) {
			got["batch/f64"] = append(got["batch/f64"], traceBytes(t, tr))
		}
		for _, tr := range m.GenerateBatchSharded(splitStreams(7, n), w, 3) {
			got["shardbatch/f64"] = append(got["shardbatch/f64"], traceBytes(t, tr))
		}
		for _, tr := range m.GenerateBatchF32(splitStreams(7, n), w) {
			got["batch/f32"] = append(got["batch/f32"], traceBytes(t, tr))
		}
		for _, tr := range m.GenerateBatchShardedF32(splitStreams(7, n), w, 3) {
			got["shardbatch/f32"] = append(got["shardbatch/f32"], traceBytes(t, tr))
		}
		return got
	}

	var packed, unpacked map[string][][]byte
	withPackDisabled(t, false, func(t *testing.T) { packed = decodeAll(t) })
	withPackDisabled(t, true, func(t *testing.T) { unpacked = decodeAll(t) })

	if len(packed) != len(unpacked) {
		t.Fatalf("cell count mismatch: %d vs %d", len(packed), len(unpacked))
	}
	for i, want := range unpacked["serial/f64"] {
		if !bytes.Equal(packed["engine/f64"][i], want) {
			t.Fatalf("stream %d: packed f64 engine differs from Model.Generate", i)
		}
	}
	for key, want := range unpacked {
		got := packed[key]
		if len(got) != len(want) {
			t.Fatalf("%s: stream count mismatch", key)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s stream %d: packed decode differs from unpacked", key, i)
			}
		}
	}
}

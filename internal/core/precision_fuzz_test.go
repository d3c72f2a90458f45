package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// fuzzF32 builds the tiny model once, round-trips it through the
// serving-snapshot serialization, and prepares both models' f32
// conversions; the fuzz body only decodes.
var fuzzF32 = sync.OnceValues(func() (*Model, *Model) {
	m := tinyGenModel()
	blob, err := m.MarshalBinary()
	if err != nil {
		panic(err)
	}
	restored := &Model{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		panic(err)
	}
	m.PrepareF32()
	restored.PrepareF32()
	return m, restored
})

// FuzzSnapshotDecodeF32 fuzzes the f32 decode of a model restored from
// its serving snapshot: for arbitrary (seed, window length, scale) the
// restored model's f32 decode must be byte-identical to the original
// model's (snapshot round-trip loses nothing the f32 conversion sees),
// deterministic across repeated decodes, and structurally valid.
func FuzzSnapshotDecodeF32(f *testing.F) {
	f.Add(int64(1), uint8(16), float64(1))
	f.Add(int64(-7), uint8(1), float64(0))
	f.Add(int64(1<<62), uint8(255), float64(2.5))
	f.Add(int64(0x5EED), uint8(64), float64(0.1))
	f.Fuzz(func(t *testing.T, seed int64, periods uint8, scale float64) {
		if scale < 0 || scale != scale || scale > 4 {
			t.Skip("scale outside serving bounds")
		}
		m, restored := fuzzF32()
		w := trace.Window{Start: 0, End: 1 + int(periods)%(2*trace.PeriodsPerDay)}
		decode := func(mm *Model) []byte {
			mm = &Model{Arrival: mm.Arrival, Flavor: mm.Flavor, Lifetime: mm.Lifetime,
				Interp: mm.Interp, RateScale: scale, f32: mm.f32}
			out := mm.GenerateBatchShardedF32([]*rng.RNG{rng.New(seed)}, w, 0)
			var buf bytes.Buffer
			if err := out[0].WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		got := decode(m)
		if again := decode(m); !bytes.Equal(got, again) {
			t.Fatal("f32 decode is not deterministic for one seed")
		}
		if fromSnapshot := decode(restored); !bytes.Equal(got, fromSnapshot) {
			t.Fatal("f32 decode of the restored snapshot differs from the original model")
		}
		// Structural validity of the decoded trace.
		out := m.GenerateBatchShardedF32([]*rng.RNG{rng.New(seed)}, w, 0)
		for _, vm := range out[0].VMs {
			if vm.Start < 0 || vm.Start >= w.Periods() {
				t.Fatalf("VM start %d outside window of %d periods", vm.Start, w.Periods())
			}
			if !(vm.Duration >= 0) {
				t.Fatalf("VM duration %v negative or NaN", vm.Duration)
			}
		}
	})
}

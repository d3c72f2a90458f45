package nn

import (
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
)

// TestFleetPackedMatchesUnpacked pins byte-identity between a packed
// fleet (panel GEMMs + fused epilogues) and the unpacked fleet across
// stepped batches, at hidden sizes that exercise the wide tiles, the
// narrow cleanup tiles, and the head's scalar column tail.
func TestFleetPackedMatchesUnpacked(t *testing.T) {
	cfgs := []Config{
		{InputDim: 9, HiddenDim: 8, Layers: 2, OutputDim: 5},
		{InputDim: 7, HiddenDim: 5, Layers: 2, OutputDim: 3},
		{InputDim: 11, HiddenDim: 12, Layers: 1, OutputDim: 17},
	}
	for _, cfg := range cfgs {
		net := NewLSTM(cfg, rng.New(7))
		ref := net.NewFleet(4)
		pf := net.NewFleetPacked(4, net.Pack())
		const streams = 6
		rows := make([]int, streams)
		prows := make([]int, streams)
		for s := 0; s < streams; s++ {
			rows[s] = ref.Admit()
			prows[s] = pf.Admit()
		}
		for step := 0; step < 12; step++ {
			// Interleaved subsets so gather/scatter and batch composition
			// invariance are exercised too.
			var batch, pbatch []int
			for s := 0; s < streams; s++ {
				if (s+step)%3 == 0 {
					continue
				}
				i := len(batch)
				fleetInput(ref.InputRow(i), s, step)
				fleetInput(pf.InputRow(i), s, step)
				batch = append(batch, rows[s])
				pbatch = append(pbatch, prows[s])
			}
			want := ref.Step(batch)
			got := pf.Step(pbatch)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("cfg %+v step %d: logit %d differs packed vs unpacked", cfg, step, i)
				}
			}
		}
	}
}

// TestFleet32PackedMatchesUnpacked is the f32 pin.
func TestFleet32PackedMatchesUnpacked(t *testing.T) {
	cfgs := []Config{
		{InputDim: 9, HiddenDim: 8, Layers: 2, OutputDim: 5},
		{InputDim: 7, HiddenDim: 5, Layers: 2, OutputDim: 3},
	}
	for _, cfg := range cfgs {
		net := NewLSTM(cfg, rng.New(11)).Convert32()
		ref := net.NewFleet32(4)
		pf := net.NewFleet32Packed(4, net.Pack())
		const streams = 5
		rows := make([]int, streams)
		prows := make([]int, streams)
		for s := 0; s < streams; s++ {
			rows[s] = ref.Admit()
			prows[s] = pf.Admit()
		}
		for step := 0; step < 10; step++ {
			for s := 0; s < streams; s++ {
				fleetInput(ref.InputRow(s), s, step)
				fleetInput(pf.InputRow(s), s, step)
			}
			want := ref.Step(rows)
			got := pf.Step(prows)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("cfg %+v step %d: logit %d differs packed vs unpacked", cfg, step, i)
				}
			}
		}
	}
}

// TestFleetPackedStepAllocFree pins the packed decode step at zero
// steady-state allocations: panels and epilogue closures are built at
// publish/construction, never per step.
func TestFleetPackedStepAllocFree(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	net := fleetTestNet()
	const streams = 8
	f := net.NewFleetPacked(streams, net.Pack())
	batch := make([]int, streams)
	for s := 0; s < streams; s++ {
		batch[s] = f.Admit()
	}
	for i := range batch {
		fleetInput(f.InputRow(i), i, 0)
	}
	f.Step(batch)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range batch {
			in := f.InputRow(i)
			clear(in)
			if i%2 == 1 {
				in[i%len(in)] = 1
			} else {
				for j := range in {
					in[j] = float64(i*7+j) * 0.125
				}
			}
		}
		f.Step(batch)
	}); allocs != 0 {
		t.Fatalf("packed fleet step allocates %v times, want 0", allocs)
	}
}

// TestNewFleetPackedNilPanels pins the REPRO_NOPACK fall-through: a
// nil panel set yields a plain unpacked fleet.
func TestNewFleetPackedNilPanels(t *testing.T) {
	net := fleetTestNet()
	f := net.NewFleetPacked(2, nil)
	if f.panels != nil || f.epis != nil || f.headEpi != nil {
		t.Fatal("nil panels must yield an unpacked fleet")
	}
	f32 := net.Convert32()
	g := f32.NewFleet32Packed(2, nil)
	if g.panels != nil || g.epis != nil || g.headEpi != nil {
		t.Fatal("nil panels must yield an unpacked f32 fleet")
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/nn"
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

package rng

import (
	"testing"
)

// drainMixed consumes a representative mix of samplers (uniform,
// normal/ziggurat, Poisson, geometric, permutation) so the draw counter
// is exercised across every source-consumption pattern rand.Rand has.
func drainMixed(g *RNG, rounds int) []float64 {
	var out []float64
	for i := 0; i < rounds; i++ {
		out = append(out, g.Float64())
		out = append(out, g.NormFloat64())
		out = append(out, float64(g.Poisson(3.5)))
		out = append(out, float64(g.Poisson(120)))
		out = append(out, float64(g.Geometric(0.25)))
		out = append(out, float64(g.Intn(1000)))
		for _, p := range g.Perm(5) {
			out = append(out, float64(p))
		}
		out = append(out, g.LogNormal(1, 0.5))
		out = append(out, g.r.ExpFloat64()/2)
	}
	return out
}

// TestStateRestoreMidStream is the stream-checkpoint property: snapshot
// an RNG mid-stream after an arbitrary sampler mix, restore it, and the
// restored stream must match the original draw for draw.
func TestStateRestoreMidStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 123456789} {
		g := New(seed)
		drainMixed(g, 3) // advance to an arbitrary mid-stream position
		st := g.State()
		want := drainMixed(g, 3)
		r, err := Restore(st)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		got := drainMixed(r, 3)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: restored stream diverges at draw %d: %v vs %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestStateFreshRNG(t *testing.T) {
	g := New(99)
	st := g.State()
	if st.Seed != 99 || st.Draws != 0 {
		t.Fatalf("fresh state = %+v, want {99 0}", st)
	}
	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := g.Float64(), r.Float64(); a != b {
		t.Fatalf("fresh restore diverges: %v vs %v", a, b)
	}
}

func TestStateSurvivesSplit(t *testing.T) {
	g := New(5)
	_ = g.Split()
	st := g.State()
	r, err := Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	// Children split after the snapshot must match too.
	c1, c2 := g.Split(), r.Split()
	for i := 0; i < 20; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("post-restore split children diverge")
		}
	}
}

func TestRestoreRefusesAbsurdReplay(t *testing.T) {
	if _, err := Restore(State{Seed: 1, Draws: 1 << 60}); err == nil {
		t.Fatal("Restore accepted an absurd draw count")
	}
}

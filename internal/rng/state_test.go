package rng

import (
	"testing"
)

func TestStateFreshRNG(t *testing.T) {
	st := New(99).State()
	if st.Seed != 99 || st.Draws != 0 {
		t.Fatalf("fresh state = %+v, want {99 0}", st)
	}
}

// TestStateSurvivesSplit: a Split is one source draw of the parent, and
// the parent's State keeps its root seed.
func TestStateSurvivesSplit(t *testing.T) {
	g := New(5)
	_ = g.Split()
	if st := g.State(); st.Seed != 5 || st.Draws != 1 {
		t.Fatalf("state after one split = %+v, want {5 1}", st)
	}
}

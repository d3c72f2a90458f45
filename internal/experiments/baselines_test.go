package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

func tinyTrace() *trace.Trace {
	fs := &trace.FlavorSet{Defs: []trace.FlavorDef{
		{Name: "a", CPU: 1, MemGB: 2},
		{Name: "b", CPU: 2, MemGB: 4},
	}}
	return &trace.Trace{
		Flavors: fs,
		Periods: 4,
		VMs: []trace.VM{
			{ID: 0, User: 1, Flavor: 0, Start: 0, Duration: 100},
			{ID: 1, User: 1, Flavor: 0, Start: 0, Duration: 120},
			{ID: 2, User: 2, Flavor: 1, Start: 0, Duration: 90000},
			{ID: 3, User: 3, Flavor: 1, Start: 2, Duration: 50, Censored: true},
		},
	}
}

func TestUniformFlavor(t *testing.T) {
	u := &uniformFlavor{k: 16}
	p := u.Probs(0)
	if len(p) != 17 {
		t.Fatalf("len %d", len(p))
	}
	if math.Abs(p[0]-1.0/17.0) > 1e-12 {
		t.Fatalf("probs %v", p[0])
	}
	// Uniform NLL over 17 classes is ln 17 = 2.83 (Table 2, Azure).
	ev := core.EvaluateFlavor(u, []core.FlavorToken{{Token: 3}, {Token: 16}}, 0)
	if math.Abs(ev.NLL-math.Log(17)) > 1e-9 {
		t.Fatalf("uniform NLL = %v, want ln17", ev.NLL)
	}
}

func TestMultinomialFlavor(t *testing.T) {
	m := newMultinomialFlavor(tinyTrace())
	p := m.Probs(0)
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum %v", sum)
	}
	// Token counts: flavor0 x2, flavor1 x2, EOB x3 -> EOB is mode.
	if m.Predict(0) != 2 {
		t.Fatalf("mode = %d", m.Predict(0))
	}
}

func TestRepeatFlavor(t *testing.T) {
	r := newRepeatFlavor(tinyTrace())
	if r.Probs(0) != nil {
		t.Fatal("RepeatFlav must be non-probabilistic")
	}
	// At start (prev = EOB) it defaults to the most frequent flavor
	// (flavors 0 and 1 tie at two VMs each; ties keep the lower index).
	if r.Predict(0) != 0 {
		t.Fatalf("default after EOB = %d, want most frequent flavor", r.Predict(0))
	}
	r.Observe(1)
	if r.Predict(0) != 1 {
		t.Fatal("should repeat previous flavor")
	}
	r.Observe(core.EOBToken(2))
	if r.Predict(0) == core.EOBToken(2) {
		t.Fatal("after EOB must not predict EOB")
	}
	r.Reset()
	if r.Predict(0) != 0 {
		t.Fatal("reset should restore EOB state")
	}
}

func TestCoinFlipLifetime(t *testing.T) {
	c := &coinFlipLifetime{j: 4}
	h := c.Hazard(core.LifetimeStep{}, 0)
	for _, v := range h {
		if v != 0.5 {
			t.Fatalf("hazard %v", h)
		}
	}
	// BCE of coin flip is ln 2 = 0.693 (Table 3).
	steps := []core.LifetimeStep{{Bin: 2}}
	ev := core.EvaluateLifetime(c, steps, survival.UniformBins(4, 4), 0)
	if math.Abs(ev.BCE-math.Log(2)) > 1e-12 {
		t.Fatalf("coin flip BCE = %v, want ln2", ev.BCE)
	}
}

func TestKMLifetimePredictors(t *testing.T) {
	tr := tinyTrace()
	bins := survival.PaperBins()
	km := newKMLifetime(tr, bins)
	h := km.Hazard(core.LifetimeStep{}, 0)
	if len(h) != bins.J() {
		t.Fatalf("hazard len %d", len(h))
	}
	pf := newPerFlavorKMLifetime(tr, bins)
	h0 := pf.Hazard(core.LifetimeStep{Flavor: 0}, 0)
	h1 := pf.Hazard(core.LifetimeStep{Flavor: 1}, 0)
	// Flavor 0 VMs die in small bins, flavor 1 in very large bins: the
	// per-flavor hazards must differ.
	same := true
	for i := range h0 {
		if h0[i] != h1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("per-flavor hazards identical")
	}
	// Unknown flavor falls back to pooled.
	hu := pf.Hazard(core.LifetimeStep{Flavor: 99}, 0)
	pooled := km.Hazard(core.LifetimeStep{}, 0)
	for i := range hu {
		if hu[i] != pooled[i] {
			t.Fatal("unknown flavor should use pooled hazard")
		}
	}
}

func TestRepeatLifetime(t *testing.T) {
	tr := tinyTrace()
	bins := survival.PaperBins()
	r := newRepeatLifetime(tr, bins)
	if r.Hazard(core.LifetimeStep{}, 0) != nil {
		t.Fatal("RepeatLifetime must be non-probabilistic")
	}
	kmBest := newKMLifetime(tr, bins).best
	if got := r.PredictBin(core.LifetimeStep{FirstInBatch: true}); got != kmBest {
		t.Fatalf("first-in-batch predict = %d, want KM mode %d", got, kmBest)
	}
	r.Observe(core.LifetimeStep{Bin: 7})
	if got := r.PredictBin(core.LifetimeStep{}); got != 7 {
		t.Fatalf("repeat predict = %d", got)
	}
	// First job of a new batch defaults to KM even with history.
	if got := r.PredictBin(core.LifetimeStep{FirstInBatch: true}); got != kmBest {
		t.Fatalf("new-batch predict = %d", got)
	}
}

func TestNaiveGenerator(t *testing.T) {
	c := azure()
	naive, err := NewNaiveGenerator(c.Train, c.Bins)
	if err != nil {
		t.Fatal(err)
	}
	gen := naive.Generate(rng.New(5), c.TestW)
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(gen.VMs) == 0 {
		t.Fatal("no VMs")
	}
	// Naive VMs are singleton batches: every VM its own user.
	for _, batches := range gen.PeriodBatches() {
		for _, b := range batches {
			if len(b.Indices) != 1 {
				t.Fatal("naive batches must be singletons")
			}
		}
	}
	if naive.Name() != "Naive" {
		t.Fatal("name")
	}
}

func TestSimpleBatchGenerator(t *testing.T) {
	c := azure()
	sb, err := newSimpleBatchGenerator(c.Train, c.Bins)
	if err != nil {
		t.Fatal(err)
	}
	gen := sb.Generate(rng.New(5), c.TestW)
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(gen.VMs) == 0 {
		t.Fatal("no VMs")
	}
	// Every batch shares one flavor and one lifetime.
	for _, batches := range gen.PeriodBatches() {
		for _, b := range batches {
			for _, idx := range b.Indices[1:] {
				if gen.VMs[idx].Flavor != gen.VMs[b.Indices[0]].Flavor {
					t.Fatal("SimpleBatch batch flavors must match")
				}
				if gen.VMs[idx].Duration != gen.VMs[b.Indices[0]].Duration {
					t.Fatal("SimpleBatch batch lifetimes must match")
				}
			}
		}
	}
}

func TestTeacherForcedHazards(t *testing.T) {
	c := azure()
	steps := core.LifetimeSteps(c.Test, c.Bins)
	if len(steps) > 50 {
		steps = steps[:50]
	}
	hz := teacherForcedHazards(c.Model().Lifetime, steps, c.TestW.Start)
	if len(hz) != len(steps) {
		t.Fatalf("got %d hazards", len(hz))
	}
	for i, h := range hz {
		if len(h) != c.Bins.J() {
			t.Fatalf("hazard %d len %d", i, len(h))
		}
		for _, v := range h {
			if v < 0 || v > 1 {
				t.Fatalf("hazard out of range: %v", v)
			}
		}
	}
}

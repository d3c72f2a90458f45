package core

import (
	"bytes"
	"cmp"
	"math"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// refTilt is the what-if as decode used to apply it at run time, before
// Tilted folded it into the weights: multiply the probabilities of K
// flavors + EOB by the factors (a zero EOB factor meaning 1) and
// renormalize. It is the reference the fold is held to.
func refTilt(w WhatIf, probs []float64, k int) {
	for f, factor := range w.FlavorFactors {
		probs[f] *= factor
	}
	if w.EOBFactor > 0 {
		probs[k] *= w.EOBFactor
	}
	var total float64
	for _, p := range probs {
		total += p
	}
	for i := range probs {
		probs[i] /= total
	}
}

// refDecode decodes one stream of the untilted m with the what-if
// applied at run time: the stream machine stepped through one-row fleets
// at prec, each flavor step's softmax tilted by refTilt before its draw,
// and the rate scale passed to the stream.
func refDecode(m *Model, what WhatIf, g *rng.RNG, w trace.Window, prec Precision) *trace.Trace {
	ff, lf := m.newFleets(1, prec)
	s := m.newGenStream(g, w, cmp.Or(what.RateScale, 1), nil)
	s.frow, s.lrow = ff.Admit(), lf.Admit()
	frows, lrows := []int{s.frow}, []int{s.lrow}
	probs := make([]float64, m.Flavor.K+1)
	hz := make([]float64, m.Lifetime.Bins.J())
	for s.phase != phaseDone {
		if s.phase == phaseFlavor {
			s.encodeFlavor(ff.InputRow(0))
			nn.SoftmaxIntoVec(ff.Step(frows).Row(0), probs)
			refTilt(what, probs, m.Flavor.K)
			s.takeFlavor(s.g.Categorical(probs))
			continue
		}
		s.encodeLifetime(lf.InputRow(0))
		s.consumeLifetime(lf.Step(lrows).Row(0), hz)
	}
	return s.out
}

// TestTiltedMatchesRefTilt: every golden row with a what-if decodes to
// the same bytes through Tilted's folded weights and through the
// untilted model with the run-time tilt and the per-stream rate scale —
// at f64 the row's recorded digest, and at f32 too — on both kernel
// tiers.
func TestTiltedMatchesRefTilt(t *testing.T) {
	f := getFixture(t)
	rows := append(tinyGoldens(), trainedGoldens(f)...)
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		for _, r := range rows {
			if r.m == r.base {
				continue
			}
			capped := *r.base
			capped.MaxJobsPerPeriod = r.m.MaxJobsPerPeriod
			for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
				var ref [][]byte
				for _, g := range splitStreams(r.seed, r.n) {
					ref = append(ref, traceBytes(t, refDecode(&capped, r.what, g, r.w, prec)))
				}
				folded := r.generate(t)
				if prec == PrecisionF32 {
					folded = traceAll(t, r.m.GenerateBatchShardedF32(splitStreams(r.seed, r.n), r.w, 0))
				}
				if d, want := digest(folded), digest(ref); d != want {
					t.Errorf("%s at %s: folded what-if traces sha256 %s, run-time tilt %s", r.name, prec, d, want)
				}
				if d := digest(ref); prec == PrecisionF64 && d != r.want {
					t.Errorf("%s: run-time tilt traces sha256 %s, want %s", r.name, d, r.want)
				}
			}
		}
	})
}

// TestWhatIfApplyNormalizes: the folded flavor head's softmax is the
// renormalized tilt of the untilted head's, step by step, and a zero
// factor's flavor has probability 0 in both.
func TestWhatIfApplyNormalizes(t *testing.T) {
	base := tinyGenModel()
	w := WhatIf{EOBFactor: 2, FlavorFactors: []float64{1, 0.5, 0}}
	tilted := mustTilted(base, w)
	k := base.Flavor.K
	bf, _ := base.newFleets(1, PrecisionF64)
	tf, _ := tilted.newFleets(1, PrecisionF64)
	rows := []int{bf.Admit()}
	tf.Admit()
	want, got := make([]float64, k+1), make([]float64, k+1)
	g := rng.New(3)
	tok := EOBToken(k)
	for p := 0; p < 50; p++ {
		base.Flavor.encodeFlavorInput(bf.InputRow(0), tok, p, 0)
		tilted.Flavor.encodeFlavorInput(tf.InputRow(0), tok, p, 0)
		nn.SoftmaxIntoVec(bf.Step(rows).Row(0), want)
		refTilt(w, want, k)
		nn.SoftmaxIntoVec(tf.Step(rows).Row(0), got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("step %d: folded probs %v, renormalized tilt %v", p, got, want)
			}
		}
		if got[2] != 0 || want[2] != 0 {
			t.Fatalf("step %d: zero-factor flavor has probability %v (folded), %v (tilt)", p, got[2], want[2])
		}
		tok = g.Categorical(got)
	}
}

// TestWhatIfIsZero: a what-if whose factors are zero ("means 1") or 1
// folds to the identity — the copy has the original's tag and decodes
// its bytes — and any other factor changes the tag.
func TestWhatIfIsZero(t *testing.T) {
	m := tinyGenModel()
	tag := ModelTag(m)
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	want := traceBytes(t, m.Generate(rng.New(4), w))
	for _, what := range []WhatIf{{}, {EOBFactor: 1, RateScale: 1, FlavorFactors: []float64{1, 1, 1}}} {
		c := mustTilted(m, what)
		if ModelTag(c) != tag {
			t.Errorf("%+v: tag %s, want the original's %s", what, ModelTag(c), tag)
		}
		if !bytes.Equal(traceBytes(t, c.Generate(rng.New(4), w)), want) {
			t.Errorf("%+v: trace differs from the original's", what)
		}
	}
	for _, what := range []WhatIf{{EOBFactor: 2}, {RateScale: 2}, {FlavorFactors: []float64{1, 0.5, 1}}} {
		if ModelTag(mustTilted(m, what)) == tag {
			t.Errorf("%+v: tag unchanged by a what-if", what)
		}
	}
}

// assertTiltedRejects checks that Tilted returns an error and no model
// for each what-if, and leaves the original's tag as it was.
func assertTiltedRejects(t *testing.T, m *Model, whats ...WhatIf) {
	t.Helper()
	tag := ModelTag(m)
	for _, what := range whats {
		if c, err := Tilted(m, what); err == nil || c != nil {
			t.Errorf("%+v: Tilted = %v, %v; want an error", what, c, err)
		}
	}
	if ModelTag(m) != tag {
		t.Fatal("a rejected what-if changed the original")
	}
}

// TestTiltedRejectsInvalid: a negative or non-finite factor or scale is
// an error, and the original is untouched.
func TestTiltedRejectsInvalid(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	assertTiltedRejects(t, tinyGenModel(),
		WhatIf{EOBFactor: -1}, WhatIf{EOBFactor: nan}, WhatIf{EOBFactor: inf}, WhatIf{EOBFactor: -inf},
		WhatIf{RateScale: -1}, WhatIf{RateScale: nan}, WhatIf{RateScale: inf},
		WhatIf{FlavorFactors: []float64{1, -1, 1}}, WhatIf{FlavorFactors: []float64{1, nan, 1}}, WhatIf{FlavorFactors: []float64{inf, 1, 1}},
	)
}

// TestWhatIfApplyPanics: flavor factors whose length is not K. The
// run-time tilt panicked on a probability vector of the wrong length;
// Tilted checks the factors against the model's K before folding and
// returns an error, leaving the original untouched.
func TestWhatIfApplyPanics(t *testing.T) {
	assertTiltedRejects(t, tinyGenModel(),
		WhatIf{FlavorFactors: []float64{}}, WhatIf{FlavorFactors: []float64{1, 1}},
		WhatIf{FlavorFactors: []float64{1, 1, 1, 1}},
	)
}

// TestWhatIfDegenerateFallsBackToEOB: a tilt that forbids every flavor.
// The run-time tilt fell back to EOB at each step, so such a model
// emitted no job; Tilted rejects the tilt up front instead, so no decode
// can reach it. Forbidding all flavors but one is not degenerate: it is
// accepted, and the folded head gives the others probability 0.
func TestWhatIfDegenerateFallsBackToEOB(t *testing.T) {
	m := tinyGenModel()
	assertTiltedRejects(t, m, WhatIf{FlavorFactors: []float64{0, 0, 0}}, WhatIf{FlavorFactors: []float64{0, 0, 0}, EOBFactor: 2})
	c := mustTilted(m, WhatIf{FlavorFactors: []float64{0, 0, 1}})
	ff, _ := c.newFleets(1, PrecisionF64)
	rows := []int{ff.Admit()}
	probs := make([]float64, c.Flavor.K+1)
	c.Flavor.encodeFlavorInput(ff.InputRow(0), EOBToken(c.Flavor.K), 0, 0)
	nn.SoftmaxIntoVec(ff.Step(rows).Row(0), probs)
	if probs[0] != 0 || probs[1] != 0 || !(probs[2] > 0) {
		t.Fatalf("folded probs %v, want flavors 0 and 1 forbidden and flavor 2 allowed", probs)
	}
}

// TestTiltedSharesNoState: the copy shares no mutable state with its
// original. Serving caches the original built before the tilt do not
// reach the copy, which decodes its own folded weights at both
// precisions, and writes to the copy's weights leave the original's tag
// and bytes alone.
func TestTiltedSharesNoState(t *testing.T) {
	r := goldenRow(t, tinyGoldens(), "tiny/tilt+cap5")
	m := r.base
	m.PrepareF32()
	m.PreparePacked()
	m.PreparePackedF32()
	tag := ModelTag(m)
	before := traceBytes(t, m.Generate(rng.New(1), r.w))

	c := mustTilted(m, r.what)
	c.MaxJobsPerPeriod = r.m.MaxJobsPerPeriod
	if c.f32 != nil || c.packed != nil || c.packed32 != nil {
		t.Fatal("the copy inherited a serving cache")
	}
	r.m = c
	if d := digest(r.generate(t)); d != r.want {
		t.Errorf("copy's f64 traces sha256 %s, want %s", d, r.want)
	}
	capped := *m
	capped.MaxJobsPerPeriod = c.MaxJobsPerPeriod
	g32 := splitStreams(r.seed, r.n)
	for i, g := range splitStreams(r.seed, r.n) {
		got := traceBytes(t, c.GenerateBatchShardedF32([]*rng.RNG{g32[i]}, r.w, 0)[0])
		if !bytes.Equal(got, traceBytes(t, refDecode(&capped, r.what, g, r.w, PrecisionF32))) {
			t.Fatalf("stream %d: copy's f32 trace is not the tilted one", i)
		}
	}

	c.Flavor.Net.HeadBias()[0]++
	c.Lifetime.Net.HeadBias()[0]++
	c.Arrival.Reg.W[0]++
	c.Arrival.Reg.Intercept++
	if ModelTag(m) != tag {
		t.Fatal("writing the copy's weights changed the original's tag")
	}
	if !bytes.Equal(traceBytes(t, m.Generate(rng.New(1), r.w)), before) {
		t.Fatal("writing the copy's weights changed the original's trace")
	}
}

// TestWhatIfEOBTiltChangesBatchSize verifies the footnote-5 mechanism
// end-to-end: halving the EOB probability roughly doubles generated
// batch sizes.
func TestWhatIfEOBTiltChangesBatchSize(t *testing.T) {
	f := getFixture(t)
	meanBatch := func(m *Model) float64 {
		tr := m.Generate(rng.New(9), f.testW)
		var jobs, batches int
		for _, list := range tr.PeriodBatches() {
			for _, b := range list {
				batches++
				jobs += len(b.Indices)
			}
		}
		if batches == 0 {
			return 0
		}
		return float64(jobs) / float64(batches)
	}
	small := mustTilted(f.model, WhatIf{EOBFactor: 3}) // more EOBs -> smaller batches
	big := mustTilted(f.model, WhatIf{EOBFactor: 0.33})
	mb, ms, mbig := meanBatch(f.model), meanBatch(small), meanBatch(big)
	if !(ms < mb && mb < mbig) {
		t.Fatalf("EOB tilt ordering violated: small %v base %v big %v", ms, mb, mbig)
	}
}

// TestWhatIfFlavorTiltShiftsMix verifies flavor tilts shift the
// generated flavor distribution.
func TestWhatIfFlavorTiltShiftsMix(t *testing.T) {
	f := getFixture(t)
	k := f.train.Flavors.K()
	boost := make([]float64, k)
	for i := range boost {
		boost[i] = 1
	}
	boost[0] = 10
	tilted := mustTilted(f.model, WhatIf{FlavorFactors: boost})
	countFrac := func(m *Model) float64 {
		tr := m.Generate(rng.New(10), f.testW)
		if len(tr.VMs) == 0 {
			return 0
		}
		n := 0
		for _, vm := range tr.VMs {
			if vm.Flavor == 0 {
				n++
			}
		}
		return float64(n) / float64(len(tr.VMs))
	}
	baseFrac := countFrac(f.model)
	tiltFrac := countFrac(tilted)
	if tiltFrac <= baseFrac {
		t.Fatalf("flavor tilt did not boost flavor 0: %v vs %v", tiltFrac, baseFrac)
	}
}

// TestModelReleaseCarriesWhatIf is the §7 model release: the provider
// folds a confidential alteration (half the arrival volume, the most
// popular flavor damped) into the trained model with Tilted and marshals
// it; the consumer unmarshals the artifact and sets no knob. The consumer
// decodes the provider's bytes, the artifact's tag is not the original
// model's, and its traces carry the alteration.
func TestModelReleaseCarriesWhatIf(t *testing.T) {
	f := getFixture(t)
	counts := make([]int, f.train.Flavors.K())
	for _, vm := range f.train.VMs {
		counts[vm.Flavor]++
	}
	popular := 0
	factors := make([]float64, len(counts))
	for i, n := range counts {
		factors[i] = 1
		if n > counts[popular] {
			popular = i
		}
	}
	factors[popular] = 0.5

	// Provider side.
	released := mustTilted(f.model, WhatIf{RateScale: 0.5, FlavorFactors: factors})
	blob, err := released.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Consumer side.
	consumer := &Model{}
	if err := consumer.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	const seed, n = 77, 8
	decode := func(m *Model) [][]byte {
		out := make([][]byte, 0, n)
		for _, g := range splitStreams(seed, n) {
			out = append(out, traceBytes(t, m.Generate(g, f.testW)))
		}
		return out
	}
	got := decode(consumer)
	if d, want := digest(got), digest(decode(released)); d != want {
		t.Fatalf("consumer traces sha256 %s, provider's %s", d, want)
	}
	if ModelTag(consumer) != ModelTag(released) {
		t.Errorf("consumer tag %s, provider's %s", ModelTag(consumer), ModelTag(released))
	}
	if ModelTag(consumer) == ModelTag(f.model) {
		t.Errorf("the released artifact carries the original model's tag %s", ModelTag(f.model))
	}
	mix := func(traces [][]byte) (vms int, share float64) {
		hits := 0
		for _, b := range traces {
			tr, err := trace.ReadJSON(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range tr.VMs {
				vms++
				if vm.Flavor == popular {
					hits++
				}
			}
		}
		return vms, float64(hits) / float64(max(vms, 1))
	}
	origVMs, origShare := mix(decode(f.model))
	relVMs, relShare := mix(got)
	if !(float64(relVMs) < 0.8*float64(origVMs)) || !(relShare < origShare) {
		t.Errorf("released artifact decodes %d VMs with popular-flavor share %.3f; original %d VMs, share %.3f", relVMs, relShare, origVMs, origShare)
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	f := getFixture(t)
	blob, err := f.model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Model
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// The restored model must generate the identical trace for the same
	// seed.
	a := f.model.Generate(rng.New(21), f.testW)
	b := restored.Generate(rng.New(21), f.testW)
	if len(a.VMs) != len(b.VMs) {
		t.Fatalf("restored model generates %d VMs, original %d", len(b.VMs), len(a.VMs))
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			t.Fatalf("VM %d differs after round trip", i)
		}
	}
}

func TestModelUnmarshalCorrupt(t *testing.T) {
	var m Model
	if err := m.UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatal("expected error")
	}
}

func TestModelMarshalPartial(t *testing.T) {
	var m Model
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatal("expected error for partial model")
	}
}

package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// WhatIf holds the footnote-5 alterations of a trained model:
// multiplicative tilts of the flavor LSTM's output probabilities (larger
// or smaller batches, shifted flavor popularity) and a multiplier of the
// arrival rate, enabling what-if experiments and the §7 model release
// without retraining. Tilted folds them into a copy's weights. The paper
// cautions that such tilts may degrade generated-trace properties;
// TestWhatIf* and the ablation benches quantify the effect at this
// scale.
type WhatIf struct {
	// EOBFactor multiplies the end-of-batch token's probability.
	// Values < 1 lengthen batches, > 1 shorten them. Zero means 1.
	EOBFactor float64
	// FlavorFactors optionally multiplies each flavor's probability
	// (length K); nil means no tilt. A zero factor forbids its flavor.
	FlavorFactors []float64
	// RateScale multiplies the arrival rate (the single-knob 10×
	// stress-test of §6.2). Zero means 1.
	RateScale float64
}

// Tilted returns a deep copy of m (its snapshot, unmarshalled) whose
// weights carry the alteration w, so the copy is the whole artifact: it
// marshals, serves and tags with the alteration in it. The folds are
// exact algebra: tilting softmax probabilities by a and renormalizing is
// softmax(z + log a), so each factor is added to the flavor head's bias
// as its log (−∞ for a zero factor), and exp(W·x + b)·s is
// exp(W·x + (b + log s)), so the rate scale is added to the arrival
// intercept. The copy shares no mutable state with m, and its serving
// caches start empty. A negative or non-finite factor or scale, flavor
// factors of a length other than K, and factors that forbid every flavor
// are errors.
func Tilted(m *Model, w WhatIf) (*Model, error) {
	k := m.Flavor.K
	if w.FlavorFactors != nil && len(w.FlavorFactors) != k {
		return nil, fmt.Errorf("core: what-if has %d flavor factors, the model has %d flavors", len(w.FlavorFactors), k)
	}
	for _, a := range append([]float64{w.EOBFactor, w.RateScale}, w.FlavorFactors...) {
		if !(a >= 0) || math.IsInf(a, 1) {
			return nil, fmt.Errorf("core: what-if factor %v, want a finite number >= 0", a)
		}
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	c := &Model{MaxJobsPerPeriod: m.MaxJobsPerPeriod}
	if err := c.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	by := c.Flavor.Net.HeadBias()
	for f, a := range w.FlavorFactors {
		by[f] += math.Log(a)
	}
	by[k] += math.Log(cmp.Or(w.EOBFactor, 1))
	if !slices.ContainsFunc(by[:k], func(b float64) bool { return !math.IsInf(b, -1) }) {
		return nil, fmt.Errorf("core: what-if forbids every flavor")
	}
	c.Arrival.Reg.Intercept += math.Log(cmp.Or(w.RateScale, 1))
	return c, nil
}

// ModelSnapshot is the serializable form of a trained Model (the
// "pre-trained model release" discussed in §7's privacy paragraph: a
// provider can ship this instead of a proprietary trace).
type ModelSnapshot struct {
	FlavorNet    []byte
	LifetimeNet  []byte
	K            int
	HistoryDays  int
	BinEdges     []float64
	ArrivalW     []float64
	ArrivalB     float64
	ArrivalKind  int
	ArrivalDOH   int // DOHMode
	ArrivalGeomP float64
	ArrivalUsed  bool // UseDOH
	Interp       int  // survival.Interpolation
}

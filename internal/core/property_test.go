package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/features"
	"repro/internal/rng"
	"repro/internal/survival"
)

// TestFlavorInputEncodingQuick checks the flavor step encoding is a
// proper one-hot + temporal block for arbitrary valid inputs.
func TestFlavorInputEncodingQuick(t *testing.T) {
	const k = 16
	temporal := features.Temporal{HistoryDays: 7}
	dst := make([]float64, flavorInputDim(k, temporal))
	f := func(tokRaw uint8, periodRaw uint16, dayRaw uint8) bool {
		tok := int(tokRaw) % (k + 1)
		period := int(periodRaw)
		day := int(dayRaw) % 7
		EncodeFlavorInput(dst, k, temporal, tok, period, day)
		// Exactly one hot bit in the token block.
		ones := 0
		for _, v := range dst[:k+1] {
			if v == 1 {
				ones++
			} else if v != 0 {
				return false
			}
		}
		if ones != 1 || dst[tok] != 1 {
			return false
		}
		// Temporal block: one HOD bit, one DOW bit, DOH is a prefix of
		// ones.
		temp := dst[k+1:]
		hod, dow := 0, 0
		for _, v := range temp[:24] {
			if v == 1 {
				hod++
			}
		}
		for _, v := range temp[24:31] {
			if v == 1 {
				dow++
			}
		}
		if hod != 1 || dow != 1 {
			return false
		}
		sawZero := false
		for _, v := range temp[31:] {
			if v == 0 {
				sawZero = true
			} else if sawZero {
				return false // ones after a zero: not a survival prefix
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLifetimeTargetsQuick checks the §2.3.2 target/mask construction
// invariants for arbitrary steps.
func TestLifetimeTargetsQuick(t *testing.T) {
	const j = 47
	target := make([]float64, j)
	mask := make([]float64, j)
	f := func(binRaw uint8, censored bool) bool {
		bin := int(binRaw) % j
		lifetimeTargets(target, mask, LifetimeStep{Bin: bin, Censored: censored})
		// Mask is a prefix of ones.
		sawZero := false
		maskOnes := 0
		for _, v := range mask {
			switch v {
			case 1:
				if sawZero {
					return false
				}
				maskOnes++
			case 0:
				sawZero = true
			default:
				return false
			}
		}
		var targetSum float64
		for _, v := range target {
			targetSum += v
		}
		if censored {
			// Survival of bins < bin certified; no event.
			return maskOnes == bin && targetSum == 0
		}
		// Event at bin: mask covers 0..bin, single positive at bin.
		return maskOnes == bin+1 && targetSum == 1 && target[bin] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestWhatIfApplyQuick checks tilted distributions remain distributions.
func TestWhatIfApplyQuick(t *testing.T) {
	f := func(p1, p2, p3 uint8, eobRaw uint8, f1, f2 uint8) bool {
		probs := []float64{
			float64(p1) + 1, float64(p2) + 1, float64(p3) + 1,
		}
		var total float64
		for _, v := range probs {
			total += v
		}
		for i := range probs {
			probs[i] /= total
		}
		w := WhatIf{
			EOBFactor:     float64(eobRaw)/32 + 0.01,
			FlavorFactors: []float64{float64(f1) / 64, float64(f2) / 64},
		}
		w.apply(probs, 2)
		var sum float64
		for _, v := range probs {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSampleBinQuick checks SampleBin always returns a valid index for
// arbitrary hazards.
func TestSampleBinQuick(t *testing.T) {
	gen := rng.New(31)
	q := func(raw [8]uint8) bool {
		h := make([]float64, 8)
		for i, r := range raw {
			h[i] = float64(r) / 255
		}
		b := survival.SampleBin(h, gen)
		return b >= 0 && b < len(h)
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/features"
	"repro/internal/mat/mattest"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
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

// TestWhatIfApplyQuick checks that a what-if folded in by Tilted, zero
// factors included, leaves the flavor head a distribution: at f64 and
// f32, on both kernel tiers, every step's probabilities sum to 1, and a
// zero-factor flavor has probability 0 and is never sampled, neither in
// the steps nor in a decoded trace. Factors that forbid every flavor are
// an error.
func TestWhatIfApplyQuick(t *testing.T) {
	base := tinyGenModel()
	k := base.Flavor.K
	w8 := trace.Window{Start: 0, End: 8}
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		f := func(eobRaw uint8, raw [3]uint8, seed int64) bool {
			w := WhatIf{EOBFactor: float64(eobRaw) / 32, FlavorFactors: make([]float64, k)}
			allowed := false
			for i, r := range raw {
				w.FlavorFactors[i] = float64(r%8) / 4 // zero one time in eight
				allowed = allowed || r%8 != 0
			}
			m, err := Tilted(base, w)
			if !allowed || err != nil {
				return !allowed && err != nil
			}
			for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
				ff, _ := m.newFleets(1, prec)
				rows := []int{ff.Admit()}
				probs := make([]float64, k+1)
				g := rng.New(seed)
				tok := EOBToken(k)
				for p := 0; p < 20; p++ {
					m.Flavor.encodeFlavorInput(ff.InputRow(0), tok, p, 0)
					nn.SoftmaxIntoVec(ff.Step(rows).Row(0), probs)
					var sum float64
					for i, v := range probs {
						if v < 0 || math.IsNaN(v) || (i < k && w.FlavorFactors[i] == 0 && v != 0) {
							return false
						}
						sum += v
					}
					if math.Abs(sum-1) > 1e-9 {
						return false
					}
					tok = g.Categorical(probs)
				}
				tr := m.Generate(rng.New(seed), w8)
				if prec == PrecisionF32 {
					tr = m.GenerateBatchShardedF32([]*rng.RNG{rng.New(seed)}, w8, 0)[0]
				}
				for _, vm := range tr.VMs {
					if w.FlavorFactors[vm.Flavor] == 0 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
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

package core

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// TestPrecisionRegistryMatrix guards the f32 fast path structurally,
// since sampling can mask f32 logit drift (the tiny model's f32 bytes
// equal its f64 ones): an f32 fleet engine steps nn.Fleet32 fleets, not
// the f64 ones. An unknown precision is a NewGenEngine error. Then it
// runs its decode contract rows: the engine named f64 at every K.
func TestPrecisionRegistryMatrix(t *testing.T) {
	m := tinyGenModel()
	fe := newFleetEngine(m, 1, PrecisionF32)
	for _, f := range []nn.StepFleet{fe.ff, fe.lf} {
		if _, ok := f.(*nn.Fleet32); !ok {
			t.Fatalf("f32 fleet engine is stepping %T, want *nn.Fleet32", f)
		}
	}
	if _, err := NewGenEngine(m, EngineSpec{Precision: "f16"}); err == nil {
		t.Fatal("NewGenEngine accepted unknown precision f16")
	}
	runContract(t)
}

// TestF32DivergenceWithinTolerance is the property test for the
// published precision policy, on the trained integration fixture: the
// teacher-forced f32 divergence of flavor probabilities, hazards, and
// survival curves stays within the documented tolerances, and the
// measurement is not vacuous (a trained f32 net must differ from f64
// somewhere).
func TestF32DivergenceWithinTolerance(t *testing.T) {
	f := getFixture(t)
	rep, err := f.model.ValidateF32()
	if err != nil {
		t.Fatalf("trained model fails the published f32 tolerance: %v", err)
	}
	if rep.MaxProbDiff == 0 || rep.MaxHazardDiff == 0 {
		t.Fatalf("f32 divergence identically zero (prob %v, hazard %v): comparison is vacuous", rep.MaxProbDiff, rep.MaxHazardDiff)
	}
	t.Logf("f32 divergence over %d steps: prob %.3g (tol %g), hazard %.3g (tol %g), survival %.3g (tol %g)",
		rep.Steps, rep.MaxProbDiff, float64(F32ProbTol), rep.MaxHazardDiff, float64(F32HazardTol),
		rep.MaxSurvivalDiff, float64(F32SurvivalTol))
}

// TestValidateF32RejectsBrokenConversion plants a wrong f32 conversion
// (another net's weights) and checks ValidateF32 refuses it — the
// publish-time gate must actually be able to fail.
func TestValidateF32RejectsBrokenConversion(t *testing.T) {
	m := tinyGenModel()
	// A conversion of differently-initialized weights of the same
	// shapes: outputs land far outside any rounding tolerance.
	badF := nn.NewLSTM(m.Flavor.Net.Cfg, rng.New(1001))
	badL := nn.NewLSTM(m.Lifetime.Net.Cfg, rng.New(1002))
	m.f32 = &ModelF32{Flavor: badF.Convert32(), Lifetime: badL.Convert32()}
	if _, err := m.ValidateF32(); err == nil {
		t.Fatal("ValidateF32 accepted a conversion of the wrong weights")
	}
}

// TestValidateF32RejectsStalePanels plants f32 panels packed from other
// weights of the same shapes — what a publish that re-converted but did
// not re-pack would serve — beside a correct f32 conversion. Every f32
// engine steps on those panels, so the publish-time gate has to step on
// them too: a calibration over unpacked stand-in fleets accepts this
// model.
func TestValidateF32RejectsStalePanels(t *testing.T) {
	m := tinyGenModel()
	if _, err := m.ValidateF32(); err != nil {
		t.Fatalf("freshly packed model: %v", err)
	}
	m.packed32 = &ModelPacked[float32]{
		Flavor:   nn.NewLSTM(m.Flavor.Net.Cfg, rng.New(1001)).Convert32().Pack(),
		Lifetime: nn.NewLSTM(m.Lifetime.Net.Cfg, rng.New(1002)).Convert32().Pack(),
	}
	if rep, err := m.ValidateF32(); err == nil {
		t.Fatalf("ValidateF32 accepted stale f32 panels (report %+v)", rep)
	}
}

package core

import "repro/internal/nn"

// Publish-time packed serving weights (DESIGN.md §6.5). Alongside the
// f32 conversion, snapshot publish packs each decode weight matrix once
// into cache-blocked panels; every decode fleet, at both precisions,
// then runs its dense step GEMMs on panels. Packing is a bit-exact
// address permutation (see mat.Packed), so packed and unpacked fleets
// emit byte-identical traces; training and the scalar serial f64
// reference path keep the unpacked matrices as the honest baseline the
// packed paths are pinned against.

// ModelPacked holds the panel-packed decode weights of the model's two
// LSTMs at one element type: float64, or the f32 conversion's.
type ModelPacked[T float32 | float64] struct {
	Flavor, Lifetime *nn.PackedLSTM[T]
}

// PreparePacked packs the model's f64 decode weights once and caches
// the result on the model; later calls (and shallow Model copies,
// which share the cache pointer) return the same panels. Like
// PrepareF32, the first call mutates the model and must happen before
// the model is shared across goroutines — engine constructors and the
// batch entry points call it eagerly. Hot reload republishes a fresh
// Model value whose cache starts nil, so reloaded weights are always
// freshly packed.
func (m *Model) PreparePacked() *ModelPacked[float64] {
	if m.packed == nil {
		m.packed = &ModelPacked[float64]{
			Flavor:   m.Flavor.Net.Pack(),
			Lifetime: m.Lifetime.Net.Pack(),
		}
	}
	return m.packed
}

// PreparePackedF32 packs the f32 weight conversion (building it first
// if needed) once and caches the result. Same sharing and
// publish-before-fan-out contract as PreparePacked.
func (m *Model) PreparePackedF32() *ModelPacked[float32] {
	if m.packed32 == nil {
		f32 := m.PrepareF32()
		m.packed32 = &ModelPacked[float32]{
			Flavor:   f32.Flavor.Pack(),
			Lifetime: f32.Lifetime.Pack(),
		}
	}
	return m.packed32
}

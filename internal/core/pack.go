package core

import (
	"sync"

	"repro/internal/nn"
)

// Packed serving weights (DESIGN.md §6.5). Alongside the
// f32 conversion, each decode weight matrix is packed once into
// cache-blocked panels; every decode fleet, at both precisions, then
// runs its dense step GEMMs on panels. Packing is a bit-exact address
// permutation (see mat.Packed); training keeps the row-major matrices,
// and the teacher-forced predictors step one-row fleets on panels of
// their own (newFlavorState, newLifetimeState). The f64 fleets are
// pinned against the training forward, logit for logit.

// ModelPacked holds the panel-packed decode weights of the model's two
// LSTMs at one element type: float64, or the f32 conversion's.
type ModelPacked[T float32 | float64] struct {
	Flavor, Lifetime *nn.PackedLSTM[T]
}

// prepareMu guards the lazy builds of every Model's serving caches (f32,
// packed, packed32), so concurrent decodes of a fresh model build each
// cache once and never race on it. It is one package-level lock rather
// than a sync.Once per Model because Model is copied by value (to set
// MaxJobsPerPeriod, in the tests), which a lock field would turn into a
// vet copylocks error. A cache is built once per model and precision; after
// that the lock guards a nil check.
var prepareMu sync.Mutex

// PreparePacked packs the model's f64 decode weights once and caches
// the result on the model; later calls (and shallow Model copies made
// after it, which share the cache pointer) return the same panels. It is
// safe for concurrent use. Hot reload republishes a fresh Model value
// whose cache starts nil, so reloaded weights are always freshly packed.
func (m *Model) PreparePacked() *ModelPacked[float64] {
	prepareMu.Lock()
	defer prepareMu.Unlock()
	if m.packed == nil {
		m.packed = &ModelPacked[float64]{
			Flavor:   m.Flavor.Net.Pack(),
			Lifetime: m.Lifetime.Net.Pack(),
		}
	}
	return m.packed
}

// PreparePackedF32 packs the f32 weight conversion (building it first
// if needed) once and caches the result, with PreparePacked's sharing
// and concurrency contract.
func (m *Model) PreparePackedF32() *ModelPacked[float32] {
	prepareMu.Lock()
	defer prepareMu.Unlock()
	if m.packed32 == nil {
		f32 := m.prepareF32Locked()
		m.packed32 = &ModelPacked[float32]{
			Flavor:   f32.Flavor.Pack(),
			Lifetime: f32.Lifetime.Pack(),
		}
	}
	return m.packed32
}

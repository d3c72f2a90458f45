//go:build race

package mat

// RaceEnabled reports whether the race detector is compiled in. Alloc
// pins over sync.Pool-backed paths skip under the detector (race-mode
// Pool.Put randomly drops items, so steady state is not allocation-free
// by design there), and the suites above mat skip their portable-tier
// pass of the heavy goldens (mattest.BothTiersUnraced).
const RaceEnabled = true

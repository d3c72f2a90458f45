// Package mattest is the test-side handle on mat's kernel tier: the
// suites of every package above mat hold the assembly and the portable
// kernels to the same goldens and the same byte-identity contracts in
// one process, so the default `go test ./...` proves asm ≡ portable with
// no environment variable and no second run.
package mattest

import (
	"testing"

	"repro/internal/mat"
)

// BothTiers runs f as subtest "asm" on the assembly kernels, where this
// CPU has them, and as subtest "portable" on the pure-Go kernels every
// other host runs, restoring the tier afterwards. Build shared fixtures
// before the call, so they are not fitted on the slower tier.
func BothTiers(t *testing.T, f func(t *testing.T)) {
	for _, portable := range []bool{false, true} {
		name := "asm"
		if portable {
			name = "portable"
		}
		t.Run(name, func(t *testing.T) {
			defer mat.SetPortable(mat.SetPortable(portable))
			if mat.Portable() != portable {
				t.Skip("no assembly kernels on this CPU")
			}
			f(t)
		})
	}
}

// BothTiersUnraced is BothTiers for suites too heavy for the
// instrumented portable kernels: under the race detector the portable
// pass is skipped (internal/mat and internal/nn race those kernels; a
// decode golden on them takes minutes and proves no more).
func BothTiersUnraced(t *testing.T, f func(t *testing.T)) {
	BothTiers(t, func(t *testing.T) {
		if mat.RaceEnabled && mat.Portable() {
			t.Skip("portable pass skipped under the race detector")
		}
		f(t)
	})
}

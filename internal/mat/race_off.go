//go:build !race

package mat

// RaceEnabled reports whether the race detector is compiled in; see
// race_on.go.
const RaceEnabled = false

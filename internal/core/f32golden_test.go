package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/trace"
)

// Trace-byte hashes of GenerateBatchF32 for fixed seeds, recorded on the
// last commit with a hand-written Fleet32: the f32 twin of the f64 table
// in generate_golden_test.go, which pins Model.Generate.
// At these seeds the f32 traces happen to equal the f64 ones (sampling
// hides the f32 logits' last-bit drift), so two f64 rows carry the same
// constants; the f32 decode is still pinned on its own path. Like the
// nn-level logit hashes (nn.TestFleet32LogitsGolden) they must hold on
// the assembly and on the portable kernels, and the test runs both.
// The trained entry also moves if the fixture's training bits move,
// which TestTrainedSnapshotGolden's tiny fits watch for; never re-record
// either to make a decode refactor pass.
const (
	goldenF32TracesTiny    = "74d8a726d32b3ad3b7b6be0a7f50955963d05933acc77e008988ead661e84bc9"
	goldenF32TracesTrained = "e9354f7e9e57b05b82c1ee996032bb25a125dc04ffeec86d26b1ac261c181ffd"
)

// f32TraceDigest is the sha256 of the JSON bytes of n f32-decoded
// traces, streams split from one seed.
func f32TraceDigest(t *testing.T, m *Model, seed int64, n int, w trace.Window) string {
	h := sha256.New()
	for _, tr := range m.GenerateBatchF32(splitStreams(seed, n), w) {
		h.Write(traceBytes(t, tr))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestF32TraceGolden pins the f32 decode's bytes across commits: on the
// untrained tiny model every engine test uses, and on the trained
// hidden-24 fixture, where f32 logits genuinely differ from f64.
func TestF32TraceGolden(t *testing.T) {
	day := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	f := getFixture(t)
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		if got := f32TraceDigest(t, tinyGenModel(), 20210521, 8, day); got != goldenF32TracesTiny {
			t.Errorf("tiny model: f32 traces sha256 %s, want %s", got, goldenF32TracesTiny)
		}
		if got := f32TraceDigest(t, f.model, 321, 6, f.testW); got != goldenF32TracesTrained {
			t.Errorf("trained fixture: f32 traces sha256 %s, want %s", got, goldenF32TracesTrained)
		}
	})
}

package core

import (
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/trace"
)

// Trace-byte hashes of GenerateBatchShardedF32 for fixed seeds, recorded
// on the last commit with a hand-written Fleet32: the f32 twin of the f64 table
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

// f32Goldens are the f32 rows: on the untrained tiny model every engine
// test uses, and, given the fixture, on the trained hidden-24 model,
// where f32 logits genuinely differ from f64.
func f32Goldens(f *fixture) []generateGolden {
	day := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	rows := []generateGolden{{"f32/tiny", tinyGenModel(), day, 20210521, 8, goldenF32TracesTiny}}
	if f != nil {
		rows = append(rows, generateGolden{"f32/trained", f.model, f.testW, 321, 6, goldenF32TracesTrained})
	}
	return rows
}

// TestF32TraceGolden pins the f32 decode's bytes across commits: the
// JSON of each row's streams, decoded by one GenerateBatchShardedF32 call.
func TestF32TraceGolden(t *testing.T) {
	f := getFixture(t)
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		for _, r := range f32Goldens(f) {
			if d := digest(traceAll(t, r.m.GenerateBatchShardedF32(splitStreams(r.seed, r.n), r.w, 0))); d != r.want {
				t.Errorf("%s: f32 traces sha256 %s, want %s", r.name, d, r.want)
			}
		}
	})
}

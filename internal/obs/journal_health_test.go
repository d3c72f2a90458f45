package obs

import (
	"errors"
	"testing"
)

// failWriter fails every write after the first n succeed.
type failWriter struct {
	ok  int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.ok > 0 {
		w.ok--
		return len(p), nil
	}
	return 0, w.err
}

// TestJournalDroppedLinesSurfaced: write failures must not vanish —
// the dropped count, first error, and the registry mirrors all advance.
func TestJournalDroppedLinesSurfaced(t *testing.T) {
	boom := errors.New("disk full")
	j := NewJournal(&failWriter{ok: 2, err: boom})
	reg := NewRegistry()
	j.CountInto(reg)

	for i := 0; i < 5; i++ {
		j.Event("tick", map[string]any{"i": i})
	}
	if got := j.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if !errors.Is(j.Err(), boom) {
		t.Fatalf("Err = %v, want %v", j.Err(), boom)
	}
	if got := reg.Counter("obs.journal_errors").Value(); got != 3 {
		t.Fatalf("obs.journal_errors = %d, want 3", got)
	}
	if got := reg.Gauge("obs.journal_dropped_lines").Value(); got != 3 {
		t.Fatalf("obs.journal_dropped_lines = %d, want 3", got)
	}
	// The snapshot (what /metrics serves) carries both.
	snap := reg.Snapshot()
	if snap.Counters["obs.journal_errors"] != 3 || snap.Gauges["obs.journal_dropped_lines"] != 3 {
		t.Fatalf("snapshot missing journal health: %+v", snap)
	}
}

// TestJournalCountIntoFoldsPriorFailures: failures before attachment
// are not lost when the registry mirror arrives later.
func TestJournalCountIntoFoldsPriorFailures(t *testing.T) {
	j := NewJournal(&failWriter{err: errors.New("enospc")})
	j.Event("a", nil)
	j.Event("b", nil)
	reg := NewRegistry()
	j.CountInto(reg)
	if got := reg.Counter("obs.journal_errors").Value(); got != 2 {
		t.Fatalf("pre-attach errors folded = %d, want 2", got)
	}
	j.Event("c", nil)
	if got := reg.Counter("obs.journal_errors").Value(); got != 3 {
		t.Fatalf("post-attach errors = %d, want 3", got)
	}
}

// TestJournalCountIntoNilJournal: the metrics exist (zero) even when
// journaling is disabled, so dashboards see a stable schema.
func TestJournalCountIntoNilJournal(t *testing.T) {
	var j *Journal
	reg := NewRegistry()
	j.CountInto(reg)
	snap := reg.Snapshot()
	if v, ok := snap.Counters["obs.journal_errors"]; !ok || v != 0 {
		t.Fatalf("nil journal: obs.journal_errors = %d (ok=%v), want 0", v, ok)
	}
	if j.Dropped() != 0 {
		t.Fatal("nil journal Dropped != 0")
	}
}

// TestHistogramSnapshotQuantiles: p50/p90/p99 ride along with every
// snapshot and are consistent with Quantile.
func TestHistogramSnapshotQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5)
	}
	s := h.Snapshot()
	if s.P50 != s.Quantile(0.50) || s.P90 != s.Quantile(0.90) || s.P99 != s.Quantile(0.99) {
		t.Fatalf("derived quantiles inconsistent: %+v", s)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", s.P50, s.P90, s.P99)
	}
	if s.P50 <= 0 {
		t.Fatalf("p50 = %v, want > 0", s.P50)
	}
	if empty := NewHistogram([]float64{1}).Snapshot(); empty.P99 != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", empty.P99)
	}
}

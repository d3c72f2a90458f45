package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Journal is a structured JSONL event log for a run: one JSON object
// per line, written under a mutex so concurrent training loops (e.g.
// clouds fitted in parallel) interleave whole lines. All methods are
// safe on a nil *Journal, so call sites thread an optional journal
// without guarding.
//
// Every event carries three standard fields — "event" (the type),
// "ts" (wall-clock RFC3339Nano), and "t_ms" (milliseconds since the
// journal opened) — plus the caller's fields. Journals observe; they
// never feed anything back into the system, so an enabled journal
// cannot perturb RNG streams or results.
//
// Write and marshal failures never propagate to the instrumented code
// path, but they are not silent either: every lost line increments the
// journal's dropped count (Dropped), the first error is retained (Err),
// and CountInto mirrors both into a Registry as the
// "obs.journal_errors" counter and "obs.journal_dropped_lines" gauge
// so a sick journal shows up on GET /metrics instead of producing a
// quietly truncated file.
type Journal struct {
	mu     sync.Mutex
	w      io.Writer
	closer io.Closer
	start  time.Time
	err    error

	dropped atomic.Int64 // lines lost to marshal or write failures
	torn    bool         // the last write left a line without its newline

	// Optional registry mirrors, set by CountInto.
	errCount  *Counter
	dropGauge *Gauge
}

// NewJournal wraps an arbitrary writer (tests use a bytes.Buffer).
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, start: time.Now()}
}

// OpenJournal creates (truncating) a JSONL journal file at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := NewJournal(f)
	j.closer = f
	return j, nil
}

// Event appends one line with the standard fields merged over the
// caller's fields. Marshal failures of individual values are recorded
// in Err rather than panicking.
func (j *Journal) Event(event string, fields map[string]any) {
	if j == nil {
		return
	}
	rec := make(map[string]any, len(fields)+3)
	for k, v := range fields {
		rec[k] = v
	}
	now := time.Now()
	rec["event"] = event
	rec["ts"] = now.Format(time.RFC3339Nano)
	rec["t_ms"] = float64(now.Sub(j.start).Microseconds()) / 1000
	line, err := json.Marshal(rec)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.recordFailure(err)
		return
	}
	line = append(line, '\n')
	if j.torn {
		// A failed write left a fragment of the last line: end it, so
		// only that line is lost and this one starts a line of its own.
		line = append([]byte{'\n'}, line...)
	}
	n, err := j.w.Write(line)
	if n > 0 {
		j.torn = line[n-1] != '\n'
	}
	if err != nil {
		j.recordFailure(err)
	}
}

// recordFailure accounts one lost line (caller holds j.mu): first error
// retained for Err, dropped count advanced, registry mirrors updated
// when attached.
func (j *Journal) recordFailure(err error) {
	if j.err == nil {
		j.err = err
	}
	n := j.dropped.Add(1)
	if j.errCount != nil {
		j.errCount.Inc()
	}
	if j.dropGauge != nil {
		j.dropGauge.Set(n)
	}
}

// Dropped returns how many journal lines have been lost to marshal or
// write failures (0 on a nil journal).
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// CountInto mirrors the journal's failure accounting into reg: every
// lost line increments the "obs.journal_errors" counter and refreshes
// the "obs.journal_dropped_lines" gauge, so journal health is visible
// on the /metrics snapshot. Failures that happened before attachment
// are folded in. Safe on a nil journal (the metrics are still created,
// reporting zero).
func (j *Journal) CountInto(reg *Registry) {
	errCount := reg.Counter("obs.journal_errors")
	dropGauge := reg.Gauge("obs.journal_dropped_lines")
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.errCount = errCount
	j.dropGauge = dropGauge
	if n := j.dropped.Load(); n > 0 {
		errCount.Add(n)
		dropGauge.Set(n)
	}
}

// Span is a phase-level timer that emits a "span" journal event with
// its wall time on End.
type Span struct {
	name  string
	start time.Time
	j     *Journal
}

// StartSpan starts a span. Safe on a nil journal: the returned span
// still measures wall time but emits nothing.
func (j *Journal) StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now(), j: j}
}

// End stops the span, emits its event, and returns the elapsed wall
// time.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	s.j.Event("span", map[string]any{
		"name":    s.name,
		"wall_ms": float64(d.Microseconds()) / 1000,
	})
	return d
}

// Err returns the first write or marshal error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file when the journal owns one.
func (j *Journal) Close() error {
	if j == nil || j.closer == nil {
		return nil
	}
	return j.closer.Close()
}

// EpochEvent is the uniform per-epoch training telemetry record every
// training loop emits (core's flavor LSTM and lifetime hazard LSTM,
// the ablation fits of internal/experiments, and — as a single-epoch
// convergence record — the arrival GLM), so runs are comparable across
// models.
type EpochEvent struct {
	Model    string  // loop identity, e.g. "flavor_lstm"
	Epoch    int     // 0-based epoch index
	Epochs   int     // configured total
	Loss     float64 // mean training loss over the epoch
	Dev      float64 // dev-set loss, when evaluated this epoch
	HasDev   bool    // whether Dev was evaluated this epoch
	LR       float64 // learning rate in effect
	GradNorm float64 // last observed global gradient L2 norm (0 if never computed)
	Steps    int     // loss-contributing steps/outputs this epoch
	WallMS   float64 // wall-clock of the epoch in milliseconds
}

// EpochSink receives per-epoch training events. *Journal implements it;
// tests use SinkFunc recorders.
type EpochSink interface {
	EpochDone(EpochEvent)
}

// SinkFunc adapts a function to EpochSink.
type SinkFunc func(EpochEvent)

// EpochDone implements EpochSink.
func (f SinkFunc) EpochDone(e EpochEvent) { f(e) }

// EpochDone implements EpochSink: the event is journaled as an "epoch"
// line ("dev_loss" present only on epochs where the dev set was
// scored).
func (j *Journal) EpochDone(e EpochEvent) {
	if j == nil {
		return
	}
	fields := map[string]any{
		"model":     e.Model,
		"epoch":     e.Epoch,
		"epochs":    e.Epochs,
		"loss":      e.Loss,
		"lr":        e.LR,
		"grad_norm": e.GradNorm,
		"steps":     e.Steps,
		"wall_ms":   e.WallMS,
	}
	if e.HasDev {
		fields["dev_loss"] = e.Dev
	}
	j.Event("epoch", fields)
}

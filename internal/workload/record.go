package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/trace"
)

// Trace record/replay (DESIGN.md §9): a versioned JSON format capturing
// what a decode produced together with everything needed to reproduce
// it — the seed, window, rate scale, engine/precision labels, and a
// model tag binding the record to the weights that generated it. A
// replay is a decode engine's Generate at the record's seed, Window and
// Scale; the engine contract (bytes are a function of (seed, window,
// scale) alone, whatever the batching or shard count, and equal to the
// one-stream Model.Generate) makes the replayed trace byte-identical to
// the recorded one, and Verify checks exactly that, VM by VM.

// RecordVersion is the current trace-record format version.
const RecordVersion = 1

// MaxRecordBytes bounds a trace-record document (a full 30-day
// azure-preset generation serializes well under 10 MB).
const MaxRecordBytes = 64 << 20

// maxRecordVMs caps the declared and actual VM count of a record.
const maxRecordVMs = 10_000_000

// Record is one recorded generation. Count is the declared VM count
// and must match len(VMs) — a cheap integrity check that catches
// truncated files before an expensive replay does.
type Record struct {
	Version   int     `json:"version"`
	Source    string  `json:"source"` // "generate", "experiment", ...
	Engine    string  `json:"engine,omitempty"`
	Precision string  `json:"precision,omitempty"`
	ModelTag  string  `json:"model_tag,omitempty"`
	Seed      int64   `json:"seed"`
	Start     int     `json:"start_period"`
	Periods   int     `json:"periods"`
	Scale     float64 `json:"scale"`
	Count     int     `json:"count"`
	// Flavors is the catalog snapshot so a record is self-describing.
	Flavors []FlavorDefSpec `json:"flavors,omitempty"`
	VMs     []RecordVM      `json:"vms"`
}

// RecordVM mirrors trace.VM with stable JSON names.
type RecordVM struct {
	ID       int     `json:"id"`
	User     int     `json:"user"`
	Flavor   int     `json:"flavor"`
	Start    int     `json:"start"`
	Duration float64 `json:"duration_s"`
	Censored bool    `json:"censored,omitempty"`
}

// NewRecord captures a served trace. The window/seed/scale are the
// request parameters; tr is what the engine returned for them.
func NewRecord(source, engine, precision, modelTag string, seed int64, w trace.Window, scale float64, tr *trace.Trace) *Record {
	rec := &Record{
		Version:   RecordVersion,
		Source:    source,
		Engine:    engine,
		Precision: precision,
		ModelTag:  modelTag,
		Seed:      seed,
		Start:     w.Start,
		Periods:   w.Periods(),
		Scale:     scale,
		Count:     len(tr.VMs),
		VMs:       make([]RecordVM, len(tr.VMs)),
	}
	if tr.Flavors != nil {
		rec.Flavors = make([]FlavorDefSpec, len(tr.Flavors.Defs))
		for i, d := range tr.Flavors.Defs {
			rec.Flavors[i] = FlavorDefSpec{Name: d.Name, CPU: d.CPU, MemGB: d.MemGB}
		}
	}
	for i, vm := range tr.VMs {
		rec.VMs[i] = RecordVM{ID: vm.ID, User: vm.User, Flavor: vm.Flavor, Start: vm.Start, Duration: vm.Duration, Censored: vm.Censored}
	}
	return rec
}

// Validate checks the record header and per-VM invariants. Like the
// spec grammar it is strict: version, caps, count cross-check, and VM
// fields all have to be in range before anything downstream sizes a
// buffer from them.
func (r *Record) Validate() error {
	if r.Version != RecordVersion {
		return fmt.Errorf("workload: unsupported record version %d (want %d)", r.Version, RecordVersion)
	}
	if err := checkName("record source", r.Source); err != nil {
		return err
	}
	if len(r.Engine) > maxNameLen || len(r.Precision) > maxNameLen || len(r.ModelTag) > maxNameLen {
		return fmt.Errorf("workload: record engine/precision/model_tag too long")
	}
	if r.Start < 0 || r.Start > maxDays*trace.PeriodsPerDay {
		return fmt.Errorf("workload: record start_period %d out of range", r.Start)
	}
	if r.Periods < 1 || r.Periods > maxDays*trace.PeriodsPerDay {
		return fmt.Errorf("workload: record periods %d outside [1,%d]", r.Periods, maxDays*trace.PeriodsPerDay)
	}
	if r.Scale < 0 || r.Scale > 1e6 || r.Scale != r.Scale {
		return fmt.Errorf("workload: record scale %v out of range", r.Scale)
	}
	if r.Count < 0 || r.Count > maxRecordVMs {
		return fmt.Errorf("workload: record count %d outside [0,%d]", r.Count, maxRecordVMs)
	}
	if r.Count != len(r.VMs) {
		return fmt.Errorf("workload: record declares %d VMs but carries %d", r.Count, len(r.VMs))
	}
	if len(r.Flavors) > maxFlavors {
		return fmt.Errorf("workload: record has %d flavors (cap %d)", len(r.Flavors), maxFlavors)
	}
	k := len(r.Flavors)
	for i, vm := range r.VMs {
		if vm.Start < 0 || vm.Start >= r.Periods {
			return fmt.Errorf("workload: record vm[%d] start %d outside [0,%d)", i, vm.Start, r.Periods)
		}
		if vm.Flavor < 0 || (k > 0 && vm.Flavor >= k) {
			return fmt.Errorf("workload: record vm[%d] flavor %d out of catalog range", i, vm.Flavor)
		}
		if vm.User < 0 {
			return fmt.Errorf("workload: record vm[%d] negative user", i)
		}
		if vm.Duration < 0 || math.IsNaN(vm.Duration) || math.IsInf(vm.Duration, 0) {
			return fmt.Errorf("workload: record vm[%d] bad duration %v", i, vm.Duration)
		}
	}
	return nil
}

// ReadRecord reads and validates one record document. The reader is
// hard-capped at MaxRecordBytes and parsing is strict (unknown fields
// and trailing data are errors), so a hostile record fails fast.
func ReadRecord(r io.Reader) (*Record, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxRecordBytes+1))
	if err != nil {
		return nil, fmt.Errorf("workload: read record: %w", err)
	}
	if len(data) > MaxRecordBytes {
		return nil, fmt.Errorf("workload: record exceeds %d bytes", MaxRecordBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	rec := &Record{}
	if err := dec.Decode(rec); err != nil {
		return nil, fmt.Errorf("workload: parse record: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: trailing data after record document")
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Marshal serializes the record as a single JSON document.
func (r *Record) Marshal() ([]byte, error) {
	return json.Marshal(r)
}

// WriteTo writes the marshalled record followed by a newline (the
// JSONL framing Recorder uses). Implements io.WriterTo.
func (r *Record) WriteTo(w io.Writer) (int64, error) {
	data, err := r.Marshal()
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// Trace reconstitutes the recorded trace (for feeding experiments or
// re-emitting it without touching a model).
func (r *Record) Trace() *trace.Trace {
	tr := &trace.Trace{Periods: r.Periods, VMs: make([]trace.VM, len(r.VMs))}
	for i, vm := range r.VMs {
		tr.VMs[i] = trace.VM{ID: vm.ID, User: vm.User, Flavor: vm.Flavor, Start: vm.Start, Duration: vm.Duration, Censored: vm.Censored}
	}
	if len(r.Flavors) > 0 {
		fs := &trace.FlavorSet{Defs: make([]trace.FlavorDef, len(r.Flavors))}
		for i, d := range r.Flavors {
			fs.Defs[i] = trace.FlavorDef{Name: d.Name, CPU: d.CPU, MemGB: d.MemGB}
		}
		tr.Flavors = fs
	}
	return tr
}

// Window returns the recorded generation window.
func (r *Record) Window() trace.Window {
	return trace.Window{Start: r.Start, End: r.Start + r.Periods}
}

// Verify checks that tr reproduces the record exactly: same VM count
// and every field of every VM equal. It returns a positioned error on
// first divergence so test failures point at the offending VM.
func (r *Record) Verify(tr *trace.Trace) error {
	if tr.Periods != r.Periods {
		return fmt.Errorf("workload: replay periods %d != recorded %d", tr.Periods, r.Periods)
	}
	if len(tr.VMs) != len(r.VMs) {
		return fmt.Errorf("workload: replay produced %d VMs, recorded %d", len(tr.VMs), len(r.VMs))
	}
	for i, vm := range tr.VMs {
		want := trace.VM{ID: r.VMs[i].ID, User: r.VMs[i].User, Flavor: r.VMs[i].Flavor, Start: r.VMs[i].Start, Duration: r.VMs[i].Duration, Censored: r.VMs[i].Censored}
		if vm != want {
			return fmt.Errorf("workload: replay diverges at vm[%d]: got %+v want %+v", i, vm, want)
		}
	}
	return nil
}

// Recorder appends records to a JSONL file, safe for concurrent
// request handlers. The zero value is a no-op sink, so callers can
// wire it unconditionally.
type Recorder struct {
	mu sync.Mutex
	w  io.WriteCloser
}

// OpenRecorder creates (or truncates) a JSONL record sink at path.
func OpenRecorder(path string) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Recorder{w: f}, nil
}

// Append writes one record. Safe for concurrent use.
func (rc *Recorder) Append(r *Record) error {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.w == nil {
		return nil
	}
	_, err := r.WriteTo(rc.w)
	return err
}

// Close flushes and closes the sink. Further Appends are no-ops.
func (rc *Recorder) Close() error {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.w == nil {
		return nil
	}
	err := rc.w.Close()
	rc.w = nil
	return err
}

// ReadRecords reads every record from a JSONL stream (the Recorder
// format), validating each. Total input is capped at MaxRecordBytes.
func ReadRecords(r io.Reader) ([]*Record, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxRecordBytes+1))
	if err != nil {
		return nil, fmt.Errorf("workload: read records: %w", err)
	}
	if len(data) > MaxRecordBytes {
		return nil, fmt.Errorf("workload: record stream exceeds %d bytes", MaxRecordBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out []*Record
	for dec.More() {
		rec := &Record{}
		if err := dec.Decode(rec); err != nil {
			return nil, fmt.Errorf("workload: parse record %d: %w", len(out), err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("workload: record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
	return out, nil
}

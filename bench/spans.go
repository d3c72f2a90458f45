package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness side.
// Spans of one operation share Op; Parent is the ID of the span that
// caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the run started
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`              // -1 outside any operation (set-up, probes)
	Steps  int64  `json:"steps,omitempty"` // decode spans: batched step rounds
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run: every method is a no-op.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its ID (-1 when disabled).
func (l *spanLog) add(name string, start, end time.Time, parent, op int) int {
	return l.addSteps(name, start, end, parent, op, 0)
}

func (l *spanLog) addSteps(name string, start, end time.Time, parent, op int, steps int64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Name: name,
		Start:  start.Sub(l.t0).Nanoseconds(),
		End:    end.Sub(l.t0).Nanoseconds(),
		Parent: parent, Op: op, Steps: steps,
	})
	return id
}

// setEnd moves the end of a span recorded before its children.
func (l *spanLog) setEnd(id int, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].End = end.Sub(l.t0).Nanoseconds()
	l.mu.Unlock()
}

// time runs fn inside a span.
func (l *spanLog) time(name string, parent, op int, fn func()) {
	start := time.Now()
	fn()
	l.add(name, start, time.Now(), parent, op)
}

// selfTimes returns, per span name, each span's duration minus the part
// of it covered by its direct children, in milliseconds.
func (l *spanLog) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e6)
	}
	return out
}

// meanSteps is the mean Steps of the spans with the given name.
func (l *spanLog) meanSteps(name string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum, n float64
	for _, s := range l.spans {
		if s.Name == name {
			sum += float64(s.Steps)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// durations returns every span's full duration per name, in ms.
func (l *spanLog) durations() map[string][]float64 {
	out := map[string][]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// writeFile writes the spans as JSON lines, creating the directory.
func (l *spanLog) writeFile(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package rtrace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: the disabled state (nil tracer / nil trace) must be a
// no-op end to end — call sites thread traces without guarding.
func TestNilSafety(t *testing.T) {
	var tc *Tracer
	if tc := NewTracer(0); tc != nil {
		t.Fatal("NewTracer(0) should return the nil disabled tracer")
	}
	tr := tc.StartTrace()
	if tr != nil {
		t.Fatal("nil tracer should hand out nil traces")
	}
	tr.Add("queue", time.Now(), time.Millisecond)
	tr.AddN("decode", time.Now(), time.Millisecond, 7)
	tr.SetShard(3)
	if got := tr.ID(); got != "" {
		t.Fatalf("nil trace ID = %q, want empty", got)
	}
	if f := tc.Finish(tr); f.ID != "" || len(f.Spans) != 0 {
		t.Fatalf("nil finish = %+v, want zero", f)
	}
	if tc.Tail(10) != nil || tc.Count() != 0 || tc.Capacity() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("nil trace must not be stored in context")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) must be nil")
	}
}

func TestIDsUniqueAndHex(t *testing.T) {
	tc := NewTracer(4)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := tc.StartTrace().ID()
		if len(id) != 16 || strings.ToLower(id) != id {
			t.Fatalf("ID %q is not 16 lowercase hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestSpansAndCoverage(t *testing.T) {
	tc := NewTracer(8)
	tr := tc.StartTrace()
	start := tr.start
	tr.Add("queue", start, 10*time.Millisecond)
	tr.AddN("decode", start.Add(10*time.Millisecond), 30*time.Millisecond, 12)
	tr.SetShard(2)
	f := tc.Finish(tr)
	if f.Shard != 2 {
		t.Fatalf("shard = %d, want 2", f.Shard)
	}
	if len(f.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(f.Spans))
	}
	if f.Spans[1].Steps != 12 {
		t.Fatalf("decode steps = %d, want 12", f.Spans[1].Steps)
	}
	if f.Spans[1].StartNS != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("decode start offset = %d", f.Spans[1].StartNS)
	}
	if d, ok := f.SpanDur("queue"); !ok || d != 10*time.Millisecond {
		t.Fatalf("SpanDur(queue) = %v %v", d, ok)
	}
	if _, ok := f.SpanDur("missing"); ok {
		t.Fatal("SpanDur should miss unknown names")
	}
	// Coverage is span time over total; with a synthetic DurNS it is
	// exact.
	f.DurNS = (40 * time.Millisecond).Nanoseconds()
	if cov := f.Coverage(); cov != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", cov)
	}
}

// TestRingWrap: the ring keeps exactly the most recent `capacity`
// traces, oldest first, and Tail(n) clips to the newest n.
func TestRingWrap(t *testing.T) {
	const capacity = 4
	tc := NewTracer(capacity)
	var ids []string
	for i := 0; i < 10; i++ {
		tr := tc.StartTrace()
		ids = append(ids, tr.ID())
		tc.Finish(tr)
	}
	if tc.Count() != 10 {
		t.Fatalf("count = %d, want 10", tc.Count())
	}
	tail := tc.Tail(0)
	if len(tail) != capacity {
		t.Fatalf("ring holds %d, want %d", len(tail), capacity)
	}
	for i, f := range tail {
		if want := ids[10-capacity+i]; f.ID != want {
			t.Fatalf("ring[%d] = %s, want %s (oldest first)", i, f.ID, want)
		}
	}
	last2 := tc.Tail(2)
	if len(last2) != 2 || last2[1].ID != ids[9] || last2[0].ID != ids[8] {
		t.Fatalf("Tail(2) = %v", last2)
	}
}

// TestConcurrentFinish: many goroutines finishing traces must not race
// (run under -race in scripts/check.sh) and must all be counted.
func TestConcurrentFinish(t *testing.T) {
	tc := NewTracer(16)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := tc.StartTrace()
			tr.Add("decode", tr.start, time.Microsecond)
			tc.Finish(tr)
		}()
	}
	wg.Wait()
	if tc.Count() != n {
		t.Fatalf("count = %d, want %d", tc.Count(), n)
	}
	if got := len(tc.Tail(0)); got != 16 {
		t.Fatalf("ring holds %d, want 16", got)
	}
}

// TestContextRoundTrip: the engine extracts exactly what the handler
// stored.
func TestContextRoundTrip(t *testing.T) {
	tc := NewTracer(1)
	tr := tc.StartTrace()
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatal("background context should carry no trace")
	}
}

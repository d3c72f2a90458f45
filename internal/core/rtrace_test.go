package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// generateTraced runs one request through eng with a fresh request
// trace and returns the response bytes plus the finished trace record.
func generateTraced(t *testing.T, eng GenEngine, tc *rtrace.Tracer, seed int64, w trace.Window) ([]byte, rtrace.Finished) {
	t.Helper()
	tr := tc.StartTrace()
	ctx := rtrace.NewContext(context.Background(), tr)
	out, err := eng.Generate(ctx, rng.New(seed), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	return traceBytes(t, out), tc.Finish(tr)
}

// TestTracedDecodeByteIdentity is the tracing half of the determinism
// contract: attaching a request trace must not change a single response
// byte at any shard count, while the finished trace carries the
// pipeline-phase spans.
func TestTracedDecodeByteIdentity(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	const seed = 4242
	want := traceBytes(t, m.Generate(rng.New(seed), w))

	for _, shards := range []int{1, 2} {
		eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Untraced request first, then a traced one with the same seed.
		plain, perr := eng.Generate(context.Background(), rng.New(seed), w, 0)
		if perr != nil {
			t.Fatalf("shards=%d untraced: %v", shards, perr)
		}
		if !bytes.Equal(traceBytes(t, plain), want) {
			t.Fatalf("shards=%d: untraced trace differs from one-stream Generate", shards)
		}
		tc := rtrace.NewTracer(4)
		got, fin := generateTraced(t, eng, tc, seed, w)
		eng.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: traced response differs from untraced (tracing is not read-only)", shards)
		}

		// Span structure: queue, coalesce, and a decode span that counts
		// the rounds the stream rode in.
		for _, name := range []string{"queue", "coalesce", "decode"} {
			if d, ok := fin.SpanDur(name); !ok || d < 0 {
				t.Fatalf("shards=%d: missing %s span (spans=%+v)", shards, name, fin.Spans)
			}
		}
		for _, sp := range fin.Spans {
			if sp.Name == "decode" && sp.Steps <= 0 {
				t.Fatalf("shards=%d: decode span has %d rounds, want > 0", shards, sp.Steps)
			}
		}
		// The router annotates the shard it chose; with nothing else in
		// flight that is the tie-break, shard 0.
		if fin.Shard != 0 {
			t.Fatalf("shards=%d: trace annotated shard %d, want 0", shards, fin.Shard)
		}
	}
}

// TestTracedSpansTileRequest pins the span accounting the /debug/traces
// endpoint relies on: queue, coalesce, and decode are contiguous (each
// span starts where the previous ended) so their sum accounts for the
// engine-side wall time of the request. The queue span itself starts a
// hair after trace start — the caller's pre-submit work — which is the
// only gap allowed.
func TestTracedSpansTileRequest(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: 2 * trace.PeriodsPerDay}
	eng := newEngine(m, 4, PrecisionF64)
	defer eng.Close()
	tc := rtrace.NewTracer(4)
	_, fin := generateTraced(t, eng, tc, 777, w)

	cursor := findSpan(t, fin, "queue").StartNS
	for _, name := range []string{"queue", "coalesce", "decode"} {
		sp := findSpan(t, fin, name)
		if sp.StartNS != cursor {
			t.Fatalf("span %q starts at %dns, want %dns (spans must tile)", name, sp.StartNS, cursor)
		}
		if sp.DurNS < 0 {
			t.Fatalf("span %q has negative duration %d", name, sp.DurNS)
		}
		cursor = sp.StartNS + sp.DurNS
	}
}

func findSpan(t *testing.T, f rtrace.Finished, name string) rtrace.Span {
	t.Helper()
	for _, sp := range f.Spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("span %q not found in %+v", name, f.Spans)
	return rtrace.Span{}
}

// TestTracedCancelledStream: a request aborted mid-decode still closes
// out its spans (empty decode if it never stepped), so cancelled
// requests don't leave dangling traces.
func TestTracedCancelledStream(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: 4000 * trace.PeriodsPerDay} // effectively unbounded
	eng := newEngine(m, 4, PrecisionF64)
	defer eng.Close()
	tc := rtrace.NewTracer(4)
	tr := tc.StartTrace()
	ctx, cancel := context.WithCancel(rtrace.NewContext(context.Background(), tr))
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := eng.Generate(ctx, rng.New(9), w, 0); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	fin := tc.Finish(tr)
	for _, name := range []string{"queue", "coalesce", "decode"} {
		findSpan(t, fin, name)
	}
}

// TestTracingDisabledRoundAllocs is the ISSUE's zero-overhead pin: with
// tracing disabled (no trace in the context → s.tr == nil), a warm
// batched decode round must not allocate — the entire tracing path
// collapses to one pointer test per stream per round.
func TestTracingDisabledRoundAllocs(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	m := shardTestModel()
	w := trace.Window{Start: 0, End: 400 * trace.PeriodsPerDay} // long-lived streams
	fe := newFleetEngine(m, 8, PrecisionF64)
	src := rng.New(177)
	for i := 0; i < 8; i++ {
		s := m.newGenStream(src.Split(), w, 1, nil)
		if s.phase == phaseDone {
			t.Fatal("stream finished before admission; widen the window")
		}
		// Pre-grow per-stream buffers so steady-state appends don't
		// reallocate under AllocsPerRun (same discipline as
		// TestShardedRoundSteadyStateAllocs).
		s.out.VMs = make([]trace.VM, 0, 1<<20)
		s.spans = make([]genSpan, 0, 4096)
		s.flavors = make([]int, 0, 4096)
		fe.admit(s)
	}
	for i := 0; i < 50; i++ { // warm scratch
		fe.round()
	}
	if fe.active() != 8 {
		t.Skip("streams retired during warmup; window too short for alloc pin")
	}
	if allocs := testing.AllocsPerRun(100, func() { fe.round() }); allocs != 0 {
		t.Fatalf("untraced warm round allocates %v times, want 0", allocs)
	}
}

package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// TestTracedSpansTileRequest pins the span accounting the /debug/traces
// endpoint relies on: queue, coalesce, and decode are contiguous (each
// span starts where the previous ended) so their sum accounts for the
// engine-side wall time of the request, and the decode span counts the
// rounds the stream rode in. The queue span itself starts a hair after
// trace start — the caller's pre-submit work — which is the only gap
// allowed. The router annotates the shard it chose; with nothing else
// in flight that is the tie-break, shard 0.
func TestTracedSpansTileRequest(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: 2 * trace.PeriodsPerDay}
	defer par.SetProcs(par.SetProcs(2))
	eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tc := rtrace.NewTracer(4)
	tr := tc.StartTrace()
	if _, err := eng.Generate(rtrace.NewContext(context.Background(), tr), rng.New(777), w, 0); err != nil {
		t.Fatal(err)
	}
	fin := tc.Finish(tr)

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
	if rounds := findSpan(t, fin, "decode").Steps; rounds <= 0 {
		t.Fatalf("decode span has %d rounds, want > 0", rounds)
	}
	if fin.Shard != 0 {
		t.Fatalf("trace annotated shard %d, want 0", fin.Shard)
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
	m := tinyGenModel()
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
	m := tinyGenModel()
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

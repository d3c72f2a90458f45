package core

import (
	"bytes"
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestRouterBalancesInFlight pins the placement policy and its gauges.
// 64 requests that cannot finish (a 400-day window, held until
// cancelled) are submitted concurrently: least-loaded routing must leave
// the shards within one stream of each other whatever order the submits
// raced in, and once every Generate has returned — the instant the last
// one does, not eventually — every occupancy gauge must read zero,
// because the router discounts a request before it hands the caller its
// result. decode.shards reports K, and the per-shard assignment counts
// sum to the requests routed.
func TestRouterBalancesInFlight(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: 400 * trace.PeriodsPerDay}
	const n = 64
	for _, shards := range []int{2, 4} {
		reg := obs.NewRegistry()
		prev := par.SetProcs(shards)
		e, err := NewGenEngine(m, EngineSpec{MaxBatch: n, Obs: reg})
		par.SetProcs(prev)
		if err != nil {
			t.Fatal(err)
		}
		occupancy := func() (sum, lo, hi int64) {
			snap := reg.Snapshot()
			lo = n
			for k := 0; k < shards; k++ {
				occ := snap.Gauges["decode.shard_occupancy."+strconv.Itoa(k)]
				sum += occ
				lo, hi = min(lo, occ), max(hi, occ)
			}
			return sum, lo, hi
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := e.Generate(ctx, rng.New(int64(i+1)), w, 0); err != context.Canceled {
					t.Errorf("K=%d request %d: err = %v, want context.Canceled", shards, i, err)
				}
			}(i)
		}
		// Nothing retires, so the gauges only climb: once they sum to n
		// the per-shard reads are exact, however the submits interleaved.
		deadline := time.Now().Add(30 * time.Second)
		sum, lo, hi := occupancy()
		for sum != n && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
			sum, lo, hi = occupancy()
		}
		if sum != n || hi-lo > 1 {
			t.Errorf("K=%d: %d of %d requests in flight, per-shard occupancy in [%d, %d]; want all %d and a spread <= 1", shards, sum, n, lo, hi, n)
		}
		cancel()
		wg.Wait()
		if sum, _, hi := occupancy(); sum != 0 || hi != 0 {
			t.Errorf("K=%d: occupancy sums to %d (max %d) after the last Generate returned, want 0", shards, sum, hi)
		}
		snap := reg.Snapshot()
		if got := snap.Gauges["decode.shards"]; got != int64(shards) {
			t.Errorf("decode.shards = %d, want %d", got, shards)
		}
		var assigned int64
		for k := 0; k < shards; k++ {
			assigned += snap.Gauges["decode.streams_per_shard."+strconv.Itoa(k)]
		}
		if assigned != n {
			t.Errorf("K=%d: streams_per_shard sums to %d, want %d", shards, assigned, n)
		}
		e.Close()
	}
}

// TestShardCapsSumToMaxBatch pins MaxBatch as the cap across all shards
// when the shard count does not divide it: the router's engines admit
// MaxBatch / K streams each and one more on the first MaxBatch % K,
// never ceil(MaxBatch / K) apiece (10 over 4 shards used to admit 12).
// K is one shard per par worker, never more than MaxBatch; ShardCount,
// which traced reports before any engine exists, agrees with the
// engines the router builds.
func TestShardCapsSumToMaxBatch(t *testing.T) {
	m := tinyGenModel()
	for _, c := range []struct {
		maxBatch, procs int
		want            []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{64, 3, []int{22, 21, 21}},
		{7, 2, []int{4, 3}},
		{6, 4, []int{2, 2, 1, 1}},
		{3, 8, []int{1, 1, 1}},
		{0, 3, []int{22, 21, 21}}, // MaxBatch <= 0 means 64
		{16, 8, []int{2, 2, 2, 2, 2, 2, 2, 2}},
		{16, 1, []int{16}},
	} {
		prev := par.SetProcs(c.procs)
		spec := EngineSpec{MaxBatch: c.maxBatch}
		if got := spec.ShardCount(); got != len(c.want) {
			t.Errorf("MaxBatch %d at %d workers: ShardCount = %d, want %d", c.maxBatch, c.procs, got, len(c.want))
		}
		e, err := NewGenEngine(m, spec)
		par.SetProcs(prev)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, s := range e.(*engineRouter).shards {
			got = append(got, s.maxBatch)
		}
		e.Close()
		if !slices.Equal(got, c.want) {
			t.Errorf("MaxBatch %d at %d workers: per-shard caps %v, want %v", c.maxBatch, c.procs, got, c.want)
		}
	}
}

// TestShardedEngineCloseAndCancel checks the lifecycle contract
// holds through the router: pre-cancelled contexts fail with ctx.Err, Close is
// idempotent, and post-Close requests fail with ErrEngineClosed.
func TestShardedEngineCloseAndCancel(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	defer par.SetProcs(par.SetProcs(2))
	e, err := NewGenEngine(m, EngineSpec{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Generate(dead, rng.New(1), w, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled request: err = %v, want context.Canceled", err)
	}
	if _, err := e.Generate(context.Background(), rng.New(1), w, 0); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Generate(context.Background(), rng.New(2), w, 0); err != ErrEngineClosed {
		t.Fatalf("post-close: err = %v, want ErrEngineClosed", err)
	}
}

// TestEngineRegistry covers what is left of the registry surface: ""
// and "batched" name the one engine kind, whose output is byte-identical
// to the one-stream Model.Generate at any scale; the two retired kinds and an
// unknown one are errors that name the valid kind.
func TestEngineRegistry(t *testing.T) {
	m := tinyGenModel()
	for _, kind := range []string{"serial", "sharded", "warp-drive"} {
		_, err := NewGenEngine(m, EngineSpec{Kind: kind})
		if err == nil || !strings.Contains(err.Error(), `"`+EngineBatched+`"`) {
			t.Fatalf("NewGenEngine kind %q: err = %v, want one naming %q", kind, err, EngineBatched)
		}
	}

	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	want := traceBytes(t, m.Generate(rng.New(7), w))
	wantScaled := traceBytes(t, mustTilted(m, WhatIf{RateScale: 2}).Generate(rng.New(7), w))
	defer par.SetProcs(par.SetProcs(2))
	for _, kind := range []string{"", EngineBatched} {
		e, err := NewGenEngine(m, EngineSpec{Kind: kind, MaxBatch: 4})
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		tr, err := e.Generate(context.Background(), rng.New(7), w, 0)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if !bytes.Equal(traceBytes(t, tr), want) {
			t.Fatalf("kind %q: trace differs from one-stream Generate", kind)
		}
		tr, err = e.Generate(context.Background(), rng.New(7), w, 2)
		if err != nil {
			t.Fatalf("kind %q scaled: %v", kind, err)
		}
		if !bytes.Equal(traceBytes(t, tr), wantScaled) {
			t.Fatalf("kind %q: scaled trace differs from one-stream Generate of the model with that scale folded in", kind)
		}
		e.Close()
	}
}

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

	"repro/internal/mat/mattest"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/trace"
)

// shardTestModel is the fast untrained model used across the sharded
// decode tests (decode mechanics and draw order do not depend on
// fitted weights).
func shardTestModel() *Model {
	fm, lm := tinyGenModels()
	return &Model{Arrival: testArrivalModel(1.5), Flavor: fm, Lifetime: lm}
}

// splitStreams returns n child RNGs split serially from one seed —
// fresh for every decode leg, since decoding consumes the streams.
func splitStreams(seed int64, n int) []*rng.RNG {
	src := rng.New(seed)
	gs := make([]*rng.RNG, n)
	for i := range gs {
		gs[i] = src.Split()
	}
	return gs
}

// generateAll fires one concurrent Generate per stream through eng and
// returns each response's bytes, by stream index.
func generateAll(t *testing.T, eng GenEngine, gs []*rng.RNG, w trace.Window) [][]byte {
	t.Helper()
	got := make([][]byte, len(gs))
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *rng.RNG) {
			defer wg.Done()
			tr, err := eng.Generate(context.Background(), g, w, 0)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			errs[i] = tr.WriteJSON(&buf)
			got[i] = buf.Bytes()
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	return got
}

// TestShardedDecodeDeterminism is the multi-core acceptance test: every
// way of spreading streams over fleets — the offline batch, the offline
// round-robin shards at K=1, 2, 8, and the serving router (the default
// batched kind) at its default K and at K=1, 2, 8 under concurrent
// submission, f64 and f32 — is byte-identical per stream to the
// one-stream decode at that precision, at REPRO_PROCS=1 and 8. Which
// shard the router picks depends on goroutine timing; the bytes must
// not. scripts/check.sh re-runs it under -race at GOMAXPROCS=4.
// Assembly kernels only: the portable pass triples its cost, and the
// trained twin below and TestPackedDecodeByteIdentity hold the same
// engines to both tiers.
func TestShardedDecodeDeterminism(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: 2 * trace.PeriodsPerDay}
	const n = 24
	const seed = 99

	// The one-stream decodes: Model.Generate at f64, a one-row f32 fleet
	// at f32.
	oneStream := map[Precision][][]byte{PrecisionF64: make([][]byte, n), PrecisionF32: make([][]byte, n)}
	func() {
		defer par.SetProcs(par.SetProcs(1))
		for i, g := range splitStreams(seed, n) {
			oneStream[PrecisionF64][i] = traceBytes(t, m.Generate(g, w))
		}
		for i, g := range splitStreams(seed, n) {
			oneStream[PrecisionF32][i] = traceBytes(t, m.GenerateBatchF32([]*rng.RNG{g}, w)[0])
		}
	}()
	want := oneStream[PrecisionF64]

	for _, procs := range []int{1, 8} {
		func() {
			defer par.SetProcs(par.SetProcs(procs))
			for i, tr := range m.GenerateBatch(splitStreams(seed, n), w) {
				if !bytes.Equal(traceBytes(t, tr), want[i]) {
					t.Fatalf("procs=%d batched stream %d differs from one-stream Generate", procs, i)
				}
			}
			for _, shards := range []int{1, 2, 8} {
				for i, tr := range m.GenerateBatchSharded(splitStreams(seed, n), w, shards) {
					if !bytes.Equal(traceBytes(t, tr), want[i]) {
						t.Fatalf("procs=%d shards=%d stream %d differs from one-stream Generate", procs, shards, i)
					}
				}
			}
			for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
				for _, shards := range []int{0, 1, 2, 8} {
					spec := EngineSpec{Kind: EngineBatched, MaxBatch: 16, Shards: shards, Precision: prec}
					wantK := shards
					if shards == 0 {
						wantK = procs
					}
					if got := spec.ShardCount(); got != wantK {
						t.Fatalf("procs=%d Shards=%d: ShardCount = %d, want %d", procs, shards, got, wantK)
					}
					eng, err := NewGenEngine(m, spec)
					if err != nil {
						t.Fatal(err)
					}
					got := generateAll(t, eng, splitStreams(seed, n), w)
					eng.Close()
					for i := range got {
						if !bytes.Equal(got[i], oneStream[prec][i]) {
							t.Fatalf("procs=%d %s engine K=%d stream %d differs from the one-stream decode", procs, prec, wantK, i)
						}
					}
				}
			}
		}()
	}
}

// TestShardedDecodeDeterminismTrained runs the sharded equivalence on
// the trained integration fixture, so the claim also holds with real
// weights and real flavor/lifetime dynamics, on the assembly and on the
// portable kernels. Its first six streams are the golden table's
// trained/testW row.
func TestShardedDecodeDeterminismTrained(t *testing.T) {
	f := getFixture(t)
	m := f.model
	const n = 16
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		oneStream := make([][]byte, n)
		func() {
			defer par.SetProcs(par.SetProcs(1))
			for i, g := range splitStreams(321, n) {
				oneStream[i] = traceBytes(t, m.Generate(g, f.testW))
			}
		}()
		defer par.SetProcs(par.SetProcs(8))
		for _, shards := range []int{2, 8} {
			for i, tr := range m.GenerateBatchSharded(splitStreams(321, n), f.testW, shards) {
				if !bytes.Equal(traceBytes(t, tr), oneStream[i]) {
					t.Fatalf("shards=%d stream %d differs from one-stream Generate", shards, i)
				}
			}
		}
	})
}

// TestShardedEngineMatchesSerial fires concurrent requests (more than
// the total cap, exercising per-shard queueing and continuous
// admission) through the router and checks every response against the
// one-stream Model.Generate of its seed, plus the gauge bookkeeping
// afterwards: decode.shards
// reports K, every request was routed to exactly one shard, and
// occupancy is back to zero. Which shard served which seed is the
// router's business (TestRouterBalancesInFlight pins the policy). Run
// under -race via scripts/check.sh.
func TestShardedEngineMatchesSerial(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	reg := obs.NewRegistry()
	const shards = 3
	e, err := NewGenEngine(m, EngineSpec{MaxBatch: 6, Shards: shards, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 20
	gs := make([]*rng.RNG, n)
	for i := range gs {
		gs[i] = rng.New(int64(200 + i))
	}
	for i, got := range generateAll(t, e, gs, w) {
		want := traceBytes(t, m.Generate(rng.New(int64(200+i)), w))
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: sharded trace differs from one-stream Generate", i)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["decode.shards"]; got != shards {
		t.Fatalf("decode.shards = %d, want %d", got, shards)
	}
	var total int64
	for k := 0; k < shards; k++ {
		if occ := snap.Gauges["decode.shard_occupancy."+strconv.Itoa(k)]; occ != 0 {
			t.Fatalf("shard %d occupancy = %d after drain, want 0", k, occ)
		}
		total += snap.Gauges["decode.streams_per_shard."+strconv.Itoa(k)]
	}
	if total != n {
		t.Fatalf("total assigned = %d, want %d", total, n)
	}
}

// TestRouterBalancesInFlight pins the placement policy. 64 requests
// that cannot finish (a 400-day window, held until cancelled) are
// submitted concurrently: least-loaded routing must leave the shards
// within one stream of each other whatever order the submits raced in,
// and once every Generate has returned — the instant the last one does,
// not eventually — every occupancy gauge must read zero, because the
// router discounts a request before it hands the caller its result.
func TestRouterBalancesInFlight(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: 400 * trace.PeriodsPerDay}
	const n = 64
	for _, shards := range []int{2, 4} {
		reg := obs.NewRegistry()
		e, err := NewGenEngine(m, EngineSpec{MaxBatch: n, Shards: shards, Obs: reg})
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
		e.Close()
	}
}

// TestShardCapsSumToMaxBatch pins MaxBatch as the cap across all shards
// when the shard count does not divide it: the router's engines admit
// MaxBatch / K streams each and one more on the first MaxBatch % K,
// never ceil(MaxBatch / K) apiece (10 over 4 shards used to admit 12).
func TestShardCapsSumToMaxBatch(t *testing.T) {
	m := shardTestModel()
	for _, c := range []struct {
		maxBatch, shards int
		want             []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{64, 3, []int{22, 21, 21}},
		{7, 2, []int{4, 3}},
		{6, 4, []int{2, 2, 1, 1}},
		{3, 8, []int{1, 1, 1}},
		{0, 3, []int{22, 21, 21}}, // MaxBatch <= 0 means 64
	} {
		e, err := NewGenEngine(m, EngineSpec{MaxBatch: c.maxBatch, Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, s := range e.(*engineRouter).shards {
			got = append(got, s.maxBatch)
		}
		e.Close()
		if !slices.Equal(got, c.want) {
			t.Errorf("MaxBatch %d over %d shards: per-shard caps %v, want %v", c.maxBatch, c.shards, got, c.want)
		}
	}
}

// TestShardedEngineScale pins the per-request scale knob against
// Model.RateScale on the one-stream Generate, as TestEngineScale does
// for a single Engine.
func TestShardedEngineScale(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	e, err := NewGenEngine(m, EngineSpec{MaxBatch: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tr, err := e.Generate(context.Background(), rng.New(42), w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms := *m
	ms.RateScale = 3
	if !bytes.Equal(traceBytes(t, tr), traceBytes(t, ms.Generate(rng.New(42), w))) {
		t.Fatal("scaled sharded trace differs from one-stream Generate at that RateScale")
	}
}

// TestShardedEngineCloseAndCancel checks the lifecycle contract
// holds through the router: pre-cancelled contexts fail with ctx.Err, Close is
// idempotent, and post-Close requests fail with ErrEngineClosed.
func TestShardedEngineCloseAndCancel(t *testing.T) {
	m := shardTestModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	e, err := NewGenEngine(m, EngineSpec{MaxBatch: 4, Shards: 2})
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
	m := shardTestModel()
	for _, kind := range []string{"serial", "sharded", "warp-drive"} {
		_, err := NewGenEngine(m, EngineSpec{Kind: kind})
		if err == nil || !strings.Contains(err.Error(), `"`+EngineBatched+`"`) {
			t.Fatalf("NewGenEngine kind %q: err = %v, want one naming %q", kind, err, EngineBatched)
		}
	}

	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	want := traceBytes(t, m.Generate(rng.New(7), w))
	ms := *m
	ms.RateScale = 2
	wantScaled := traceBytes(t, ms.Generate(rng.New(7), w))
	for _, kind := range []string{"", EngineBatched} {
		e, err := NewGenEngine(m, EngineSpec{Kind: kind, MaxBatch: 4, Shards: 2})
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
			t.Fatalf("kind %q: scaled trace differs from one-stream Generate at that RateScale", kind)
		}
		e.Close()
	}
}

package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcsDefaultPositive(t *testing.T) {
	if Procs() < 1 {
		t.Fatalf("Procs() = %d", Procs())
	}
}

func TestSetProcsRestores(t *testing.T) {
	old := SetProcs(3)
	if Procs() != 3 {
		t.Fatalf("after SetProcs(3), Procs() = %d", Procs())
	}
	if prev := SetProcs(old); prev != 3 {
		t.Fatalf("SetProcs returned %d, want 3", prev)
	}
	if Procs() != old {
		t.Fatalf("restore failed: %d != %d", Procs(), old)
	}
}

func TestSetProcsClamps(t *testing.T) {
	defer SetProcs(SetProcs(0))
	if Procs() != 1 {
		t.Fatalf("SetProcs(0) should clamp to 1, got %d", Procs())
	}
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8, 32} {
		defer SetProcs(SetProcs(w))
		const n = 1000
		counts := make([]int32, n)
		Do(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("procs=%d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestDoEmptyAndNegative(t *testing.T) {
	called := false
	Do(0, func(int) { called = true })
	Do(-5, func(int) { called = true })
	if called {
		t.Fatal("Do ran tasks for n <= 0")
	}
}

// TestDoDeterministicReduction is the package-level contract check:
// per-index outputs followed by an in-order reduction give identical
// results at any worker count.
func TestDoDeterministicReduction(t *testing.T) {
	run := func(w int) float64 {
		defer SetProcs(SetProcs(w))
		const n = 513
		out := make([]float64, n)
		Do(n, func(i int) { out[i] = 1.0 / float64(i+1) })
		var s float64
		for _, v := range out {
			s += v
		}
		return s
	}
	want := run(1)
	for _, w := range []int{2, 4, 16} {
		if got := run(w); got != want {
			t.Fatalf("procs=%d sum %v != serial %v", w, got, want)
		}
	}
}

func TestDoPanicPropagates(t *testing.T) {
	defer SetProcs(SetProcs(4))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		} else if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	Do(100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestSnapshotCountersAdvance(t *testing.T) {
	defer SetProcs(SetProcs(4))
	before := Snapshot()
	Do(10, func(int) { time.Sleep(time.Millisecond) })
	after := Snapshot()
	if got := after.Regions - before.Regions; got != 1 {
		t.Errorf("regions delta = %d, want 1", got)
	}
	if got := after.Tasks - before.Tasks; got != 10 {
		t.Errorf("tasks delta = %d, want 10", got)
	}
	if got := after.Workers - before.Workers; got != 4 {
		t.Errorf("workers delta = %d, want 4", got)
	}
	if after.WallNanos <= before.WallNanos {
		t.Error("wall time did not advance")
	}
	// 10 sleeping tasks over 4 workers: busy time must exceed the
	// region's wall time (workers run concurrently).
	if busy, wall := after.BusyNanos-before.BusyNanos, after.WallNanos-before.WallNanos; busy <= wall {
		t.Errorf("busy delta %d <= wall delta %d for a 4-worker region", busy, wall)
	}
}

// BenchmarkDoSerialRegion measures the fixed per-region cost of the
// serial Do path (bounds check + stats: two clock reads, a few atomic
// adds). Compare against the millisecond-scale regions Do fans out in
// practice — the stats must stay noise (<2% overhead budget).
func BenchmarkDoSerialRegion(b *testing.B) {
	defer SetProcs(SetProcs(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Do(1, func(int) {})
	}
}

// BenchmarkDoParallelRegion measures region setup + teardown on the
// multi-worker path (worker spawn, stats, join) with trivial tasks.
func BenchmarkDoParallelRegion(b *testing.B) {
	defer SetProcs(SetProcs(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Do(8, func(int) {})
	}
}

// TestSnapshotZeroAlloc pins Snapshot at zero allocations while
// parallel regions run concurrently (the sharded decode engine polls
// Snapshot from /metrics while shards step through Do): six atomic
// loads into a value struct, no matter how contended the counters are.
func TestSnapshotZeroAlloc(t *testing.T) {
	defer SetProcs(SetProcs(4))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				Do(8, func(int) {})
			}
		}
	}()
	var sink Stats
	if allocs := testing.AllocsPerRun(1000, func() { sink = Snapshot() }); allocs != 0 {
		t.Errorf("Snapshot allocates %v times under concurrent regions, want 0", allocs)
	}
	close(stop)
	<-done
	_ = sink
}

// BenchmarkSnapshotContended measures Snapshot while shardCount
// goroutines continuously open and close serial regions — the
// multi-region contention the ~130 ns/region serial figure from
// BenchmarkDoSerialRegion never exercises. Caveat (same as bench.sh):
// cross-block ns/op deltas under ~10% are clock noise; for a
// kernel-level decision run the contended and uncontended blocks in
// one process and compare within the run.
func BenchmarkSnapshotContended(b *testing.B) {
	defer SetProcs(SetProcs(1))
	const shardCount = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < shardCount; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Do(1, func(int) {})
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink Stats
	for i := 0; i < b.N; i++ {
		sink = Snapshot()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	_ = sink
}

// BenchmarkDoSerialRegionContended is the multi-region companion to
// BenchmarkDoSerialRegion: per-region cost when shardCount goroutines
// enter serial regions concurrently, so the shared atomic counters are
// genuinely contended (the sharded decode engine's steady state —
// every shard's GEMM opens regions against its siblings). The same
// paired-measure caveat applies: compare against BenchmarkDoSerialRegion
// from the same bench.sh run, not across baselines.
func BenchmarkDoSerialRegionContended(b *testing.B) {
	defer SetProcs(SetProcs(1))
	const shardCount = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < shardCount; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Do(1, func(int) {})
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Do(1, func(int) {})
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func TestSnapshotSerialPath(t *testing.T) {
	defer SetProcs(SetProcs(1))
	before := Snapshot()
	Do(5, func(int) {})
	after := Snapshot()
	if got := after.Tasks - before.Tasks; got != 5 {
		t.Errorf("tasks delta = %d, want 5", got)
	}
	if got := after.Workers - before.Workers; got != 0 {
		t.Errorf("workers delta = %d, want 0 on the serial path", got)
	}
	if after.BusyNanos < before.BusyNanos || after.WallNanos < before.WallNanos {
		t.Error("time counters went backwards")
	}
}

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine 17 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestDoCallerIsAWorker pins who runs a region: the calling goroutine
// and w-1 spawned ones, every one of them counted in Stats.Workers. Each
// of w tasks waits until all w are running, so each worker runs exactly
// one, and the caller must be among them.
func TestDoCallerIsAWorker(t *testing.T) {
	for _, w := range []int{2, 3} {
		func() {
			defer SetProcs(SetProcs(w))
			caller := goid()
			var started atomic.Int32
			ran := make([]string, w)
			before := Snapshot()
			Do(w, func(i int) {
				ran[i] = goid()
				started.Add(1)
				for deadline := time.Now().Add(10 * time.Second); started.Load() < int32(w); {
					if time.Now().After(deadline) {
						panic("workers did not all start")
					}
					runtime.Gosched()
				}
			})
			if got := Snapshot().Workers - before.Workers; got != int64(w) {
				t.Errorf("procs %d: Stats.Workers delta %d, want %d", w, got, w)
			}
			seen := map[string]bool{}
			for _, id := range ran {
				seen[id] = true
			}
			if len(seen) != w || !seen[caller] {
				t.Errorf("procs %d: tasks ran on goroutines %v, want %d distinct including the caller %s", w, ran, w, caller)
			}
		}()
	}
}

// TestDoInOrderOnCallerAtOneProc pins the serial path: at Procs() == 1
// every task runs on the calling goroutine in ascending order.
func TestDoInOrderOnCallerAtOneProc(t *testing.T) {
	defer SetProcs(SetProcs(1))
	caller := goid()
	var order []int
	Do(20, func(i int) {
		if goid() != caller {
			t.Errorf("task %d ran off the calling goroutine", i)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v, want ascending", order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("ran %d tasks, want 20", len(order))
	}
}

// TestDoCallerPanicDrains pins a panic in the caller's own task: it is
// re-raised only after the spawned worker has finished the task it was
// running.
func TestDoCallerPanicDrains(t *testing.T) {
	defer SetProcs(SetProcs(2))
	caller := goid()
	var running atomic.Int32
	defer func() {
		if r := recover(); r != "caller" {
			t.Fatalf("recovered %v, want the caller's panic", r)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("Do re-raised with %d tasks still running", n)
		}
	}()
	Do(200, func(i int) {
		running.Add(1)
		defer running.Add(-1)
		if goid() == caller && i > 0 {
			panic("caller")
		}
		time.Sleep(200 * time.Microsecond)
	})
}

// TestDoNestedRegions pins that regions compose: every task of an outer
// region opens an inner one, at several worker counts, and all of them
// finish (a fixed shared pool would deadlock here).
func TestDoNestedRegions(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		done := make(chan [8][8]int32)
		go func() {
			defer SetProcs(SetProcs(w))
			var counts [8][8]int32
			Do(8, func(i int) {
				Do(8, func(j int) { atomic.AddInt32(&counts[i][j], 1) })
			})
			done <- counts
		}()
		select {
		case counts := <-done:
			for i := range counts {
				for j, c := range counts[i] {
					if c != 1 {
						t.Fatalf("procs %d: inner task %d/%d ran %d times", w, i, j, c)
					}
				}
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("procs %d: nested regions did not finish", w)
		}
	}
}

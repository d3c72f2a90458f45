package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/glm"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/trace"
)

// traceBytes serializes a trace for byte-level comparison.
func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testArrivalModel builds an untrained constant-rate arrival model
// (all feature weights zero, intercept = log rate): decode mechanics
// and draw order do not depend on the fitted values.
func testArrivalModel(rate float64) *ArrivalModel {
	m := &ArrivalModel{
		Kind:        BatchArrivals,
		UseDOH:      true,
		HistoryDays: 2,
		DOH:         features.DOHSampler{Mode: features.DOHGeometric, GeomP: 0.5, HistoryDays: 2},
	}
	m.Reg = &glm.PoissonRegression{W: make([]float64, m.featureDim()), Intercept: math.Log(rate)}
	return m
}

// TestEngineRejectsInvalidScale: a negative or non-finite rate scale is
// an error returned to its caller, and the engine keeps serving.
func TestEngineRejectsInvalidScale(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	e := newEngine(m, 4, PrecisionF64)
	defer e.Close()
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if tr, err := e.Generate(context.Background(), rng.New(1), w, scale); err == nil || tr != nil {
			t.Errorf("scale %v: Generate = %v, %v; want an error", scale, tr, err)
		}
	}
	tr, err := e.Generate(context.Background(), rng.New(1), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, tr), traceBytes(t, m.Generate(rng.New(1), w))) {
		t.Fatal("trace after rejected scales differs from one-stream Generate")
	}
}

// TestEngineCancellation submits a request with an already-cancelled
// context plus one cancelled mid-flight; both must return ctx errors
// while other streams complete normally.
func TestEngineCancellation(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: 4 * trace.PeriodsPerDay}
	e := newEngine(m, 4, PrecisionF64)
	defer e.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Generate(dead, rng.New(1), w, 0); err != context.Canceled {
		t.Fatalf("pre-cancelled request: err = %v, want context.Canceled", err)
	}

	midCtx, midCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var midErr error
	var okTr *trace.Trace
	var okErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, midErr = e.Generate(midCtx, rng.New(2), w, 0)
	}()
	go func() {
		defer wg.Done()
		okTr, okErr = e.Generate(context.Background(), rng.New(3), w, 0)
	}()
	time.Sleep(2 * time.Millisecond) // let both streams admit
	midCancel()
	wg.Wait()
	if midErr != context.Canceled {
		t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", midErr)
	}
	if okErr != nil {
		t.Fatalf("unaffected stream: %v", okErr)
	}
	if !bytes.Equal(traceBytes(t, okTr), traceBytes(t, m.Generate(rng.New(3), w))) {
		t.Fatal("stream sharing a batch with a cancelled one diverged from one-stream Generate")
	}
}

// TestIdleEngineDoesNotWait pins the deleted coalescing window: an idle
// engine steps a lone request in the round after it arrives, whatever
// EngineSpec.Window says — the field is accepted and ignored. With the
// window honoured this request would sit out the hour.
func TestIdleEngineDoesNotWait(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	defer par.SetProcs(par.SetProcs(1))
	eng, err := NewGenEngine(m, EngineSpec{Window: time.Hour, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan engineResult, 1)
	go func() {
		tr, err := eng.Generate(ctx, rng.New(31), w, 0)
		got <- engineResult{tr, err}
	}()
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if !bytes.Equal(traceBytes(t, res.tr), traceBytes(t, m.Generate(rng.New(31), w))) {
			t.Fatal("idle-engine trace differs from one-stream Generate")
		}
	case <-ctx.Done():
		t.Fatal("a lone request on an idle engine was still waiting after 10s")
	}
}

// steppedCtx reports when the scheduler is stepping its stream: the
// engine polls Err once at admission and once per round after that, so
// the second call proves the stream is in the fleet.
type steppedCtx struct {
	context.Context
	polls   atomic.Int32
	stepped chan struct{}
}

func (c *steppedCtx) Err() error {
	if c.polls.Add(1) == 2 {
		close(c.stepped)
	}
	return c.Context.Err()
}

// TestLatecomerJoinsRunningBatch pins continuous admission, the one
// batching mechanism: while a stream that cannot finish (400 days, held
// until cancelled) is being stepped on a one-shard engine, a one-day
// request must be admitted between rounds and return byte-identical to
// the one-stream Generate before the held stream goes away.
func TestLatecomerJoinsRunningBatch(t *testing.T) {
	m := tinyGenModel()
	defer par.SetProcs(par.SetProcs(1))
	eng, err := NewGenEngine(m, EngineSpec{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	base, release := context.WithCancel(context.Background())
	defer release()
	held := &steppedCtx{Context: base, stepped: make(chan struct{})}
	heldErr := make(chan error, 1)
	go func() {
		_, err := eng.Generate(held, rng.New(1), trace.Window{Start: 0, End: 400 * trace.PeriodsPerDay}, 0)
		heldErr <- err
	}()
	select {
	case <-held.stepped:
	case err := <-heldErr:
		t.Fatalf("held stream returned before it was cancelled: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	tr, err := eng.Generate(ctx, rng.New(2), w, 0)
	if err != nil {
		t.Fatalf("latecomer did not join the running batch: %v", err)
	}
	if !bytes.Equal(traceBytes(t, tr), traceBytes(t, m.Generate(rng.New(2), w))) {
		t.Fatal("latecomer trace differs from one-stream Generate")
	}
	select {
	case err := <-heldErr:
		t.Fatalf("held stream returned before it was cancelled: %v", err)
	default:
	}
	release()
	if err := <-heldErr; err != context.Canceled {
		t.Fatalf("held stream: err = %v, want context.Canceled", err)
	}
}

// TestEngineClose checks queued and post-Close requests fail with
// ErrEngineClosed, that a refused call leaves its RNG untouched (so the
// caller can replay the same generator elsewhere), and that Close is
// idempotent.
func TestEngineClose(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	e := newEngine(m, 2, PrecisionF64)
	if _, err := e.Generate(context.Background(), rng.New(1), w, 0); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	g := rng.New(2)
	if _, err := e.Generate(context.Background(), g, w, 0); err != ErrEngineClosed {
		t.Fatalf("post-close: err = %v, want ErrEngineClosed", err)
	}
	if g.Int63() != rng.New(2).Int63() {
		t.Fatal("a call refused with ErrEngineClosed consumed draws from its RNG")
	}
}

// TestEngineCloseAfterPanickingSetUp: a model whose arrival rate
// overflows at the request's scale panics in the stream set-up's first
// Poisson draw, on the caller's goroutine. The engine's read lock is
// released all the same, so the Close after it returns. CheckScale, the
// load-time guard, rejects that model at that scale, and a positive
// weight counts toward its bound.
func TestEngineCloseAfterPanickingSetUp(t *testing.T) {
	const scale = 1e6
	if err := testArrivalModel(1.5).CheckScale(scale); err != nil {
		t.Fatalf("rate 1.5 at scale %g: %v", scale, err)
	}
	heavy := testArrivalModel(1)
	heavy.Reg.W[3] = 800
	if heavy.CheckScale(1) == nil {
		t.Error("CheckScale accepted a weight of 800, whose period rate overflows")
	}
	m := tinyGenModel()
	m.Arrival = testArrivalModel(1e305)
	if m.Arrival.CheckScale(scale) == nil {
		t.Fatalf("CheckScale accepted rate 1e305 at scale %g", scale)
	}
	e := newEngine(m, 2, PrecisionF64)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stream set-up at an overflowing rate did not panic")
			}
		}()
		e.Generate(context.Background(), rng.New(1), trace.Window{Start: 0, End: trace.PeriodsPerDay}, scale)
	}()
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked after a panicking stream set-up: the read lock leaked")
	}
}

// TestCancelledStreamRetiresNextRound: a stream whose context is
// cancelled mid-decode leaves the fleet in the very next round, with
// the context's error, and the streams beside it keep decoding.
func TestCancelledStreamRetiresNextRound(t *testing.T) {
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: 400 * trace.PeriodsPerDay} // long-lived streams
	fe := newFleetEngine(m, 4, PrecisionF64)
	ctx, cancel := context.WithCancel(context.Background())
	victim := m.newGenStream(rng.New(1), w, 1, ctx)
	fe.admit(victim)
	fe.admit(m.newGenStream(rng.New(2), w, 1, context.Background()))
	for i := 0; i < 20; i++ {
		if len(fe.round()) != 0 {
			t.Fatal("a stream retired during warm-up; widen the window")
		}
	}
	cancel()
	retired := fe.round()
	if len(retired) != 1 || retired[0] != victim || victim.err != context.Canceled {
		t.Fatalf("the round after the cancel retired %d streams (victim's err %v), want the victim with context.Canceled", len(retired), victim.err)
	}
	if fe.active() != 1 || fe.ff.Rows() != 1 || fe.lf.Rows() != 1 {
		t.Fatalf("after the retirement: %d streams, %d flavor and %d lifetime rows, want 1 each", fe.active(), fe.ff.Rows(), fe.lf.Rows())
	}
}

// TestFleetEngineSteadyStateAllocs pins the per-round allocation
// behavior of a warm fleet round: only the trace VM append and the
// unavoidable per-stream result growth may allocate, so a round over
// warmed streams with preallocated outputs must stay at zero.
func TestFleetEngineSteadyStateAllocs(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	m := tinyGenModel()
	w := trace.Window{Start: 0, End: 400 * trace.PeriodsPerDay} // long-lived streams
	e := newFleetEngine(m, 8, PrecisionF64)
	src := rng.New(77)
	for i := 0; i < 8; i++ {
		s := m.newGenStream(src.Split(), w, 1, nil)
		if s.phase == phaseDone {
			t.Fatal("stream finished before admission; widen the window")
		}
		// Pre-grow the per-stream buffers so steady-state appends don't
		// reallocate under AllocsPerRun.
		s.out.VMs = make([]trace.VM, 0, 1<<20)
		s.spans = make([]genSpan, 0, 4096)
		s.flavors = make([]int, 0, 4096)
		e.admit(s)
	}
	for i := 0; i < 50; i++ { // warm scratch and pools
		e.round()
	}
	if e.active() != 8 {
		t.Skip("streams retired during warmup; window too short for alloc pin")
	}
	if allocs := testing.AllocsPerRun(100, func() { e.round() }); allocs != 0 {
		t.Fatalf("warm fleet round allocates %v times, want 0", allocs)
	}
}

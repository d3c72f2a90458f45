package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/survival"
	"repro/internal/trace"
)

// This file is the decoder (DESIGN.md §6.2): the paper's three-stage
// process (§2.4) as an explicit per-stream state machine (genStream),
// and the continuous-batching engine that advances many independent
// streams together through shared batched LSTM step GEMMs (nn.Fleet).
// The scheduler admits newly arrived streams and retires finished ones
// every fleet-step instead of padding to the longest sequence.
// Model.Generate is the one-stream case; there is no other decode loop.
//
// Determinism contract: each stream owns its RNG and draws from it in
// a fixed order, and a Fleet step is bit-identical per row to the
// scalar StepForward, so every trace is byte-identical to the one-stream
// m.Generate(g, w) regardless of batch composition, admission order,
// shard count or worker count. Generate's bytes are pinned across
// commits by TestGenerateTraceGolden.

// BatchGenerator is implemented by generators that can decode many
// independent traces through shared batched step GEMMs. Results must
// be element-wise identical to calling Generate(gs[i], w) one at a time.
type BatchGenerator interface {
	GenerateBatch(gs []*rng.RNG, w trace.Window) []*trace.Trace
}

// streamPhase is the kind of NN step a stream needs next.
type streamPhase uint8

const (
	phaseFlavor   streamPhase = iota // next step: flavor token
	phaseLifetime                    // next step: lifetime hazard
	phaseDone                        // trace complete (or aborted)
)

// genSpan is one non-empty batch as a span over the period's shared
// flavor buffer; the buffers are reused across periods, so steady-state
// decoding allocates nothing per batch or per job.
type genSpan struct {
	user, lo, hi int
}

// genStream is one trace being generated, as resumable state: the
// period / batch / job cursors of the three-stage process, plus the
// fleet rows holding its LSTM state. All RNG draws happen in
// newGenStream, startPeriod and consume*: per period, the DOH day on a
// new day, the batch count, then per flavor step the token, and per job
// the lifetime bin and duration.
type genStream struct {
	m   *Model
	g   *rng.RNG
	w   trace.Window
	b   float64 // arrival intercept + log scale: the one rate is exp(W·x + b)
	out *trace.Trace
	ctx context.Context // optional; non-nil only for served streams
	err error           // context error on aborted streams

	phase streamPhase
	frow  int // flavor fleet row
	lrow  int // lifetime fleet row

	// Period loop state.
	p        int // current period
	dohDay   int
	curDay   int
	nextUser int
	id       int

	// Flavor stage state.
	nBatches int
	eobCount int
	jobs     int
	curUser  int
	curLo    int
	prevTok  int
	spans    []genSpan
	flavors  []int

	// Lifetime stage state.
	si, ji   int // span / job-in-span cursors
	prevBin  int
	prevCens bool

	// Arrival feature scratch for rateInto, so period transitions on
	// the decode hot path allocate nothing.
	arrF []float64

	// Request tracing (DESIGN.md §7): nil on untraced streams, so the
	// per-round cost of disabled tracing is one pointer test. Spans are
	// only written from the scheduler goroutine that owns the stream.
	tr        *rtrace.Trace
	submitted time.Time // when Engine.Generate was called
	admitted  time.Time // when the scheduler admitted the stream
	firstStep time.Time // first fleet round that stepped the stream
	rounds    int64     // fleet rounds this stream participated in

	// Delivery: GenerateBatch indexes by slot; Engine replies on done.
	slot int
	done chan engineResult
}

// newGenStream starts one generation at the given arrival-rate scale
// (positive and finite): it draws the initial DOH day and advances to
// the first period with work, so the stream is immediately steppable
// (or already done).
func (m *Model) newGenStream(g *rng.RNG, w trace.Window, scale float64, ctx context.Context) *genStream {
	s := &genStream{
		m:       m,
		g:       g,
		w:       w,
		b:       m.Arrival.Reg.Intercept + math.Log(scale),
		ctx:     ctx,
		out:     &trace.Trace{Flavors: &trace.FlavorSet{Defs: m.flavorDefs()}, Periods: w.Periods()},
		prevTok: EOBToken(m.Flavor.K),
		prevBin: -1,
		arrF:    make([]float64, m.Arrival.featureDim()),
	}
	s.dohDay = m.Arrival.DOH.Sample(g)
	s.curDay = -1
	s.p = w.Start - 1
	s.startPeriod()
	return s
}

// startPeriod advances to the next period with at least one batch: on
// each new day it draws the day's DOH day (shared by all three stages
// for coherence), then the period's Poisson batch count. It parks the
// stream in phaseDone when the window is exhausted.
func (s *genStream) startPeriod() {
	m := s.m
	for s.p++; s.p < s.w.End; s.p++ {
		if d := trace.DayOfHistory(s.p); d != s.curDay {
			s.curDay = d
			s.dohDay = m.Arrival.DOH.Sample(s.g)
		}
		nBatches := s.g.Poisson(m.Arrival.rateInto(s.arrF, s.p, s.dohDay, s.b))
		if nBatches == 0 {
			continue
		}
		s.nBatches = nBatches
		s.spans = s.spans[:0]
		s.flavors = s.flavors[:0]
		s.curUser, s.curLo = s.nextUser, 0
		s.nextUser++
		s.jobs, s.eobCount = 0, 0
		s.phase = phaseFlavor
		return
	}
	s.phase = phaseDone
}

// encodeFlavor writes the next flavor-step input: the stream's previous
// token and the period's temporal features.
func (s *genStream) encodeFlavor(dst []float64) {
	s.m.Flavor.encodeFlavorInput(dst, s.prevTok, s.p, s.dohDay)
}

// consumeFlavor finishes one flavor step from the head logits: sample
// the token (softmax, then Categorical) and take it.
func (s *genStream) consumeFlavor(logits, probs []float64) {
	// Vectorized but bit-identical to nn.SoftmaxInto.
	nn.SoftmaxIntoVec(logits, probs)
	s.takeFlavor(s.g.Categorical(probs))
}

// takeFlavor records a sampled flavor token, after the max-jobs
// override (which forces EOB but has still spent the draw), and rolls
// the period machine forward.
func (s *genStream) takeFlavor(tok int) {
	m := s.m
	eob := EOBToken(m.Flavor.K)
	if s.jobs >= m.maxJobs() {
		tok = eob
	}
	s.prevTok = tok
	if tok != eob {
		s.flavors = append(s.flavors, tok)
		s.jobs++
		return
	}
	s.eobCount++
	// An EOB with no preceding jobs yields an empty batch, which is not
	// representable in the trace; it still counts toward the period's
	// batch total so generation terminates.
	if len(s.flavors) > s.curLo {
		s.spans = append(s.spans, genSpan{user: s.curUser, lo: s.curLo, hi: len(s.flavors)})
	}
	s.curUser, s.curLo = s.nextUser, len(s.flavors)
	s.nextUser++
	if s.eobCount < s.nBatches {
		return
	}
	if len(s.spans) == 0 {
		s.startPeriod()
		return
	}
	s.si, s.ji = 0, 0
	s.phase = phaseLifetime
}

// lifetimeStep returns the current job's step features.
func (s *genStream) lifetimeStep() LifetimeStep {
	b := s.spans[s.si]
	return LifetimeStep{
		Period:    s.p,
		Flavor:    s.flavors[b.lo+s.ji],
		BatchSize: b.hi - b.lo,
	}
}

// encodeLifetime writes the next lifetime-step input.
func (s *genStream) encodeLifetime(dst []float64) {
	s.m.Lifetime.encodeLifetimeInput(dst, s.lifetimeStep(), s.dohDay, s.prevBin, s.prevCens)
}

// consumeLifetime finishes one lifetime step: sample the bin, then the
// duration within it (a uniform draw unless Interp is Stepped), emit
// the VM, and advance the span cursors, returning to the period machine
// when the period's jobs are done.
func (s *genStream) consumeLifetime(logits, hz []float64) {
	m := s.m
	// Vectorized but bit-identical to nn.SigmoidInto.
	nn.SigmoidIntoVec(logits, hz)
	bin := survival.SampleBin(hz, s.g)
	s.prevBin, s.prevCens = bin, false
	var dur float64
	if m.Interp == survival.Stepped {
		dur = m.Lifetime.Bins.Hi(bin)
	} else {
		dur = s.g.Uniform(m.Lifetime.Bins.Lo(bin), m.Lifetime.Bins.Hi(bin))
	}
	b := s.spans[s.si]
	s.out.VMs = append(s.out.VMs, trace.VM{
		ID:       s.id,
		User:     b.user,
		Flavor:   s.flavors[b.lo+s.ji],
		Start:    s.p - s.w.Start,
		Duration: dur,
	})
	s.id++
	s.ji++
	if b.lo+s.ji >= b.hi {
		s.si++
		s.ji = 0
	}
	if s.si >= len(s.spans) {
		s.startPeriod()
	}
}

// fleetEngine advances a set of genStreams through shared batched
// fleet steps. Invariants: every live stream owns exactly one row in
// each fleet; each round steps every non-done stream exactly once
// (flavor and lifetime streams in two batched GEMM groups); done
// streams are retired at the end of the round with swap-remove row
// compaction mirrored into the owner tables.
type fleetEngine struct {
	m      *Model
	ff, lf nn.StepFleet // nn.Fleet[float64] or nn.Fleet32, per Precision

	streams []*genStream
	fOwner  []*genStream // flavor fleet row -> stream
	lOwner  []*genStream // lifetime fleet row -> stream

	// Per-round scratch.
	fReq, lReq, retired []*genStream
	rows                []int
	probs               []float64 // flavor softmax buffer, reused per stream
	hz                  []float64 // lifetime hazard buffer, reused per stream
}

func newFleetEngine(m *Model, capacity int, prec Precision) *fleetEngine {
	e := &fleetEngine{
		m:     m,
		probs: make([]float64, m.Flavor.K+1),
		hz:    make([]float64, m.Lifetime.Bins.J()),
	}
	e.ff, e.lf = m.newFleets(capacity, prec)
	return e
}

// newFleets is the one place decode fleets are built: the flavor and
// the lifetime fleet of one engine at prec, on panel-packed weights.
// Every engine steps what this returns, and so does ValidateF32's
// calibration, so the kernels validated at publish are the kernels
// served. It is safe for concurrent use: the Prepare* caches build
// under prepareMu.
func (m *Model) newFleets(capacity int, prec Precision) (flavor, lifetime nn.StepFleet) {
	if prec.normalize() == PrecisionF32 {
		w, p := m.PrepareF32(), m.PreparePackedF32()
		return w.Flavor.NewFleet32Packed(capacity, p.Flavor), w.Lifetime.NewFleet32Packed(capacity, p.Lifetime)
	}
	p := m.PreparePacked()
	return m.Flavor.Net.NewFleetPacked(capacity, p.Flavor), m.Lifetime.Net.NewFleetPacked(capacity, p.Lifetime)
}

func (e *fleetEngine) active() int { return len(e.streams) }

// admit registers a stream and assigns its fleet rows (zero state: a
// fresh stream's LSTMs start from zero, as in training).
func (e *fleetEngine) admit(s *genStream) {
	s.frow = e.ff.Admit()
	s.lrow = e.lf.Admit()
	e.streams = append(e.streams, s)
	e.fOwner = append(e.fOwner, nil)
	e.lOwner = append(e.lOwner, nil)
	e.fOwner[s.frow] = s
	e.lOwner[s.lrow] = s
}

// round advances every live stream by exactly one LSTM step and
// retires the ones that finished (or whose context was cancelled),
// returning them. The returned slice is reused by the next round.
func (e *fleetEngine) round() []*genStream {
	// Abort served streams whose client has gone away before spending
	// a step on them.
	for _, s := range e.streams {
		if s.phase != phaseDone && s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				s.err = err
				s.phase = phaseDone
			}
		}
	}
	e.fReq, e.lReq = e.fReq[:0], e.lReq[:0]
	for _, s := range e.streams {
		if s.phase == phaseDone {
			continue
		}
		if s.tr != nil {
			// Traced streams count the rounds they ride in and pin the
			// instant batching ended (their first step); untraced streams
			// pay one pointer test.
			if s.rounds == 0 {
				s.firstStep = time.Now()
			}
			s.rounds++
		}
		switch s.phase {
		case phaseFlavor:
			e.fReq = append(e.fReq, s)
		case phaseLifetime:
			e.lReq = append(e.lReq, s)
		}
	}
	// A stream that transitions phase mid-round waits for the next
	// round's batch of the other kind: group membership is fixed up
	// front, which keeps the step count per stream independent of the
	// batch's composition.
	if len(e.fReq) > 0 {
		e.rows = e.rows[:0]
		for i, s := range e.fReq {
			e.rows = append(e.rows, s.frow)
			s.encodeFlavor(e.ff.InputRow(i))
		}
		y := e.ff.Step(e.rows)
		for i, s := range e.fReq {
			s.consumeFlavor(y.Row(i), e.probs)
		}
	}
	if len(e.lReq) > 0 {
		e.rows = e.rows[:0]
		for i, s := range e.lReq {
			e.rows = append(e.rows, s.lrow)
			s.encodeLifetime(e.lf.InputRow(i))
		}
		y := e.lf.Step(e.rows)
		for i, s := range e.lReq {
			s.consumeLifetime(y.Row(i), e.hz)
		}
	}
	// Retire finished streams, compacting both fleets and the owner
	// tables in lockstep with the fleets' swap-remove.
	e.retired = e.retired[:0]
	for i := 0; i < len(e.streams); {
		s := e.streams[i]
		if s.phase != phaseDone {
			i++
			continue
		}
		if s.tr != nil {
			// Close out the stream's span pair: coalesce covers admission
			// to the first stepped round — the rest of the between-rounds
			// drain, since a round in flight when the request arrived is
			// queue time — and decode covers the stepped rounds. A stream
			// aborted before its first step gets an empty decode span
			// anchored at retirement.
			now := time.Now()
			first := s.firstStep
			if first.IsZero() {
				first = now
			}
			s.tr.Add("coalesce", s.admitted, first.Sub(s.admitted))
			s.tr.AddN("decode", first, now.Sub(first), s.rounds)
		}
		if moved := e.ff.Retire(s.frow); moved >= 0 {
			o := e.fOwner[moved]
			o.frow = s.frow
			e.fOwner[s.frow] = o
		}
		e.fOwner = e.fOwner[:len(e.fOwner)-1]
		if moved := e.lf.Retire(s.lrow); moved >= 0 {
			o := e.lOwner[moved]
			o.lrow = s.lrow
			e.lOwner[s.lrow] = o
		}
		e.lOwner = e.lOwner[:len(e.lOwner)-1]
		last := len(e.streams) - 1
		e.streams[i] = e.streams[last]
		e.streams = e.streams[:last]
		e.retired = append(e.retired, s)
	}
	return e.retired
}

// defaultMaxStreams bounds how many streams decode concurrently in one
// fleet. It is a memory and fairness cap, not a throughput knob: a
// step's cost per row is flat at any batch width (ROADMAP, "the
// batching puzzle"), so a wider fleet decodes no faster and a larger
// admission wave just delays first results.
const defaultMaxStreams = 64

// GenerateBatch decodes one trace per RNG through the continuous
// -batching engine on every core: the streams are dealt round-robin
// across one fleet per par worker (never more fleets than streams).
// Each returned trace is byte-identical to the one-stream
// m.Generate(gs[i], w) at any REPRO_PROCS: per shard, streams are
// admitted in order up to the fleet cap, retired as they finish, and
// replaced from the remaining queue every step. Implements
// BatchGenerator.
func (m *Model) GenerateBatch(gs []*rng.RNG, w trace.Window) []*trace.Trace {
	return m.generateBatchSharded(gs, w, 0, PrecisionF64)
}

// decodeQueue decodes the streams gs[first], gs[first+stride], ... to
// completion through one fleetEngine on the calling goroutine: they are
// admitted in that order up to the fleet cap, retired as they finish,
// and replaced from the remainder every round. Each finished trace
// lands in out at the stream's gs index, and no other slot of out is
// touched — which is what lets generateBatchSharded run one queue per
// residue class concurrently under the par contract. Model.Generate is
// the one-stream queue.
func (m *Model) decodeQueue(gs []*rng.RNG, first, stride int, w trace.Window, out []*trace.Trace, prec Precision) {
	n := (len(gs) - first + stride - 1) / stride
	if n <= 0 {
		return
	}
	capacity := min(n, defaultMaxStreams)
	e := newFleetEngine(m, capacity, prec)
	next, done := first, 0
	for done < n {
		for e.active() < capacity && next < len(gs) {
			s := m.newGenStream(gs[next], w, 1, nil)
			s.slot = next
			e.admit(s)
			next += stride
		}
		for _, s := range e.round() {
			out[s.slot] = s.out
			done++
		}
	}
}

// ErrEngineClosed is returned for requests submitted to (or queued on)
// an Engine that has been Closed.
var ErrEngineClosed = errors.New("core: decode engine closed")

type engineResult struct {
	tr  *trace.Trace
	err error
}

// Engine is the one serving decode scheduler: a goroutine that owns a
// fleetEngine. Concurrent Generate calls coalesce into its fleet, each
// stream advancing through the same batched step GEMMs while keeping
// its own RNG (so every response is byte-identical to the one-stream
// Model.Generate).
// Admission is continuous and is the only batching mechanism: requests
// that have queued join the fleet between rounds, and an idle engine
// steps a lone request in the round after it arrives — per-row cost is
// flat in batch width (DESIGN.md §6.2), so waiting for company buys
// nothing. NewGenEngine runs one Engine per core behind engineRouter
// (shard.go).
type Engine struct {
	m        *Model
	maxBatch int
	prec     Precision

	reqs chan *genStream
	quit chan struct{}
	wg   sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// newEngine starts one scheduler goroutine at prec; maxBatch caps
// concurrent streams (0: a default of 64).
func newEngine(m *Model, maxBatch int, prec Precision) *Engine {
	if maxBatch <= 0 {
		maxBatch = defaultMaxStreams
	}
	prec = prec.normalize()
	e := &Engine{
		m:        m,
		maxBatch: maxBatch,
		prec:     prec,
		reqs:     make(chan *genStream, 4*maxBatch),
		quit:     make(chan struct{}),
	}
	e.wg.Add(1)
	go e.loop()
	return e
}

// Generate decodes one trace through the shared batch, blocking until
// its stream retires. scale multiplies the arrival rate (0 means 1; a
// negative or non-finite scale is an error). It is safe for concurrent
// use; the result for a given (g, w, scale) is byte-identical to the
// one-stream Generate of Tilted(m, WhatIf{RateScale: scale}). On context
// cancellation the stream is aborted at the next fleet step and
// ctx.Err() is returned.
func (e *Engine) Generate(ctx context.Context, g *rng.RNG, w trace.Window, scale float64) (*trace.Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if scale = cmp.Or(scale, 1); !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("core: rate scale %v is not positive and finite", scale)
	}
	// A traced request's "queue" span starts here, so it still covers
	// the stream set-up below.
	tr := rtrace.FromContext(ctx)
	var submitted time.Time
	if tr != nil {
		submitted = time.Now()
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, ErrEngineClosed // before the stream exists: g is untouched
	}
	// The stream's up-front draws and first-period set-up run here, on
	// the caller's goroutine, so they never stall the streams the
	// scheduler is stepping.
	s := e.m.newGenStream(g, w, scale, ctx)
	s.done, s.tr, s.submitted = make(chan engineResult, 1), tr, submitted
	// Submitting under the read lock orders every send before Close's
	// drain: a request either gets a result or ErrEngineClosed, never
	// silence.
	select {
	case e.reqs <- s:
	case <-ctx.Done():
		e.mu.RUnlock()
		return nil, ctx.Err()
	}
	e.mu.RUnlock()
	res := <-s.done
	return res.tr, res.err
}

// Close stops admitting, finishes the in-flight streams, fails any
// queued requests with ErrEngineClosed, and waits for the scheduler
// to exit.
func (e *Engine) Close() {
	e.stop()
	e.wg.Wait()
}

// stop is the signalling half of Close: it returns without waiting for
// the scheduler, so the router can stop every shard before it waits on
// any and a drain costs the slowest shard rather than their sum.
func (e *Engine) stop() {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	e.mu.Unlock()
	if !already {
		close(e.quit)
	}
}

func (e *Engine) isClosed() bool {
	select {
	case <-e.quit:
		return true
	default:
		return false
	}
}

// admitReq moves a queued stream into the fleet unless its caller has
// already gone away. It runs on the scheduler goroutine, which is what
// keeps a traced stream's span writes on one goroutine: the time since
// Generate was called becomes its "queue" span.
func admitReq(fe *fleetEngine, s *genStream) {
	if err := s.ctx.Err(); err != nil {
		s.done <- engineResult{err: err}
		return
	}
	if s.tr != nil {
		now := time.Now()
		s.tr.Add("queue", s.submitted, now.Sub(s.submitted))
		s.admitted = now
	}
	fe.admit(s)
}

// loop is the scheduler: block for a request only when the fleet is
// empty, admit whatever else has queued without blocking, run one fleet
// round, deliver retirements, repeat. The idle and the busy case share
// the one non-blocking drain, so a lone request is stepped in the round
// after it arrives and latecomers join between rounds.
func (e *Engine) loop() {
	defer e.wg.Done()
	fe := newFleetEngine(e.m, e.maxBatch, e.prec)
	for {
		if fe.active() == 0 {
			select {
			case <-e.quit:
				e.drainQueue()
				return
			case s := <-e.reqs:
				admitReq(fe, s)
			}
		}
		// A closed engine finishes what it holds and admits no more.
		for admitting := !e.isClosed(); admitting && fe.active() < e.maxBatch; {
			select {
			case s := <-e.reqs:
				admitReq(fe, s)
			default:
				admitting = false
			}
		}
		for _, s := range fe.round() {
			s.done <- engineResult{tr: s.out, err: s.err}
		}
	}
}

// drainQueue fails every queued request after shutdown.
func (e *Engine) drainQueue() {
	for {
		select {
		case s := <-e.reqs:
			s.done <- engineResult{err: ErrEngineClosed}
		default:
			return
		}
	}
}

// Minibatch sharding: the deterministic data-parallel training driver.
//
// A minibatch of B independent sequences is split into fixed row-shards
// (ShardRows rows each — a constant, never a function of the worker
// count), and a window is one parallel region. Each shard encodes its
// rows straight into its scratch, runs forward, writes its loss
// gradients straight into its scratch and runs backward, on a shadow of
// the network that shares the weight tensors but owns private gradient
// buffers, so shards never race. Its scratch is an arena it borrows
// from the trainer's free list and hands back once its final state is
// copied out, so a fit holds at most min(par.Procs(), shards) arenas.
// What is constant over a window is computed once, by the region's
// first task while the shards encode, and shared read-only: the
// recurrent weights on panels and the transposed weights every shard's
// forward and backward multiply by. As shards finish, their gradients and losses are added into the real
// network in ascending shard order by whichever worker holds the commit
// role, overlapping the shards still running. The worker that commits
// the last shard runs the optimizer's serial start, and the region's
// last tasks — claimed only after every shard has been — wait for it
// and update disjoint chunks of the parameters. Because the shard
// layout and the reduction order are fixed and the update is
// elementwise, every trained weight — and so every generated trace — is
// bit-identical for any REPRO_PROCS.
//
// All per-window bookkeeping (row-view headers, loss/count
// accumulators, the window plan, the arenas) is allocated once per
// trainer and reused, keeping the steady-state window allocation-free.
// The arenas live and die with the trainer (DESIGN.md §6.3 says why).
package nn

import (
	"fmt"
	"sync"

	"repro/internal/mat"
	"repro/internal/par"
)

// ShardRows is the fixed row granularity of minibatch sharding. One row
// per shard maximizes available parallelism at the small batch sizes
// this repository trains with; determinism requires only that it never
// depend on the worker count.
const ShardRows = 1

// NumShards returns how many shards a batch of b rows splits into.
func NumShards(b int) int { return (b + ShardRows - 1) / ShardRows }

// adamChunks is how many update tasks a window's optimizer step is
// split into: a few, so every worker takes a share however the shards
// ended. Any split gives the same bits (Adam.update).
const adamChunks = 4

// ShardEncode writes the inputs of batch rows [lo, hi) at every step of
// the window into x, a zeroed [T·(hi-lo) x InputDim] slab whose block t
// is step t; padding rows are left zero. It is called concurrently for
// distinct row ranges and must write nothing but x.
type ShardEncode func(x *mat.Dense, lo, hi int)

// ShardLoss computes the loss of batch rows [lo, hi) from their per-step
// output logits ys and writes its gradient into dys, the same shapes:
// views of the shard's gradient slab, which it must fully write. It
// returns the summed loss, the contributing output count, and whether
// to run the backward pass (false, e.g., when the whole window carries
// no valid targets). It is called concurrently for distinct row ranges
// and must touch only row-[lo, hi) slices of caller state.
type ShardLoss func(lo, hi int, ys, dys []*mat.Dense) (loss float64, count int, backward bool)

// ShardDys is RunWindow's loss: ShardLoss with gradients in matrices of
// its own, nil to skip the backward pass.
type ShardDys func(lo, hi int, ys []*mat.Dense) (dys []*mat.Dense, loss float64, count int)

// shardViews is one shard's reusable bookkeeping: matrix headers
// re-pointed at the current window's state rows, and the per-step views
// of its gradient slab. Each shard owns its views exclusively.
type shardViews struct {
	hv, cv []mat.Dense  // headers over the shard rows of the state
	sH, sC []*mat.Dense // pointer slices over them, handed to forward
	sst    State        // shard state handed to forward
	dys    []*mat.Dense // per-step views of the gradient slab
}

// rowViews re-points the headers *hdr at rows [lo, hi) of each of ms
// and returns the pointer slice *ptr over them. forward replaces the
// pointer entries of a state with arena views, so the headers stay
// owned by the shard and are rebound next window.
func rowViews(hdr *[]mat.Dense, ptr *[]*mat.Dense, ms []*mat.Dense, lo, hi int) []*mat.Dense {
	n := len(ms)
	if cap(*hdr) < n {
		*hdr, *ptr = make([]mat.Dense, n), make([]*mat.Dense, n)
	}
	h, p := (*hdr)[:n], (*ptr)[:n]
	for i, m := range ms {
		c := m.Cols
		h[i] = mat.Dense{Rows: hi - lo, Cols: c, Data: m.Data[lo*c : hi*c]}
		p[i] = &h[i]
	}
	*hdr, *ptr = h, p
	return p
}

// Sharded drives sharded minibatch training of an LSTM. Shadows, shard
// bookkeeping and arenas are allocated once and reused across windows
// and epochs.
type Sharded struct {
	net     *LSTM
	shadows []*LSTM
	views   []*shardViews
	losses  []float64
	counts  []int
	plan    windowPlan // shared by every shard's forward and backward
	run     func(int)  // the region's task, made once so a window allocates none

	// The window Window is running, read by every task.
	steps  int
	st     *State
	enc    ShardEncode
	lossFn ShardLoss
	opt    *Adam

	// RunWindow's window and its adapters onto Window, made once.
	xs     []*mat.Dense
	dys    ShardDys
	xsEnc  ShardEncode
	xsLoss ShardLoss

	// Guarded by mu: the arenas no running shard holds (see takeArena),
	// the in-order commit (see commit): done[r] marks shard r finished,
	// next is the first shard not yet committed, and committing says a
	// worker holds the commit role; and the hand-offs between tasks:
	// planned says the plan is filled and the net's gradients zeroed,
	// started that the optimizer's serial start has run, failed that a
	// task panicked, and wake signals every change of the three. loss
	// and count are the committed shards' sums.
	mu         sync.Mutex
	wake       *sync.Cond
	free       []*arena
	done       []bool
	next       int
	committing bool
	planned    bool
	started    bool
	failed     bool
	loss       float64
	count      int
}

// NewSharded prepares a sharded trainer for batches of up to maxBatch
// rows.
func NewSharded(net *LSTM, maxBatch int) *Sharded {
	ns := NumShards(maxBatch)
	s := &Sharded{net: net, losses: make([]float64, ns), counts: make([]int, ns), done: make([]bool, ns)}
	for i := 0; i < ns; i++ {
		s.shadows = append(s.shadows, net.shadow())
		s.views = append(s.views, &shardViews{})
	}
	s.wake = sync.NewCond(&s.mu)
	s.run = s.task
	s.xsEnc, s.xsLoss = s.encodeXs, s.lossDys
	return s
}

// NewShardedLSTM is NewSharded for the frozen bench/ harness.
func NewShardedLSTM(net *LSTM, maxBatch int) *Sharded { return NewSharded(net, maxBatch) }

// Window runs one truncated-BPTT window of steps steps over the batch
// of st's rows as one parallel region: per shard, its rows' inputs by
// enc, forward from its rows of st, its loss gradients by loss,
// backward into the shard's private gradients, and its final state
// written back into st. The net's gradients are zeroed and the shards'
// are added into them in ascending shard order as they finish;
// losses and counts reduce in the same order. st is advanced in place
// exactly as a full-batch Forward would. With a non-nil opt the same
// region then takes one opt step over the reduced gradients, as
// opt.Step(net.Params()) after the window would, bit for bit. A window
// of no steps does nothing.
func (s *Sharded) Window(steps int, st *State, enc ShardEncode, loss ShardLoss, opt *Adam) (float64, int) {
	if steps == 0 {
		return 0, 0
	}
	rows := st.H[0].Rows
	ns := NumShards(rows)
	if ns > len(s.shadows) {
		panic(fmt.Sprintf("nn: Window batch %d exceeds prepared shards %d", rows, len(s.shadows)))
	}
	s.steps, s.st, s.enc, s.lossFn, s.opt = steps, st, enc, loss, opt
	s.done, s.next, s.committing, s.loss, s.count = s.done[:ns], 0, false, 0, 0
	s.planned, s.started, s.failed = false, false, false
	clear(s.done)
	tasks := 1 + ns
	if opt != nil {
		tasks += adamChunks
	}
	par.Do(tasks, s.run)
	s.st, s.enc, s.lossFn, s.opt = nil, nil, nil, nil
	return s.loss, s.count
}

// RunWindow runs Window over the inputs xs (one [B x InputDim] matrix a
// step) with the loss gradients dys returns, and steps no optimizer:
// each shard copies its rows of xs and of its gradients into its
// scratch.
func (s *Sharded) RunWindow(xs []*mat.Dense, st *State, dys ShardDys) (loss float64, count int) {
	s.xs, s.dys = xs, dys
	loss, count = s.Window(len(xs), st, s.xsEnc, s.xsLoss, nil)
	s.xs, s.dys = nil, nil
	return loss, count
}

// encodeXs is RunWindow's ShardEncode: rows [lo, hi) of every step of xs.
func (s *Sharded) encodeXs(x *mat.Dense, lo, hi int) {
	b, id := hi-lo, x.Cols
	for t, xt := range s.xs {
		if xt.Rows != s.st.H[0].Rows || xt.Cols != id {
			panic(fmt.Sprintf("nn: step %d input %v, want %dx%d", t, xt, s.st.H[0].Rows, id))
		}
		copy(x.Data[t*b*id:(t+1)*b*id], xt.Data[lo*id:hi*id])
	}
}

// lossDys is RunWindow's ShardLoss: the gradients dys returns, copied
// into the shard's slab.
func (s *Sharded) lossDys(lo, hi int, ys, dst []*mat.Dense) (float64, int, bool) {
	dys, loss, count := s.dys(lo, hi, ys)
	if dys == nil {
		return loss, count, false
	}
	if len(dys) != len(dst) {
		panic(fmt.Sprintf("nn: shard loss gave %d grads for %d steps", len(dys), len(dst)))
	}
	for t, dy := range dys {
		if !dy.SameShape(dst[t]) {
			panic(fmt.Sprintf("nn: shard loss step %d grad %v, want %v", t, dy, dst[t]))
		}
		copy(dst[t].Data, dy.Data)
	}
	return loss, count, true
}

// task is the region's task i: the plan, then shard i-1, then past the
// shards optimizer update chunk i-1-shards. A task that panics wakes
// the tasks waiting on another, so they stop waiting for a hand-off
// that will not come and par.Do can re-raise the panic.
func (s *Sharded) task(i int) {
	ok := false
	defer func() {
		if !ok {
			s.mu.Lock()
			s.failed = true
			s.wake.Broadcast()
			s.mu.Unlock()
		}
	}()
	switch ns := len(s.done); {
	case i == 0:
		s.fillPlan()
	case i <= ns:
		s.shard(i - 1)
	default:
		s.update(i - 1 - ns)
	}
	ok = true
}

// fillPlan refreshes the window plan from the net's weights and zeroes
// the net's gradients, then wakes the shards waiting to run forward.
// par.Do claims it first, so it overlaps the shards' encoding.
func (s *Sharded) fillPlan() {
	s.net.fillForward(&s.plan)
	s.net.fillBackward(&s.plan)
	s.net.ZeroGrads()
	s.mu.Lock()
	s.planned = true
	s.wake.Broadcast()
	s.mu.Unlock()
}

// await blocks until *flag, a hand-off guarded by mu, is set, and
// reports false instead if a task panicked first.
func (s *Sharded) await(flag *bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !*flag && !s.failed {
		s.wake.Wait()
	}
	return !s.failed
}

// shard is shard si's part of the current window: its rows' inputs
// encoded into a zeroed slab, then, once the plan is filled, forward on
// its shadow over them from their state, the loss gradients of rows [lo, hi) written into a slab,
// backward when asked for, and the commit. The shard holds an arena
// from its encoding until its final state is copied out; the commit
// reads the shadow's gradients and the shard's loss and count, none of
// which live in the arena.
func (s *Sharded) shard(si int) {
	lo := si * ShardRows
	hi := min(lo+ShardRows, s.st.H[0].Rows)
	b, T := hi-lo, s.steps
	sv, shadow := s.views[si], s.shadows[si]
	shadow.ZeroGrads()
	sv.sst.H = rowViews(&sv.hv, &sv.sH, s.st.H, lo, hi)
	sv.sst.C = rowViews(&sv.cv, &sv.sC, s.st.C, lo, hi)
	ar := s.takeArena()
	X := ar.slab(T*b, s.net.Cfg.InputDim, true)
	s.enc(X, lo, hi)
	if !s.await(&s.planned) {
		return
	}
	ys, cache := shadow.forward(ar, X, T, &sv.sst, &s.plan)
	DY := ar.slab(T*b, s.net.Cfg.OutputDim, false)
	dys := sv.dys[:0]
	for t := 0; t < T; t++ {
		dys = append(dys, ar.view(DY, t*b, (t+1)*b))
	}
	sv.dys = dys
	loss, count, backward := s.lossFn(lo, hi, ys, dys)
	if backward {
		shadow.backward(cache, DY, &s.plan)
	}
	s.losses[si], s.counts[si] = loss, count
	s.st.CopyRows(lo, hi, &sv.sst)
	s.commit(si, ar)
}

// takeArena pops a free arena, rewound, or makes one when running
// shards hold them all, so a trainer makes at most par.Procs(). Which
// arena a shard gets depends on scheduling and no result does: a shard
// reads only buffers it has cleared or fully written
// (TestWorkspaceWarmColdBitIdentical).
func (s *Sharded) takeArena() *arena {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return &arena{}
	}
	ar := s.free[n-1]
	s.free = s.free[:n-1]
	ar.reset()
	return ar
}

// commit marks shard si finished, puts its arena ar back on the free
// list and, unless another worker holds the commit role, takes it: it
// adds every consecutive finished shard from next on into the net —
// gradients, loss and count — in ascending
// order, the sequence ((0+P₀)+P₁)+… of a serial reduction after the
// fan-out, while the shards after them still run. The role is handed
// back under the lock that marks shards done, so a shard that finishes
// just as the committer stops finds the role free and commits itself;
// no worker ever waits for another's shard. The worker that commits the
// last shard runs the optimizer's serial start, if the window steps
// one, and wakes the update tasks.
func (s *Sharded) commit(si int, ar *arena) {
	s.mu.Lock()
	s.done[si] = true
	s.free = append(s.free, ar)
	if s.committing {
		s.mu.Unlock()
		return
	}
	s.committing = true
	for s.next < len(s.done) && s.done[s.next] {
		r := s.next
		s.mu.Unlock()
		params := s.net.Params()
		for pi, p := range s.shadows[r].Params() {
			mat.Add(params[pi].Grad.Data, p.Grad.Data)
		}
		s.loss += s.losses[r]
		s.count += s.counts[r]
		s.mu.Lock()
		s.next++
	}
	last := s.next == len(s.done)
	s.committing = false
	s.mu.Unlock()
	if last && s.opt != nil {
		s.opt.start(s.net.Params())
		s.mu.Lock()
		s.started = true
		s.wake.Broadcast()
		s.mu.Unlock()
	}
}

// update is optimizer update chunk k: once the serial start has run, it
// updates the k-th of adamChunks equal ranges of the net's parameters.
// par.Do claims it only after every shard, so no shard waits behind it.
func (s *Sharded) update(k int) {
	if n := s.net.NumParams(); s.await(&s.started) {
		s.opt.update(s.net.Params(), k*n/adamChunks, (k+1)*n/adamChunks)
	}
}

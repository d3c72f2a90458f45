// Minibatch sharding: the deterministic data-parallel training driver.
//
// A minibatch of B independent sequences is split into fixed row-shards
// (ShardRows rows each — a constant, never a function of the worker
// count). Each shard runs forward/backward on a shadow of the network
// that shares the weight tensors but owns private gradient buffers, so
// shards never race. Its scratch is an arena it borrows from the
// trainer's free list and hands back once its final state is copied
// out, so a fit holds one arena per shard running at once, at most
// min(par.Procs(), shards). What is constant over a window is computed
// once before the fan-out and shared read-only: the recurrent weights on
// panels and the transposed weights every shard's forward and backward
// multiply by; every shard runs the same kernels whatever its rows hold.
// As shards finish, the per-shard gradients and losses are added into
// the real network in ascending shard order by whichever worker holds
// the commit role, overlapping the shards still running. Because the shard layout and
// the reduction order are both fixed, every Adam update — and therefore
// every trained weight and every generated trace — is bit-identical for
// any REPRO_PROCS.
//
// All per-window bookkeeping (row-view headers for shard inputs and
// states, loss/count accumulators, the window plan, the arenas)
// is allocated once per trainer and reused each window, keeping the
// steady-state sharded training loop allocation-free. The arenas live
// and die with the trainer (DESIGN.md §6.3 says why they are not
// recycled between fits).
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

// ShardDys computes the loss gradient for shard rows [lo, hi) given the
// shard's per-step output logits. It returns the per-step gradients
// (nil to skip the backward pass, e.g. when the whole window carries no
// valid targets), the summed loss, and the contributing output count.
// It is called concurrently for different shards and must touch only
// row-[lo,hi) slices of caller state.
type ShardDys func(lo, hi int, ys []*mat.Dense) (dys []*mat.Dense, loss float64, count int)

// shardViews is one shard's reusable row-view bookkeeping: persistent
// matrix headers that are re-pointed at the current window's inputs and
// state rows, so the per-window fan-out performs no allocation. Each
// shard owns its views exclusively, preserving race freedom.
type shardViews struct {
	xv, hv, cv []mat.Dense  // headers over the shard rows of the inputs and the state
	xs, sH, sC []*mat.Dense // pointer slices over them, handed to forward
	sst        State        // shard state handed to forward
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

	// The window RunWindow is running, read by every shard.
	xs  []*mat.Dense
	st  *State
	dys ShardDys

	// Guarded by mu: the arenas no running shard holds (see takeArena),
	// and the in-order commit (see commit): done[r] marks shard r
	// finished, next is the first shard not yet committed, and
	// committing says a worker holds the commit role. loss and count
	// are the committed shards' sums.
	mu         sync.Mutex
	free       []*arena
	done       []bool
	next       int
	committing bool
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
	return s
}

// NewShardedLSTM is NewSharded for the frozen bench/ harness.
func NewShardedLSTM(net *LSTM, maxBatch int) *Sharded { return NewSharded(net, maxBatch) }

// RunWindow runs one truncated-BPTT window: per shard, forward over the
// row-sliced inputs from the row-sliced state, loss gradients via dys,
// backward into the shard's private gradients, and the shard's final
// state written back into st. The net's gradients are zeroed first and
// the shards' are added into them in ascending shard order as they
// finish; losses and counts reduce in the same order. st is advanced in
// place exactly as a full-batch Forward would.
func (s *Sharded) RunWindow(xs []*mat.Dense, st *State, dys ShardDys) (loss float64, count int) {
	if len(xs) == 0 {
		return 0, 0
	}
	ns := NumShards(xs[0].Rows)
	if ns > len(s.shadows) {
		panic(fmt.Sprintf("nn: RunWindow batch %d exceeds prepared shards %d", xs[0].Rows, len(s.shadows)))
	}
	s.net.fillForward(&s.plan)
	s.net.fillBackward(&s.plan)
	s.net.ZeroGrads()
	s.xs, s.st, s.dys = xs, st, dys
	s.done, s.next, s.loss, s.count = s.done[:ns], 0, 0, 0
	clear(s.done)
	par.Do(ns, s.shard)
	s.xs, s.st, s.dys = nil, nil, nil
	return s.loss, s.count
}

// shard is shard si's part of the current window: forward on its
// shadow over the shard rows from their state, the loss gradients of
// rows [lo, hi), backward when there are any, and the commit. The
// shard holds an arena from its forward pass until its final state is
// copied out; the commit reads the shadow's gradients and the shard's
// loss and count, none of which live in the arena.
func (s *Sharded) shard(si int) {
	lo := si * ShardRows
	hi := min(lo+ShardRows, s.xs[0].Rows)
	sv, shadow := s.views[si], s.shadows[si]
	shadow.ZeroGrads()
	sv.sst.H = rowViews(&sv.hv, &sv.sH, s.st.H, lo, hi)
	sv.sst.C = rowViews(&sv.cv, &sv.sC, s.st.C, lo, hi)
	ar := s.takeArena()
	ys, cache := shadow.forward(ar, rowViews(&sv.xv, &sv.xs, s.xs, lo, hi), &sv.sst, &s.plan)
	dys, loss, count := s.dys(lo, hi, ys)
	if dys != nil {
		shadow.backward(cache, dys, &s.plan)
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
// no worker ever waits for another's shard.
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
	s.committing = false
	s.mu.Unlock()
}

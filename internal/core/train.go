package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/features"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The one training driver (DESIGN.md §6.3.1). The paper trains every
// network with one recipe — teacher forcing, stateful truncated BPTT,
// Adam with clipping, a step LR schedule (§2.2–2.3, §4.2) — and §2.3.1
// and §7's ablations swap only the output head or the stream. RunBPTT
// is that recipe: the epoch loop and the window loop under it. A Train*
// function builds its model and network and describes what differs as
// a BPTTTask. The ablation fits in internal/experiments drive the same
// loop through the exported task.

// BPTTTask is everything that distinguishes one recurrent fit from
// another: the stream it is teacher-forced over and the loss on the
// head's logits. Stream positions t run over [0, n). NextTokenTask and
// LifetimeTask build one; WithHead sets a lifetime task's head.
type BPTTTask struct {
	n             int // stream length (tokens or jobs)
	inDim, outDim int
	// encode writes position t's input features into the zeroed row x.
	encode func(x []float64, t int)
	// outputs is the number of loss terms position t contributes — the
	// unit gradients are normalised in. nil means one per position.
	outputs func(t int) int
	// loss returns the summed loss of one shard at one step and writes
	// its gradient into dy. ts[r] is the stream position behind row r of
	// the logits y, or -1 for a padding row, which must get no loss and a
	// zero gradient. lo is the shard's first batch row, for tasks that
	// keep per-row scratch. Shards call it concurrently.
	loss func(lo int, ts []int, y, dy *mat.Dense) float64
	// dev, if non-nil, returns the teacher-forced development-set loss;
	// the best-scoring weights are restored when training ends.
	dev func() float64
}

// RunBPTT trains net — built from t.NetConfig(cfg) and drawn from the
// weight-init stream g, whose position rides in every checkpoint — on
// t's stream of the training trace tr, reporting under the obs model
// name model and checkpointing under files prefixed with it ('_'
// written '-'), by stateful truncated BPTT: the stream is cut into
// batch contiguous segments (segmentPlan), and each window continues
// every segment from the previous window's final state, so the state
// distribution seen in training matches long free-running generation.
// The first window of an epoch starts every segment from the zero
// state. Each epoch sets the step LR schedule's rate, trains every
// window, scores the development set when due, and emits telemetry and
// a checkpoint.
func (t BPTTTask) RunBPTT(cfg TrainConfig, tr *trace.Trace, model string, net *nn.LSTM, g *rng.RNG) {
	cfg = cfg.withDefaults()
	if t.n == 0 {
		return
	}
	if t.outputs == nil {
		t.outputs = func(int) int { return 1 }
	}
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	opt.ClipNorm = cfg.ClipNorm
	bestDev := math.Inf(1)
	var bestSnap []byte
	fingerprint := cfg.fingerprint(model, t.n, tr.Flavors.K(), HistoryDays(tr))
	ck := newTrainCheckpointer(cfg.Checkpoint, strings.ReplaceAll(model, "_", "-"), fingerprint)
	startEpoch := 0
	// Resume before anything captures references to the net's parameter
	// storage: UnmarshalBinary swaps it, so the sharded view (shadow
	// networks, shard views) is built afterwards.
	if w, ok := ck.resume(cfg.Checkpoint, net, opt); ok {
		if w.Done {
			return
		}
		startEpoch = w.EpochsDone
		bestDev, bestSnap = w.BestDev, w.BestSnap
	}

	plan := newSegmentPlan(t.n, cfg.SeqLen, cfg.BatchSize)
	sharded, st := nn.NewSharded(net, plan.batch), net.NewState(plan.batch)
	// Window buffers are allocated once and reused by every window of
	// every epoch: per step, the batch inputs, the stream position
	// behind each row, and one full-batch gradient slab with persistent
	// per-shard row views for the sharded backward pass. Each window
	// rewrites them completely. Only the last window can be short, so
	// the first is as long as any.
	maxWl := plan.windowLen(0)
	xs := make([]*mat.Dense, maxWl)
	pos := make([][]int, maxWl)
	dysFull := make([]*mat.Dense, maxWl)
	for s := range xs {
		xs[s] = mat.NewDense(plan.batch, t.inDim)
		pos[s] = make([]int, plan.batch)
		dysFull[s] = mat.NewDense(plan.batch, t.outDim)
	}
	shardDys := make([][]*mat.Dense, nn.NumShards(plan.batch))
	for si := range shardDys {
		lo := si * nn.ShardRows
		hi := min(lo+nn.ShardRows, plan.batch)
		shardDys[si] = make([]*mat.Dense, maxWl)
		for s := range shardDys[si] {
			shardDys[si][s] = dysFull[s].SliceRows(lo, hi)
		}
	}
	// Gradients are normalised by the window's loss-term count so the
	// learning rate is scale-free. The count is a function of the
	// targets alone, so it is tallied while encoding: each shard then
	// scales its own gradients and no cross-shard barrier sits between
	// the loss and the backward pass.
	var outputs int
	var norm float64
	shardLoss := func(lo, hi int, ys []*mat.Dense) ([]*mat.Dense, float64, int) {
		// Shards write disjoint row ranges of the shared slabs.
		dys := shardDys[lo/nn.ShardRows][:len(ys)]
		var loss float64
		for s, y := range ys {
			loss += t.loss(lo, pos[s][lo:hi], y, dys[s])
		}
		if outputs == 0 {
			return nil, loss, 0
		}
		for _, d := range dys {
			mat.Scale(norm, d.Data)
		}
		return dys, loss, 0
	}

	ec := newEpochClock(model, cfg)
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		opt.LR = cfg.stepLR(epoch)
		var totalLoss float64
		var total int
		for w := 0; w < plan.windows; w++ {
			wl := plan.windowLen(w)
			outputs = 0
			for s := 0; s < wl; s++ {
				x, ts := xs[s], pos[s]
				x.Zero()
				for row := range ts {
					p, ok := plan.step(row, w, s)
					if !ok {
						ts[row] = -1
						continue
					}
					ts[row] = p
					t.encode(x.Row(row), p)
					outputs += t.outputs(p)
				}
			}
			norm = 0
			if outputs > 0 {
				norm = 1 / float64(outputs)
			}
			if w == 0 {
				st.Zero()
			}
			loss, _ := sharded.RunWindow(xs[:wl], st, shardLoss)
			totalLoss += loss
			total += outputs
			if outputs > 0 {
				opt.Step(net.Params())
			}
		}
		var devLoss float64
		hasDev := t.dev != nil && ((epoch+1)%cfg.DevEvery == 0 || epoch == cfg.Epochs-1)
		if hasDev {
			devLoss = t.dev()
			if devLoss < bestDev {
				bestDev = devLoss
				if snap, err := net.MarshalBinary(); err == nil {
					bestSnap = snap
				}
			}
		}
		var mean float64
		if total > 0 {
			mean = totalLoss / float64(total)
		}
		ec.emit(epoch, mean, total, opt, devLoss, hasDev)
		ck.save(epoch+1, false, net, opt, bestDev, bestSnap, g.State())
	}
	if bestSnap != nil {
		if err := net.UnmarshalBinary(bestSnap); err != nil {
			panic(fmt.Sprintf("core: restore best %s snapshot: %v", model, err))
		}
	}
	ck.save(cfg.Epochs, true, net, opt, bestDev, bestSnap, g.State())
}

// HistoryDays is the training window's length in whole days (at least
// one): the span of the day-of-history feature block.
func HistoryDays(tr *trace.Trace) int {
	return max(int(tr.Days()+0.999), 1)
}

// NetConfig sizes t's network from cfg's hyperparameters (defaults
// filled in).
func (t BPTTTask) NetConfig(cfg TrainConfig) nn.Config {
	cfg = cfg.withDefaults()
	return nn.Config{InputDim: t.inDim, HiddenDim: cfg.Hidden, Layers: cfg.Layers, OutputDim: t.outDim}
}

// NextTokenTask is the stream half of a next-token fit over toks: the
// input at position t is the one-hot of the previous token (start
// before the first) over vocab classes plus the temporal features of
// t's period, and the loss is softmax cross-entropy on toks[t].Token.
func NextTokenTask(toks []FlavorToken, vocab, start int, temporal features.Temporal) BPTTTask {
	return BPTTTask{
		n:     len(toks),
		inDim: vocab + temporal.Dim(), outDim: vocab,
		encode: func(x []float64, t int) {
			prev := start
			if t > 0 {
				prev = toks[t-1].Token
			}
			features.OneHot(x[:vocab], prev)
			temporal.Encode(x[vocab:], toks[t].Period, trace.DayOfHistory(toks[t].Period))
		},
		loss: func(_ int, ts []int, y, dy *mat.Dense) float64 {
			var targets [nn.ShardRows]int
			var valid [nn.ShardRows]bool
			for r, t := range ts {
				if t >= 0 {
					targets[r], valid[r] = toks[t].Token, true
				}
			}
			loss, _ := nn.SoftmaxCEInto(y, targets[:len(ts)], valid[:len(ts)], dy)
			return loss
		},
	}
}

// LifetimeTask is the stream half of a lifetime fit over steps: the
// input at position t describes job t and the realized lifetime of job
// t-1 (§2.3.3). The caller adds the head (WithHead) and, for a loss
// with more than one term per job, outputs.
func LifetimeTask(steps []LifetimeStep, k int, temporal features.Temporal, lf features.LifetimeFeatures) BPTTTask {
	return BPTTTask{
		n:     len(steps),
		inDim: lifetimeInputDim(k, temporal, lf),
		encode: func(x []float64, t int) {
			prevBin, prevCens := -1, false
			if t > 0 {
				prevBin, prevCens = steps[t-1].Bin, steps[t-1].Censored
			}
			day := trace.DayOfHistory(steps[t].Period)
			EncodeLifetimeInput(x, k, temporal, lf, steps[t], day, prevBin, prevCens)
		},
	}
}

// WithHead returns t with an outDim-wide head trained on loss, under
// the contract of BPTTTask's loss field.
func (t BPTTTask) WithHead(outDim int, loss func(lo int, ts []int, y, dy *mat.Dense) float64) BPTTTask {
	t.outDim, t.loss = outDim, loss
	return t
}

package nn

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// snapshotGrads deep-copies every parameter gradient.
func snapshotGrads(params []*Param) []*mat.Dense {
	out := make([]*mat.Dense, len(params))
	for i, p := range params {
		out[i] = p.Grad.Clone()
	}
	return out
}

// runLSTMPass runs one ZeroGrads/Forward/Backward cycle and returns
// deep copies of the outputs and gradients.
func runLSTMPass(n *LSTM, xs []*mat.Dense, dys []*mat.Dense) ([]*mat.Dense, []*mat.Dense) {
	n.ZeroGrads()
	ys, cache := n.Forward(xs, nil)
	out := cloneAll(ys)
	n.Backward(cache, dys)
	return out, snapshotGrads(n.Params())
}

// TestWorkspaceWarmColdBitIdentical is the workspace-equivalence test:
// the first Forward/Backward on a fresh network runs on cold (newly
// grown) arenas, while later passes reuse warm buffers full of stale
// values. Reuse must be invisible — outputs and gradients bit-identical
// across repeated passes, including after interleaving a differently
// shaped pass that forces the arenas to re-slice their slabs.
func TestWorkspaceWarmColdBitIdentical(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(31))
	g := rng.New(32)
	const steps, batch = 5, 3
	xs := randInputs(g, steps, batch, 3)
	dys := make([]*mat.Dense, steps)
	for s := range dys {
		d := mat.NewDense(batch, 4)
		for i := range d.Data {
			d.Data[i] = g.NormFloat64()
		}
		dys[s] = d
	}
	coldYs, coldGrads := runLSTMPass(n, xs, dys)
	for pass := 0; pass < 3; pass++ {
		ys, grads := runLSTMPass(n, xs, dys)
		for s := range ys {
			for i := range ys[s].Data {
				if ys[s].Data[i] != coldYs[s].Data[i] {
					t.Fatalf("pass %d: output step %d differs from cold pass", pass, s)
				}
			}
		}
		for pi := range grads {
			for i := range grads[pi].Data {
				if grads[pi].Data[i] != coldGrads[pi].Data[i] {
					t.Fatalf("pass %d: grad %s differs from cold pass", pass, n.Params()[pi].Name)
				}
			}
		}
		// Force every slab to resize before the next pass so reuse has
		// to handle shape changes, not just identical replays.
		other := randInputs(g, steps+2, batch+1, 3)
		n.Forward(other, nil)
		n.Forward(other, nil)
	}
}

// TestWorkspaceFreeList verifies ReleaseWorkspace detaches the
// buffers, and that a network re-acquires a workspace lazily after
// release without changing results.
func TestWorkspaceFreeList(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(33))
	xs := randInputs(rng.New(34), 4, 2, 3)
	before, _ := n.Forward(xs, nil)
	want := cloneAll(before)
	if n.ws == nil {
		t.Fatal("Forward did not acquire a workspace")
	}
	n.ReleaseWorkspace()
	if n.ws != nil {
		t.Fatal("ReleaseWorkspace left the workspace attached")
	}
	after, _ := n.Forward(xs, nil)
	for s := range after {
		for i := range after[s].Data {
			if after[s].Data[i] != want[s].Data[i] {
				t.Fatal("re-acquired workspace changed outputs")
			}
		}
	}
	n.ReleaseWorkspace()
}

// The training shape: the fixture's flavor net (16 flavors + EOB, the
// 40 temporal features; hidden 24 x 2 layers) over a default BPTT
// window (core.TrainConfig's SeqLen 96 and BatchSize 8).
var fitCfg = Config{InputDim: 57, HiddenDim: 24, Layers: 2, OutputDim: 17}

const fitSteps, fitBatch = 96, 8

// fitInputs returns one training-shaped window of flavor-net inputs: a
// one-hot token and a one-hot temporal feature per row.
func fitInputs() []*mat.Dense {
	tokens := fitCfg.OutputDim
	xs := make([]*mat.Dense, fitSteps)
	for t := range xs {
		xs[t] = mat.NewDense(fitBatch, fitCfg.InputDim)
		for r := 0; r < fitBatch; r++ {
			xs[t].Set(r, (t+r)%tokens, 1)
			xs[t].Set(r, tokens+(7*t+r)%(fitCfg.InputDim-tokens), 1)
		}
	}
	return xs
}

// allocCase is one shape of the steady-state allocation pins, run under
// procs workers. A sharded window may allocate windowAllocs times: the
// method value s.shard RunWindow hands par.Do, and at two workers
// par.Do's spawn of them.
type allocCase struct {
	name         string
	cfg          Config
	xs           []*mat.Dense
	procs        int
	windowAllocs float64
}

func allocCases() []allocCase {
	return []allocCase{
		{"small", Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, randInputs(rng.New(40), 6, 4, 3), 1, 1},
		{"fit", fitCfg, fitInputs(), 2, 7},
	}
}

// countAllocs reports whether a pin asserts its count. Every shape's
// weight gradients take MulATB, whose pooled scratch race-mode
// sync.Pool.Put drops at random, so under -race the passes still run
// and only the count is left out (scripts/check.sh counts without it).
func countAllocs(t *testing.T) bool {
	if mat.RaceEnabled {
		t.Log("race-mode sync.Pool.Put randomly drops items, so pooled scratch allocates under the detector; allocation count skipped")
		return false
	}
	return true
}

// TestForwardBackwardSteadyStateAllocs pins the training hot path: once
// both arenas of the double-buffered workspace are grown, a full
// Forward/Backward cycle performs no allocation at all, at a small
// shape and at the training shape.
func TestForwardBackwardSteadyStateAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name, func(t *testing.T) {
			defer par.SetProcs(par.SetProcs(tc.procs))
			n := NewLSTM(tc.cfg, rng.New(39))
			dys := make([]*mat.Dense, len(tc.xs))
			for s := range dys {
				dys[s] = mat.NewDense(tc.xs[0].Rows, tc.cfg.OutputDim)
			}
			pass := func() {
				_, cache := n.Forward(tc.xs, nil)
				n.Backward(cache, dys)
			}
			pass()
			pass() // warm both arenas
			if !countAllocs(t) {
				return
			}
			if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
				t.Fatalf("steady-state Forward/Backward allocates %v times, want 0", allocs)
			}
		})
	}
}

// shardDys returns RunWindow's loss callback for xs's window: fixed
// random output gradients per one-row shard.
func shardDys(g *rng.RNG, xs []*mat.Dense, outDim int) ShardDys {
	perShard := make([][]*mat.Dense, xs[0].Rows)
	for si := range perShard {
		perShard[si] = randInputs(g, len(xs), 1, outDim)
	}
	return func(lo, hi int, ys []*mat.Dense) ([]*mat.Dense, float64, int) {
		return perShard[lo], 0, 0
	}
}

// TestShardedRunWindowSteadyStateAllocs pins the sharded training
// window. Nothing from the shards' forward/backward allocates — the gate
// scratch comes from the arena the shard takes from the trainer's free
// list, and the weight transposes every shard reads are the trainer's,
// refreshed in place before the fan-out — and the arena hand-off and
// the in-order commit only take a mutex, so what is left is the fan-out
// itself.
func TestShardedRunWindowSteadyStateAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name+"/lstm", func(t *testing.T) {
			defer par.SetProcs(par.SetProcs(tc.procs))
			net := NewLSTM(tc.cfg, rng.New(42))
			batch := tc.xs[0].Rows
			drv, st := NewSharded(net, batch), net.NewState(batch)
			dys := shardDys(rng.New(41), tc.xs, tc.cfg.OutputDim)
			run := func() { drv.RunWindow(tc.xs, st, dys) }
			run()
			run() // grow the trainer's arenas to the window's shapes
			if !countAllocs(t) {
				return
			}
			if allocs := testing.AllocsPerRun(20, run); allocs > tc.windowAllocs {
				t.Errorf("steady-state RunWindow allocates %v times, want <= %v", allocs, tc.windowAllocs)
			}
		})
	}
}

// TestShardedScratchPerWorker pins the trainer's scratch to the shards
// that run at once: after flavor- and lifetime-shaped windows at 1, 2
// and 8 workers, a full batch and a short one, the trainer holds at
// most min(procs, shards) arenas — exactly one at one worker, where
// the shards run one after another — all of them back on its free list.
func TestShardedScratchPerWorker(t *testing.T) {
	const windows, steps, batch, short = 2, 6, 8, 3
	for _, cfg := range []Config{
		{InputDim: 57, HiddenDim: 24, Layers: 2, OutputDim: 17},
		{InputDim: 151, HiddenDim: 24, Layers: 2, OutputDim: 47},
	} {
		xs := commitWindows(cfg.InputDim, windows, steps, batch)
		for _, procs := range []int{1, 2, 8} {
			for _, rows := range []int{batch, short} {
				func() {
					defer par.SetProcs(par.SetProcs(procs))
					net := NewLSTM(cfg, rng.New(46))
					drv, st := NewSharded(net, batch), net.NewState(rows)
					for w := range xs {
						win := make([]*mat.Dense, len(xs[w]))
						for s, x := range xs[w] {
							win[s] = x.SliceRows(0, rows)
						}
						drv.RunWindow(win, st, commitLoss(w))
					}
					got, bound := len(drv.free), min(procs, NumShards(rows))
					if procs == 1 && got != 1 || got > bound {
						t.Errorf("in %d, %d procs, %d rows: the trainer holds %d arenas, want at most %d (1 at one worker)",
							cfg.InputDim, procs, rows, got, bound)
					}
				}()
			}
		}
	}
}

// TestRunWindowIsOneRegion pins the training window's parallelism: at
// the training shape under two workers, the shard fan-out is the only
// parallel region one RunWindow opens — no kernel inside a shard forks
// one of its own.
func TestRunWindowIsOneRegion(t *testing.T) {
	defer par.SetProcs(par.SetProcs(2))
	xs := fitInputs()
	net := NewLSTM(fitCfg, rng.New(43))
	drv, st := NewSharded(net, fitBatch), net.NewState(fitBatch)
	dys := shardDys(rng.New(44), xs, fitCfg.OutputDim)
	before := par.Snapshot().Regions
	drv.RunWindow(xs, st, dys)
	if got := par.Snapshot().Regions - before; got != 1 {
		t.Fatalf("one RunWindow opened %d parallel regions, want 1", got)
	}
}

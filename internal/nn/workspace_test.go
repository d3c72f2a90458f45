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

// TestWorkspaceFreeList verifies ReleaseWorkspace returns the buffers
// to the shared pool: a released workspace is handed to the next
// network that asks, and a network re-acquires one lazily after
// release without changing results.
func TestWorkspaceFreeList(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(33))
	xs := randInputs(rng.New(34), 4, 2, 3)
	before, _ := n.Forward(xs, nil)
	want := cloneAll(before)
	ws := n.ws
	if ws == nil {
		t.Fatal("Forward did not acquire a workspace")
	}
	n.ReleaseWorkspace()
	if n.ws != nil {
		t.Fatal("ReleaseWorkspace left the workspace attached")
	}
	m := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(35))
	m.Forward(randInputs(rng.New(36), 3, 2, 3), nil)
	if m.ws != ws {
		t.Fatal("released workspace was not reused from the free list")
	}
	after, _ := n.Forward(xs, nil)
	for s := range after {
		for i := range after[s].Data {
			if after[s].Data[i] != want[s].Data[i] {
				t.Fatal("re-acquired workspace changed outputs")
			}
		}
	}
	releaseWorkspace(m.ws)
	n.ReleaseWorkspace()
}

// TestStepForwardAllocFree pins the streaming decode path: after the
// lazily sized scratch exists, StepForward must not allocate at all.
func TestStepForwardAllocFree(t *testing.T) {
	n := NewLSTM(Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, rng.New(37))
	st := n.NewState(1)
	x := []float64{0.1, -0.2, 0.3}
	n.StepForward(x, st) // size the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		n.StepForward(x, st)
	}); allocs != 0 {
		t.Fatalf("LSTM StepForward allocates %v times per step, want 0", allocs)
	}
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
// par.Do's spawn of them. The training shape's products take the packed
// kernels, whose pooled scratch the race detector makes lossy, so it
// skips under -race.
type allocCase struct {
	name         string
	cfg          Config
	xs           []*mat.Dense
	procs        int
	windowAllocs float64
	pooled       bool
}

func allocCases() []allocCase {
	return []allocCase{
		{"small", Config{InputDim: 3, HiddenDim: 5, Layers: 2, OutputDim: 4}, randInputs(rng.New(40), 6, 4, 3), 1, 1, false},
		{"fit", fitCfg, fitInputs(), 2, 7, true},
	}
}

func (c allocCase) skipRace(t *testing.T) {
	if c.pooled && mat.RaceEnabled {
		t.Skip("race-mode sync.Pool.Put randomly drops items, so pooled pack scratch allocates under the detector")
	}
}

// TestForwardBackwardSteadyStateAllocs pins the training hot path: once
// both arenas of the double-buffered workspace are grown, a full
// Forward/Backward cycle performs no allocation at all, at a small
// shape and at the training shape.
func TestForwardBackwardSteadyStateAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name, func(t *testing.T) {
			tc.skipRace(t)
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
// window. Nothing from the shards' Forward/Backward allocates — the gate
// scratch comes from each shadow's arena, and the weight transposes
// every shard reads are the trainer's, refreshed in place before the
// fan-out — and the in-order commit only takes a mutex, so what is left
// is the fan-out itself.
func TestShardedRunWindowSteadyStateAllocs(t *testing.T) {
	for _, tc := range allocCases() {
		t.Run(tc.name+"/lstm", func(t *testing.T) {
			tc.skipRace(t)
			defer par.SetProcs(par.SetProcs(tc.procs))
			net := NewLSTM(tc.cfg, rng.New(42))
			batch := tc.xs[0].Rows
			drv, st := NewSharded(net, batch), net.NewState(batch)
			dys := shardDys(rng.New(41), tc.xs, tc.cfg.OutputDim)
			run := func() { drv.RunWindow(tc.xs, st, dys) }
			run()
			run() // warm both arenas of every shadow
			if allocs := testing.AllocsPerRun(20, run); allocs > tc.windowAllocs {
				t.Errorf("steady-state RunWindow allocates %v times, want <= %v", allocs, tc.windowAllocs)
			}
		})
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

package nn

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// adamParams returns params of several shapes with random values,
// gradients and moments from seed.
func adamParams(seed int64) []*Param {
	g := rng.New(seed)
	var ps []*Param
	for i, sh := range [][2]int{{3, 5}, {1, 7}, {4, 4}, {1, 1}, {2, 9}} {
		p := newParam(fmt.Sprint("p", i), sh[0], sh[1])
		for _, m := range []*mat.Dense{p.Value, p.Grad, p.m} {
			for j := range m.Data {
				m.Data[j] = g.NormFloat64()
			}
		}
		for j := range p.v.Data {
			p.v.Data[j] = math.Abs(g.NormFloat64())
		}
		ps = append(ps, p)
	}
	return ps
}

// TestAdamChunkedMatchesStep pins the split of Adam.Step that a
// training window runs inside its region: one start, then updates over
// ranges of the parameters laid end to end — here uneven ones, an empty
// one, ranges that cut parameters and span several, in reverse order —
// give Step's values, moments, gradients, step count and norm bit for
// bit, with clipping triggered and not, and with weight decay on and
// off.
func TestAdamChunkedMatchesStep(t *testing.T) {
	cuts := []int{0, 4, 4, 17, 30, 41, 58, 1 << 20}
	for _, tc := range []struct {
		name     string
		clip, wd float64
	}{{"clipped", 0.5, 0.01}, {"unclipped", 1e9, 0.01}, {"noclip", 0, 0}, {"clipped-nodecay", 0.5, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			want, got := adamParams(7), adamParams(7)
			a, b := NewAdam(0.01), NewAdam(0.01)
			for _, o := range []*Adam{a, b} {
				o.ClipNorm, o.WeightDecay = tc.clip, tc.wd
			}
			clipped := false
			for step := 0; step < 3; step++ {
				a.Step(want)
				b.start(got)
				clipped = clipped || b.clip
				for k := len(cuts) - 2; k >= 0; k-- {
					b.update(got, cuts[k], cuts[k+1])
				}
				if a.t != b.t || math.Float64bits(a.lastNorm) != math.Float64bits(b.lastNorm) {
					t.Fatalf("step %d: t %d norm %v, Step's %d %v", step, b.t, b.lastNorm, a.t, a.lastNorm)
				}
				for i, p := range want {
					q := got[i]
					for _, m := range []struct {
						what      string
						got, want *mat.Dense
					}{{"value", q.Value, p.Value}, {"grad", q.Grad, p.Grad}, {"m", q.m, p.m}, {"v", q.v, p.v}} {
						sameBits(t, fmt.Sprintf("step %d %s %s", step, p.Name, m.what), m.got, m.want)
					}
				}
			}
			if wantClip := tc.clip == 0.5; clipped != wantClip {
				t.Fatalf("clipping triggered %v, want %v", clipped, wantClip)
			}
		})
	}
}

// TestWindowMatchesRunWindow pins the window entry training runs
// against the RunWindow adapter at 1, 2 and 8 workers: shards that
// encode their rows one by one and write their loss gradients straight
// into their scratch, with the Adam step inside the region, reach the
// weights, carried state, loss and count of RunWindow over the
// materialised inputs and gradients followed by opt.Step, bit for bit,
// over windows that clip and windows that do not.
func TestWindowMatchesRunWindow(t *testing.T) {
	const windows, steps, batch = 3, 5, 8
	for _, cfg := range []Config{
		{InputDim: 57, HiddenDim: 24, Layers: 2, OutputDim: 17},
		{InputDim: 151, HiddenDim: 24, Layers: 2, OutputDim: 47},
	} {
		xs := commitWindows(cfg.InputDim, windows, steps, batch)
		for _, procs := range []int{1, 2, 8} {
			func() {
				defer par.SetProcs(par.SetProcs(procs))
				type side struct {
					net *LSTM
					opt *Adam
					drv *Sharded
					st  *State
				}
				mk := func() side {
					net, opt := NewLSTM(cfg, rng.New(45)), NewAdam(0.05)
					opt.WeightDecay = 0.01
					return side{net, opt, NewSharded(net, batch), net.NewState(batch)}
				}
				ref, got := mk(), mk()
				var w int
				enc := func(x *mat.Dense, lo, hi int) {
					for s, xt := range xs[w] {
						for r := lo; r < hi; r++ {
							copy(x.Row(s*(hi-lo)+r-lo), xt.Row(r))
						}
					}
				}
				loss := func(lo, hi int, ys, dys []*mat.Dense) (float64, int, bool) {
					l, c := commitLossInto(w, lo, ys, dys)
					return l, c, true
				}
				for w = 0; w < windows; w++ {
					clip := []float64{1e-3, 1e9, 1e-3}[w]
					ref.opt.ClipNorm, got.opt.ClipNorm = clip, clip
					rl, rc := ref.drv.RunWindow(xs[w], ref.st, commitLoss(w))
					ref.opt.Step(ref.net.Params())
					gl, gc := got.drv.Window(steps, got.st, enc, loss, got.opt)
					where := fmt.Sprintf("in %d procs %d window %d", cfg.InputDim, procs, w)
					if math.Float64bits(gl) != math.Float64bits(rl) || gc != rc {
						t.Fatalf("%s: loss %v/%d, RunWindow %v/%d", where, gl, gc, rl, rc)
					}
					if got.opt.t != ref.opt.t || math.Float64bits(got.opt.lastNorm) != math.Float64bits(ref.opt.lastNorm) {
						t.Fatalf("%s: Adam t %d norm %v, want %d %v", where, got.opt.t, got.opt.lastNorm, ref.opt.t, ref.opt.lastNorm)
					}
					if clipped := ref.opt.lastNorm > clip; clipped != (w != 1) {
						t.Fatalf("%s: clipped %v", where, clipped)
					}
					for pi, p := range ref.net.Params() {
						sameBits(t, where+" "+p.Name, got.net.Params()[pi].Value, p.Value)
						sameBits(t, where+" "+p.Name+" grad", got.net.Params()[pi].Grad, p.Grad)
					}
					sameBitsAll(t, where+" h", got.st.H, ref.st.H)
					sameBitsAll(t, where+" c", got.st.C, ref.st.C)
				}
			}()
		}
	}
}

// TestWindowPanicReleasesUpdates pins the failure path of a window that
// steps an optimizer: the last shard panics late, after the other
// workers have claimed update tasks and wait for the optimizer's start,
// which will not come. They must be woken and the panic re-raised on
// the caller, not left hanging, at one worker and at several.
func TestWindowPanicReleasesUpdates(t *testing.T) {
	cfg := Config{InputDim: 5, HiddenDim: 4, Layers: 1, OutputDim: 3}
	for _, procs := range []int{1, 2, 8} {
		done := make(chan any)
		go func() {
			defer par.SetProcs(par.SetProcs(procs))
			defer func() { done <- recover() }()
			net := NewLSTM(cfg, rng.New(1))
			drv, st := NewSharded(net, 6), net.NewState(6)
			enc := func(*mat.Dense, int, int) {}
			loss := func(lo, _ int, _, dys []*mat.Dense) (float64, int, bool) {
				if lo == 5 {
					time.Sleep(50 * time.Millisecond)
					panic("shard 5")
				}
				for _, d := range dys {
					d.Zero()
				}
				return 0, 0, true
			}
			drv.Window(2, st, enc, loss, NewAdam(0.1))
		}()
		select {
		case r := <-done:
			if r != "shard 5" {
				t.Fatalf("procs %d: Window panicked with %v, want the shard's panic", procs, r)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("procs %d: Window did not return after a shard panicked", procs)
		}
	}
}

package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rng"
)

// TestShardedMatchesDirect pins the sharded window driver to the direct
// Forward/Backward path: final states must match exactly
// (forward math is per-row), and gradients to a tight relative
// tolerance. Gradients cannot match bit for bit: the direct path
// accumulates weight gradients row-interleaved per time step, while
// shards sum each row's full time series before the fixed-order
// reduction — a pure regrouping of the same terms. Cross-worker-count
// bit-identity is covered by the root determinism test instead.
func TestShardedMatchesDirect(t *testing.T) {
	defer par.SetProcs(par.SetProcs(1))
	const inDim, hidden, outDim, steps, batch = 7, 6, 5, 4, 3
	cfg := Config{InputDim: inDim, HiddenDim: hidden, Layers: 2, OutputDim: outDim}
	g := rng.New(2)
	xs := make([]*mat.Dense, steps)
	targets := make([][]int, steps)
	for s := range xs {
		x := mat.NewDense(batch, inDim)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[s] = x
		tg := make([]int, batch)
		for i := range tg {
			tg[i] = g.Intn(outDim)
		}
		targets[s] = tg
	}

	direct := NewLSTM(cfg, rng.New(1))
	stD := direct.NewState(batch)
	direct.ZeroGrads()
	ys, cache := direct.Forward(xs, stD)
	dys := make([]*mat.Dense, len(ys))
	for s, y := range ys {
		_, dys[s], _ = SoftmaxCE(y, targets[s], nil)
	}
	direct.Backward(cache, dys)

	sharded := NewLSTM(cfg, rng.New(1))
	stS := sharded.NewState(batch)
	NewSharded(sharded, batch).RunWindow(xs, stS, func(lo, hi int, sys []*mat.Dense) ([]*mat.Dense, float64, int) {
		sdys := make([]*mat.Dense, len(sys))
		for s, y := range sys {
			_, sdys[s], _ = SoftmaxCE(y, targets[s][lo:hi], nil)
		}
		return sdys, 0, 0
	})

	dp, sp := direct.Params(), sharded.Params()
	if len(dp) != len(sp) {
		t.Fatalf("param count %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		for j := range dp[i].Grad.Data {
			dv, sv := dp[i].Grad.Data[j], sp[i].Grad.Data[j]
			if diff := math.Abs(dv - sv); diff > 1e-12*(1+math.Abs(dv)) {
				t.Fatalf("param %s grad[%d]: direct %v sharded %v", dp[i].Name, j, dv, sv)
			}
		}
	}
	for name, pair := range map[string][2][]*mat.Dense{"H": {stD.H, stS.H}, "C": {stD.C, stS.C}} {
		for l := range pair[0] {
			for j, dv := range pair[0][l].Data {
				if sv := pair[1][l].Data[j]; math.Float64bits(dv) != math.Float64bits(sv) {
					t.Fatalf("state %s[%d][%d]: direct %v sharded %v", name, l, j, dv, sv)
				}
			}
		}
	}
}

// commitWindows returns windows of a net's inputs, steps × batch ×
// in: flavor-shaped (a one-hot token and a one-hot temporal feature of
// 57) or lifetime-shaped (a 40 % thermometer run of 151, like the
// hazard net's input).
func commitWindows(in, windows, steps, batch int) [][]*mat.Dense {
	out := make([][]*mat.Dense, windows)
	for w := range out {
		for s := 0; s < steps; s++ {
			x := mat.NewDense(batch, in)
			for r := 0; r < batch; r++ {
				row, k := x.Row(r), w*steps+s+3*r
				if in == 57 {
					row[k%17], row[17+k%40] = 1, 1
					continue
				}
				for j := 0; j < (2*in+4)/5; j++ {
					row[(j+k)%in] = 1
				}
			}
			out[w] = append(out[w], x)
		}
	}
	return out
}

// commitLoss is the ShardDys of window w: softmax cross-entropy on a
// rotating target for a 17-wide head, masked BCE on a hazard-style
// target and mask (bins up to the event) otherwise.
func commitLoss(w int) ShardDys {
	return func(lo, hi int, ys []*mat.Dense) ([]*mat.Dense, float64, int) {
		dys := make([]*mat.Dense, len(ys))
		var loss float64
		var count int
		for s, y := range ys {
			dys[s] = mat.NewDense(y.Rows, y.Cols)
			var l float64
			var c int
			if y.Cols == 17 {
				targets := make([]int, y.Rows)
				for r := range targets {
					targets[r] = (5*w + s + lo + r) % y.Cols
				}
				l, c = SoftmaxCEInto(y, targets, nil, dys[s])
			} else {
				tg, mk := mat.NewDense(y.Rows, y.Cols), mat.NewDense(y.Rows, y.Cols)
				for r := 0; r < y.Rows; r++ {
					event := (11*w + 3*s + lo + r) % y.Cols
					for j := 0; j <= event; j++ {
						mk.Set(r, j, 1)
					}
					tg.Set(r, event, 1)
				}
				l, c = MaskedBCEWithLogitsInto(y, tg, mk, dys[s])
			}
			loss += l
			count += c
		}
		return dys, loss, count
	}
}

// commitStep is one window's reduced result: the net's gradients, the
// carried state, and the summed loss and count.
type commitStep struct {
	grads []*mat.Dense
	h, c  []*mat.Dense
	loss  float64
	count int
}

func snapshotCommit(n *LSTM, st *State, loss float64, count int) commitStep {
	return commitStep{snapshotGrads(n.Params()), cloneAll(st.H), cloneAll(st.C), loss, count}
}

// serialCommitReference is the window driver spelled out serially: per
// one-row shard, a shadow's direct Forward and Backward (which
// transposes the weights itself), then the shards' gradients added
// into the zeroed net in ascending order, and an Adam step between
// windows.
func serialCommitReference(cfg Config, windows [][]*mat.Dense) []commitStep {
	net, opt := NewLSTM(cfg, rng.New(45)), NewAdam(0.05)
	batch := windows[0][0].Rows
	st := net.NewState(batch)
	shadows := make([]*LSTM, batch)
	for r := range shadows {
		shadows[r] = net.shadow()
	}
	var out []commitStep
	for w, xs := range windows {
		var loss float64
		var count int
		for r, sh := range shadows {
			sh.ZeroGrads()
			rx := make([]*mat.Dense, len(xs))
			for s, x := range xs {
				rx[s] = x.SliceRows(r, r+1)
			}
			rst := &State{}
			for l := range st.H {
				rst.H = append(rst.H, st.H[l].SliceRows(r, r+1).Clone())
				rst.C = append(rst.C, st.C[l].SliceRows(r, r+1).Clone())
			}
			ys, cache := sh.Forward(rx, rst)
			dys, l, c := commitLoss(w)(r, r+1, ys)
			sh.Backward(cache, dys)
			st.CopyRows(r, r+1, rst)
			loss += l
			count += c
		}
		net.ZeroGrads()
		for _, sh := range shadows {
			for pi, p := range sh.Params() {
				mat.Axpy(1, p.Grad.Data, net.Params()[pi].Grad.Data)
			}
		}
		out = append(out, snapshotCommit(net, st, loss, count))
		opt.Step(net.Params())
	}
	return out
}

// TestRunWindowCommitOrderAnyProcs pins the in-order commit and the
// per-window transposed weights: over several windows with an Adam step
// between them, on a flavor-shaped and a lifetime-shaped net, the
// reduced gradients, carried state, loss and count of RunWindow at 1, 2
// and 8 workers are the serial reference's bit for bit. The Adam step
// moves the weights under the window driver, so a transposed-weight
// cache that went stale would show from the second window on.
func TestRunWindowCommitOrderAnyProcs(t *testing.T) {
	const windows, steps, batch = 3, 6, 8
	for _, cfg := range []Config{
		{InputDim: 57, HiddenDim: 24, Layers: 2, OutputDim: 17},
		{InputDim: 151, HiddenDim: 24, Layers: 2, OutputDim: 47},
	} {
		xs := commitWindows(cfg.InputDim, windows, steps, batch)
		want := serialCommitReference(cfg, xs)
		for _, procs := range []int{1, 2, 8} {
			func() {
				defer par.SetProcs(par.SetProcs(procs))
				net, opt := NewLSTM(cfg, rng.New(45)), NewAdam(0.05)
				drv, st := NewSharded(net, batch), net.NewState(batch)
				for w := range xs {
					loss, count := drv.RunWindow(xs[w], st, commitLoss(w))
					got, ref := snapshotCommit(net, st, loss, count), want[w]
					where := func(what string) string {
						return fmt.Sprintf("in %d procs %d window %d %s", cfg.InputDim, procs, w, what)
					}
					if math.Float64bits(got.loss) != math.Float64bits(ref.loss) || got.count != ref.count {
						t.Fatalf("%s: %v/%d, serial %v/%d", where("loss"), got.loss, got.count, ref.loss, ref.count)
					}
					for pi, p := range net.Params() {
						sameBits(t, where(p.Name), got.grads[pi], ref.grads[pi])
					}
					for l := range got.h {
						sameBits(t, where("h"), got.h[l], ref.h[l])
						sameBits(t, where("c"), got.c[l], ref.c[l])
					}
					opt.Step(net.Params())
				}
			}()
		}
	}
}

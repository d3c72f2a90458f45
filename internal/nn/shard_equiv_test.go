package nn

import (
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

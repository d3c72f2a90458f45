package nn

import (
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// GRU is a stacked gated-recurrent-unit network with a linear output
// head — the lighter-weight cell of §7's architecture ablation. It is
// the LSTM's layer stack with a different cell: gate order within the
// 3H dimension is reset (r), update (z), candidate (n), and its State
// carries no C. Forward/Backward scratch comes from the same per-network
// Workspace under the same validity and reentrancy rules.
type GRU struct{ stack }

// NewGRU constructs a GRU network with Xavier-uniform weights.
func NewGRU(cfg Config, g *rng.RNG) *GRU { return &GRU{newStack(cfg, g, false)} }

// GRUCache is the GRU's forward cache, with seqCache's arena validity
// and sequence-fused layout.
type GRUCache struct {
	seqCache
	r, z, c []*mat.Dense // per layer gate/candidate activations [T·B x H]
	rh      []*mat.Dense // per layer cached zh_n (candidate recurrent pre-gate) [T·B x H]
}

// gruCache returns the arena's embedded GRUCache, resized for nl layers.
func (a *arena) gruCache(nl int) *GRUCache {
	c := &a.gCache
	fitLayers(nl, &c.h, &c.r, &c.z, &c.c, &c.rh)
	return c
}

// Forward runs the network over xs, mirroring LSTM.Forward (including
// the workspace validity contract on everything it returns).
func (n *GRU) Forward(xs []*mat.Dense, st *State) ([]*mat.Dense, *GRUCache) {
	if len(xs) == 0 {
		return nil, &GRUCache{}
	}
	ar := n.workspace().flip()
	cache := ar.gruCache(len(n.layers))
	n.begin(&cache.seqCache, ar, xs)
	T, b, h := cache.steps, cache.batch, n.Cfg.HiddenDim
	var sH []*mat.Dense
	if st != nil {
		sH = st.H
	}

	layerX := cache.x
	for l, layer := range n.layers {
		H := stateSlab(ar, sH, l, T, b, h)
		R := ar.slab(T*b, h, false)
		Zg := ar.slab(T*b, h, false)
		Cc := ar.slab(T*b, h, false)
		RH := ar.slab(T*b, h, false)
		// zx = x Wx + bias for the whole sequence in one fused GEMM;
		// zh = hPrev Wh per step (candidate recurrent term needs the
		// reset gate applied after Wh's n-block, so blocks stay split).
		ZX := ar.slab(T*b, 3*h, true)
		layer.project(ZX, layerX)
		mat.AddBiasRows(ZX, layer.b.Value.Row(0))
		zh := ar.slab(b, 3*h, false)
		for t := 0; t < T; t++ {
			zxt := ar.view(ZX, t*b, (t+1)*b)
			hPrev := ar.view(H, t*b, (t+1)*b)
			zh.Zero()
			mat.MulAdd(zh, hPrev, layer.wh.Value)
			for row := 0; row < b; row++ {
				gRow := t*b + row
				zxr, zhr := zxt.Row(row), zh.Row(row)
				rr, zr, cr := R.Row(gRow), Zg.Row(gRow), Cc.Row(gRow)
				hp, hr, rhr := H.Row(gRow), H.Row(gRow+b), RH.Row(gRow)
				// Gate nonlinearities via the vectorized activations, in
				// place on the cache rows: per element exactly
				// StepForward's scalar expressions.
				for j := 0; j < h; j++ {
					rr[j] = zxr[j] + zhr[j]
					zr[j] = zxr[h+j] + zhr[h+j]
				}
				mat.SigmoidSlice(rr, rr)
				mat.SigmoidSlice(zr, zr)
				// Candidate: n = tanh(zx_n + r ⊙ zh_n) — the "v3" GRU
				// variant (also used by cuDNN) where the reset gate
				// applies after the recurrent matmul; rh stashes zh_n
				// for the gradient of Wh's n-block.
				for j := 0; j < h; j++ {
					rhr[j] = zhr[2*h+j]
					cr[j] = zxr[2*h+j] + rr[j]*zhr[2*h+j]
				}
				mat.TanhSlice(cr, cr)
				for j := 0; j < h; j++ {
					hr[j] = (1-zr[j])*cr[j] + zr[j]*hp[j]
				}
			}
		}
		cache.h[l] = H
		cache.r[l], cache.z[l] = R, Zg
		cache.c[l], cache.rh[l] = Cc, RH
		if st != nil {
			st.H[l] = ar.view(H, T*b, (T+1)*b)
		}
		layerX = ar.view(H, b, (T+1)*b)
	}
	return n.head(&cache.seqCache, layerX), cache
}

// Backward runs truncated backpropagation through time, accumulating
// parameter gradients via sequence-fused GEMMs like LSTM.Backward.
func (n *GRU) Backward(cache *GRUCache, dys []*mat.Dense) {
	DH := n.headBackward(&cache.seqCache, dys)
	if DH == nil {
		return
	}
	T, b, h, ar := cache.steps, cache.batch, n.Cfg.HiddenDim, cache.ar
	DZX := ar.slab(T*b, 3*h, false) // fully written per layer
	DZH := ar.slab(T*b, 3*h, false)
	dpg := ar.slab(b, h, false)   // gate-path gradient to hPrev at step t
	dhrec := ar.slab(b, h, false) // carried recurrent hidden gradient
	whT := ar.slab(3*h, h, false) // whᵀ of the current layer (see LSTM.Backward)
	for l := len(n.layers) - 1; l >= 0; l-- {
		HP := cache.h[l]
		R, Zg, Cc, RH := cache.r[l], cache.z[l], cache.c[l], cache.rh[l]
		dhrec.Zero()
		mat.TransposeInto(whT, n.layers[l].wh.Value)
		for t := T - 1; t >= 0; t-- {
			dpg.Zero()
			for row := 0; row < b; row++ {
				gRow := t*b + row
				dhr, recRow := DH.Row(gRow), dhrec.Row(row)
				rr, zr, cr := R.Row(gRow), Zg.Row(gRow), Cc.Row(gRow)
				hp, zhn := HP.Row(gRow), RH.Row(gRow) // HP block t = hPrev
				dzxr, dzhr := DZX.Row(gRow), DZH.Row(gRow)
				dhp := dpg.Row(row)
				for j := 0; j < h; j++ {
					dH := dhr[j] + recRow[j]
					// h = (1-z)*c + z*hPrev
					dz := dH * (hp[j] - cr[j])
					dc := dH * (1 - zr[j])
					dhp[j] += dH * zr[j]
					// c = tanh(zx_n + r*zh_n)
					dPre := dc * (1 - cr[j]*cr[j])
					dzxr[2*h+j] = dPre
					dr := dPre * zhn[j]
					dzhr[2*h+j] = dPre * rr[j]
					// gates
					dzr := dz * zr[j] * (1 - zr[j])
					dzxr[h+j] = dzr
					dzhr[h+j] = dzr
					drr := dr * rr[j] * (1 - rr[j])
					dzxr[j] = drr
					dzhr[j] = drr
				}
			}
			// dhPrev = gate term + dzh Whᵀ, carried into step t-1.
			if t > 0 {
				dzht := ar.view(DZH, t*b, (t+1)*b)
				dhrec.Zero()
				mat.MulAdd(dhrec, dzht, whT)
				mat.Axpy(1, dpg.Data, dhrec.Data)
			}
		}
		n.layerGrads(&cache.seqCache, l, DZX, DZH, DH)
	}
}

// StepForward runs one batch-1 inference step; the returned logits are
// valid until the next StepForward on the same state. Safe to call
// concurrently on one network with distinct states.
func (n *GRU) StepForward(x []float64, st *State) []float64 {
	in := n.stepIn(x, st, 3)
	h := n.Cfg.HiddenDim
	for l, layer := range n.layers {
		zx, zh := st.z, st.zh
		zx.Zero()
		layer.project(zx, in)
		mat.AddBiasRows(zx, layer.b.Value.Row(0))
		zh.Zero()
		mat.MulAdd(zh, st.H[l], layer.wh.Value)
		zxr, zhr := zx.Row(0), zh.Row(0)
		hrow := st.H[l].Row(0)
		for j := 0; j < h; j++ {
			rj := sigmoid(zxr[j] + zhr[j])
			zj := sigmoid(zxr[h+j] + zhr[h+j])
			cj := math.Tanh(zxr[2*h+j] + rj*zhr[2*h+j])
			hrow[j] = (1-zj)*cj + zj*hrow[j]
		}
		in = st.H[l]
	}
	return n.stepOut(st)
}

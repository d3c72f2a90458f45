package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// GRU is a stacked gated-recurrent-unit network with a linear output
// head — a lighter-weight alternative recurrent architecture (§7 of the
// paper discusses architecture choice; the GRU ablation bench compares
// it against the LSTM). The API mirrors LSTM: Forward/Backward over
// step-major minibatches, StepForward for generation. Like the LSTM,
// Forward/Backward scratch comes from a per-network Workspace and the
// same validity/reentrancy rules apply.
type GRU struct {
	Cfg    Config
	layers []*gruLayer
	wy     *Param
	by     *Param
	params []*Param
	ws     *Workspace // Forward/Backward scratch arenas, lazily acquired
}

// gruLayer holds one layer's parameters. Gate order within the 3H
// dimension is reset (r), update (z), candidate (n).
type gruLayer struct {
	in, hidden int
	first      bool   // layer 0: input may be a sparse feature encoding
	wx         *Param // [in x 3H]
	wh         *Param // [H x 3H]
	b          *Param // [1 x 3H]
}

// NewGRU constructs a GRU network with Xavier-uniform weights.
func NewGRU(cfg Config, g *rng.RNG) *GRU {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	n := &GRU{Cfg: cfg}
	in := cfg.InputDim
	for l := 0; l < cfg.Layers; l++ {
		layer := &gruLayer{
			in:     in,
			hidden: cfg.HiddenDim,
			first:  l == 0,
			wx:     newParam(fmt.Sprintf("g%d.wx", l), in, 3*cfg.HiddenDim),
			wh:     newParam(fmt.Sprintf("g%d.wh", l), cfg.HiddenDim, 3*cfg.HiddenDim),
			b:      newParam(fmt.Sprintf("g%d.b", l), 1, 3*cfg.HiddenDim),
		}
		xavierInit(layer.wx.Value, in, cfg.HiddenDim, g)
		xavierInit(layer.wh.Value, cfg.HiddenDim, cfg.HiddenDim, g)
		n.layers = append(n.layers, layer)
		n.params = append(n.params, layer.wx, layer.wh, layer.b)
		in = cfg.HiddenDim
	}
	n.wy = newParam("ghead.wy", cfg.HiddenDim, cfg.OutputDim)
	n.by = newParam("ghead.by", 1, cfg.OutputDim)
	xavierInit(n.wy.Value, cfg.HiddenDim, cfg.OutputDim, g)
	n.params = append(n.params, n.wy, n.by)
	return n
}

// Params returns all learnable parameters.
func (n *GRU) Params() []*Param { return n.params }

// ZeroGrads clears gradients.
func (n *GRU) ZeroGrads() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// GRUState holds per-layer hidden activations. The same aliasing rules
// as LSTM State apply: after Forward the entries view the workspace;
// StepForward updates them in place using state-owned scratch.
type GRUState struct {
	H []*mat.Dense

	zx, zh, y *mat.Dense // StepForward scratch, lazily sized
	xh        mat.Dense
}

// NewState returns a zero state for batch size b.
func (n *GRU) NewState(b int) *GRUState {
	s := &GRUState{}
	for range n.layers {
		s.H = append(s.H, mat.NewDense(b, n.Cfg.HiddenDim))
	}
	return s
}

// GRUCache is the forward cache; like the LSTM Cache it lives in the
// workspace arena of the Forward call that filled it, sequence-fused
// into row-block slabs.
type GRUCache struct {
	steps int
	batch int
	ar    *arena

	x       *mat.Dense   // packed layer-0 input [T·B x InputDim]
	h       []*mat.Dense // per layer [(T+1)·B x H]; block 0 is the initial state
	r, z, c []*mat.Dense // per layer gate/candidate activations [T·B x H]
	rh      []*mat.Dense // per layer cached zh_n (candidate recurrent pre-gate) [T·B x H]
	ys      []*mat.Dense
}

// T returns the cached step count.
func (c *GRUCache) T() int { return c.steps }

// gruCache returns the arena's embedded GRUCache, resized for nl layers.
func (a *arena) gruCacheFor(nl int) *GRUCache {
	c := &a.gruCache
	c.ar = a
	c.x = nil
	if cap(c.h) < nl {
		c.h = make([]*mat.Dense, nl)
		c.r = make([]*mat.Dense, nl)
		c.z = make([]*mat.Dense, nl)
		c.c = make([]*mat.Dense, nl)
		c.rh = make([]*mat.Dense, nl)
	}
	c.h, c.r, c.z = c.h[:nl], c.r[:nl], c.z[:nl]
	c.c, c.rh = c.c[:nl], c.rh[:nl]
	return c
}

// Forward runs the network over xs, mirroring LSTM.Forward (including
// the workspace validity contract on everything it returns).
func (n *GRU) Forward(xs []*mat.Dense, st *GRUState) ([]*mat.Dense, *GRUCache) {
	if len(xs) == 0 {
		return nil, &GRUCache{}
	}
	T := len(xs)
	b := xs[0].Rows
	h := n.Cfg.HiddenDim
	id := n.Cfg.InputDim
	nl := len(n.layers)
	ar := n.workspace().flip()
	cache := ar.gruCacheFor(nl)
	cache.steps, cache.batch = T, b

	X := ar.slab(T*b, id, false)
	for t, x := range xs {
		copy(X.Data[t*b*id:(t+1)*b*id], x.Data)
	}
	cache.x = X

	layerX := X
	for l, layer := range n.layers {
		H := ar.slab((T+1)*b, h, false)
		if st != nil {
			if st.H[l].Rows != b || st.H[l].Cols != h {
				panic(fmt.Sprintf("nn: GRU state layer %d is %dx%d, want %dx%d", l, st.H[l].Rows, st.H[l].Cols, b, h))
			}
			copy(H.Data[:b*h], st.H[l].Data)
		} else {
			clear(H.Data[:b*h])
		}
		R := ar.slab(T*b, h, false)
		Zg := ar.slab(T*b, h, false)
		Cc := ar.slab(T*b, h, false)
		RH := ar.slab(T*b, h, false)
		// zx = x Wx + bias for the whole sequence in one fused GEMM;
		// zh = hPrev Wh per step (candidate recurrent term needs the
		// reset gate applied after Wh's n-block, so blocks stay split).
		ZX := ar.slab(T*b, 3*h, true)
		if layer.first {
			mat.MulAddSparse(ZX, layerX, layer.wx.Value)
		} else {
			mat.MulAdd(ZX, layerX, layer.wx.Value)
		}
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

	Y := ar.slab(T*b, n.Cfg.OutputDim, true)
	mat.MulAdd(Y, layerX, n.wy.Value)
	mat.AddBiasRows(Y, n.by.Value.Row(0))
	ys := cache.ys[:0]
	for t := 0; t < T; t++ {
		ys = append(ys, ar.view(Y, t*b, (t+1)*b))
	}
	cache.ys = ys
	return ys, cache
}

// Backward runs truncated backpropagation through time, accumulating
// parameter gradients via sequence-fused GEMMs like LSTM.Backward.
func (n *GRU) Backward(cache *GRUCache, dys []*mat.Dense) {
	if len(dys) != cache.T() {
		panic(fmt.Sprintf("nn: GRU Backward got %d grads for %d steps", len(dys), cache.T()))
	}
	if cache.T() == 0 {
		return
	}
	T := cache.steps
	b := cache.batch
	h := n.Cfg.HiddenDim
	od := n.Cfg.OutputDim
	nl := len(n.layers)
	ar := cache.ar

	DY := ar.slab(T*b, od, false)
	for t, dy := range dys {
		copy(DY.Data[t*b*od:(t+1)*b*od], dy.Data)
	}
	hTop := ar.view(cache.h[nl-1], b, (T+1)*b)
	mat.MulATB(n.wy.Grad, hTop, DY)
	mat.SumRows(n.by.Grad.Row(0), DY)

	DH := ar.slab(T*b, h, true)
	mat.MulABT(DH, DY, n.wy.Value)

	DZX := ar.slab(T*b, 3*h, false) // fully written per layer
	DZH := ar.slab(T*b, 3*h, false)
	dpg := ar.slab(b, h, false)   // gate-path gradient to hPrev at step t
	dhrec := ar.slab(b, h, false) // carried recurrent hidden gradient
	whT := ar.slab(3*h, h, false) // whᵀ of the current layer (see LSTM.Backward)
	for l := nl - 1; l >= 0; l-- {
		layer := n.layers[l]
		HP := cache.h[l]
		R, Zg, Cc, RH := cache.r[l], cache.z[l], cache.c[l], cache.rh[l]
		dhrec.Zero()
		mat.TransposeInto(whT, layer.wh.Value)
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
		var xl *mat.Dense
		if l == 0 {
			xl = cache.x
		} else {
			xl = ar.view(cache.h[l-1], b, (T+1)*b)
		}
		if layer.first && sparseEnough(xl) {
			mat.MulATBSparse(layer.wx.Grad, xl, DZX)
		} else {
			mat.MulATB(layer.wx.Grad, xl, DZX)
		}
		mat.SumRows(layer.b.Grad.Row(0), DZX)
		mat.MulATB(layer.wh.Grad, ar.view(cache.h[l], 0, T*b), DZH)
		if l > 0 {
			DH.Zero()
			mat.MulABT(DH, DZX, layer.wx.Value)
		}
	}
}

// StepForward runs one batch-1 inference step; the returned logits are
// valid until the next StepForward on the same state. Safe to call
// concurrently on one network with distinct states.
func (n *GRU) StepForward(x []float64, st *GRUState) []float64 {
	if len(x) != n.Cfg.InputDim {
		panic(fmt.Sprintf("nn: GRU StepForward input len %d, want %d", len(x), n.Cfg.InputDim))
	}
	h := n.Cfg.HiddenDim
	if st.zx == nil || st.zx.Cols != 3*h {
		st.zx = mat.NewDense(1, 3*h)
		st.zh = mat.NewDense(1, 3*h)
	}
	if st.y == nil || st.y.Cols != n.Cfg.OutputDim {
		st.y = mat.NewDense(1, n.Cfg.OutputDim)
	}
	st.xh.Rows, st.xh.Cols, st.xh.Data = 1, len(x), x
	in := &st.xh
	for l, layer := range n.layers {
		zx, zh := st.zx, st.zh
		zx.Zero()
		if layer.first {
			mat.MulAddSparse(zx, in, layer.wx.Value)
		} else {
			mat.MulAdd(zx, in, layer.wx.Value)
		}
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
	st.y.Zero()
	mat.MulAdd(st.y, in, n.wy.Value)
	mat.AddBiasRows(st.y, n.by.Value.Row(0))
	return st.y.Row(0)
}

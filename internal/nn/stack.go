package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// The LSTM's layer stack: the layers, the linear head, the parameter
// list in snapshot order, the state and the forward cache, and the
// parts of Forward and Backward that do not touch the cell (nn.go holds
// those).

// layer holds one LSTM layer's parameters. The 4H dimension holds the
// gate blocks in input, forget, cell (g), output order.
type layer struct {
	first bool   // layer 0: input may be a sparse feature encoding
	wx    *Param // [in x 4H]
	wh    *Param // [H x 4H]
	b     *Param // [1 x 4H]
}

// NewLSTM constructs a network with Xavier-uniform weights, drawn from
// g in construction order; the forget-gate biases start at +1, the
// standard trick for gradient flow. Parameter names (l<i>.* and head.*)
// are the snapshot wire format.
func NewLSTM(cfg Config, g *rng.RNG) *LSTM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	h := cfg.HiddenDim
	n := &LSTM{Cfg: cfg}
	in := cfg.InputDim
	for l := 0; l < cfg.Layers; l++ {
		ly := &layer{
			first: l == 0,
			wx:    newParam(fmt.Sprintf("l%d.wx", l), in, 4*h),
			wh:    newParam(fmt.Sprintf("l%d.wh", l), h, 4*h),
			b:     newParam(fmt.Sprintf("l%d.b", l), 1, 4*h),
		}
		xavierInit(ly.wx.Value, in, h, g)
		xavierInit(ly.wh.Value, h, h, g)
		for j := h; j < 2*h; j++ {
			ly.b.Value.Set(0, j, 1) // forget gate bias
		}
		n.layers = append(n.layers, ly)
		n.params = append(n.params, ly.wx, ly.wh, ly.b)
		in = h
	}
	n.wy = newParam("head.wy", h, cfg.OutputDim)
	n.by = newParam("head.by", 1, cfg.OutputDim)
	xavierInit(n.wy.Value, h, cfg.OutputDim, g)
	n.params = append(n.params, n.wy, n.by)
	return n
}

// xavierInit fills w with Xavier-uniform draws from g for a layer of the
// given fan-in and fan-out, in storage order.
func xavierInit(w *mat.Dense, fanIn, fanOut int, g *rng.RNG) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w.Data {
		w.Data[i] = g.Uniform(-bound, bound)
	}
}

// Params returns all learnable parameters (for the optimizer and tests).
func (n *LSTM) Params() []*Param { return n.params }

// HeadBias returns the output head's bias, one entry per output: the
// network's own storage, so a write moves that output's every logit.
func (n *LSTM) HeadBias() []float64 { return n.by.Value.Data }

// NumParams returns the total number of scalar parameters.
func (n *LSTM) NumParams() int {
	total := 0
	for _, p := range n.params {
		total += len(p.Value.Data)
	}
	return total
}

// ZeroGrads clears all parameter gradients.
func (n *LSTM) ZeroGrads() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// shadow returns a network sharing n's weight tensors but with private
// gradient buffers, for race-free per-shard backward passes. It never
// runs Forward, so it takes no Workspace: Sharded lends each running
// shard an arena. Shadow params carry no Adam moments: only
// the real network's params ever reach the optimizer.
func (n *LSTM) shadow() *LSTM {
	grad := func(p *Param) *Param {
		return &Param{Name: p.Name, Value: p.Value, Grad: mat.NewDense(p.Grad.Rows, p.Grad.Cols)}
	}
	sh := &LSTM{Cfg: n.Cfg}
	for _, l := range n.layers {
		sl := &layer{first: l.first, wx: grad(l.wx), wh: grad(l.wh), b: grad(l.b)}
		sh.layers = append(sh.layers, sl)
		sh.params = append(sh.params, sl.wx, sl.wh, sl.b)
	}
	sh.wy, sh.by = grad(n.wy), grad(n.by)
	sh.params = append(sh.params, sh.wy, sh.by)
	return sh
}

// State holds per-layer hidden and cell activations for a batch: the
// state a training window carries across Forward calls. After a Forward
// call the entries are views into the network's workspace, valid until
// the next-but-one Forward on that network (Clone them to keep longer).
// Stepwise inference does not use it: a Fleet carries its streams'
// state in its own slabs.
type State struct {
	H []*mat.Dense // per layer, [B x H]
	C []*mat.Dense // per layer, [B x H]
}

// NewState returns a zero state for batch size b.
func (n *LSTM) NewState(b int) *State {
	st := &State{}
	for range n.layers {
		st.H = append(st.H, mat.NewDense(b, n.Cfg.HiddenDim))
		st.C = append(st.C, mat.NewDense(b, n.Cfg.HiddenDim))
	}
	return st
}

// Zero clears the state in place.
func (s *State) Zero() {
	for _, m := range s.H {
		m.Zero()
	}
	for _, m := range s.C {
		m.Zero()
	}
}

// CopyRows copies the (hi-lo)-row state src into rows [lo, hi) of s.
func (s *State) CopyRows(lo, hi int, src *State) {
	for i, m := range s.H {
		copy(m.Data[lo*m.Cols:hi*m.Cols], src.H[i].Data)
	}
	for i, m := range s.C {
		copy(m.Data[lo*m.Cols:hi*m.Cols], src.C[i].Data)
	}
}

// Cache stores everything Forward computed that Backward consumes. All
// matrices are slabs in (or views into) the arena of the Forward call
// that produced it, so a cache is valid until the next-but-one Forward
// on the same network. Activations are stored sequence-fused: each slab
// holds T (or T+1) row-blocks of B rows, block t covering step t.
type Cache struct {
	steps int
	batch int
	ar    *arena

	x     *mat.Dense   // packed layer-0 input [T·B x InputDim]
	h     []*mat.Dense // per layer [(T+1)·B x H]; block 0 is the initial state
	c     []*mat.Dense // per layer cell state [(T+1)·B x H]; block 0 is the initial state
	z     []*mat.Dense // per layer gate activations [T·B x 4H], in i, f, g, o order
	tanhC []*mat.Dense // per layer tanh of the new cell state [T·B x H]
	ys    []*mat.Dense // per-step output views returned by Forward
}

// T returns the number of time steps in the cached forward pass.
func (c *Cache) T() int { return c.steps }

// lstmCache returns the arena's embedded Cache, resized for nl layers.
func (a *arena) lstmCache(nl int) *Cache {
	c := &a.cache
	fitLayers(nl, &c.h, &c.c, &c.z, &c.tanhC)
	return c
}

// fitLayers resizes each per-layer slice to nl entries, reallocating
// only when one grows.
func fitLayers(nl int, ss ...*[]*mat.Dense) {
	for _, s := range ss {
		if cap(*s) < nl {
			*s = make([]*mat.Dense, nl)
		}
		*s = (*s)[:nl]
	}
}

// packRows packs the steps ms, each [B x cols], into one [T·B x cols]
// slab of ar, step t in block t: the layout forward takes its inputs
// and backward its output gradients in. A sharded window writes its
// slabs in place and packs nothing.
func packRows(ar *arena, ms []*mat.Dense, cols int) *mat.Dense {
	b := ms[0].Rows
	X := ar.slab(len(ms)*b, cols, false)
	for t, m := range ms {
		if m.Rows != b || m.Cols != cols {
			panic(fmt.Sprintf("nn: step %d is %v, want %dx%d", t, m, b, cols))
		}
		copy(X.Data[t*b*cols:(t+1)*b*cols], m.Data)
	}
	return X
}

// stateSlab returns a (T+1)·B-row slab whose block 0 holds layer l's
// incoming state from src (st.H or st.C; zeros when there is no state).
// Callers take it before writing anything else, because the incoming
// views may alias this very slab (a state carried from two Forward
// calls ago lands back on the same arena).
func stateSlab(ar *arena, src []*mat.Dense, l, T, b, h int) *mat.Dense {
	m := ar.slab((T+1)*b, h, false)
	if src == nil {
		clear(m.Data[:b*h])
		return m
	}
	if src[l].Rows != b || src[l].Cols != h {
		panic(fmt.Sprintf("nn: state layer %d is %dx%d, want %dx%d", l, src[l].Rows, src[l].Cols, b, h))
	}
	copy(m.Data[:b*h], src[l].Data)
	return m
}

// project accumulates x·Wx into z: by row sums on layer 0, whose input
// is a feature encoding, by GEMM above it.
func (ly *layer) project(z, x *mat.Dense) {
	if ly.first {
		mat.MulAddSparse(z, x, ly.wx.Value)
	} else {
		mat.MulAdd(z, x, ly.wx.Value)
	}
}

// head runs the output layer over the top layer's hidden states top,
// fused across the sequence (Y = H_top·Wy + by), and returns the
// per-step [B x OutputDim] views.
func (n *LSTM) head(c *Cache, top *mat.Dense) []*mat.Dense {
	ar, T, b := c.ar, c.steps, c.batch
	Y := ar.slab(T*b, n.Cfg.OutputDim, true)
	mat.MulAdd(Y, top, n.wy.Value)
	mat.AddBiasRows(Y, n.by.Value.Row(0))
	ys := c.ys[:0]
	for t := 0; t < T; t++ {
		ys = append(ys, ar.view(Y, t*b, (t+1)*b))
	}
	c.ys = ys
	return ys
}

// windowPlan is what a training window holds constant, filled before
// its shard fan-out and read by every shard: Wh and Whᵀ on panels for
// the per-step products (decode's kernel and layout), and the
// transposes the fused products multiply by into zeroed destinations,
// MulABT's bits without its per-call transpose (mat.TransposeInto).
type windowPlan struct {
	wh, whT []*mat.PackedDense // per layer: Wh [H x 4H] and Whᵀ [4H x H] on panels
	wxT     []*mat.Dense       // per layer [4H x in]; wxT[0] is unused
	wyT     *mat.Dense         // [OutputDim x H]
	whTRaw  *mat.Dense         // one layer's Whᵀ on its way onto panels
}

// fillForward refreshes what forward reads of p, Wh on panels,
// allocating it on first use.
func (n *LSTM) fillForward(p *windowPlan) {
	for l, ly := range n.layers {
		if l == len(p.wh) {
			p.wh = append(p.wh, ly.wh.Value.Pack())
		}
		p.wh[l].Repack(ly.wh.Value)
	}
}

// fillBackward refreshes what backward reads of p, Whᵀ on panels and
// the fused products' transposes, allocating them on first use.
func (n *LSTM) fillBackward(p *windowPlan) {
	if p.wyT == nil {
		h := n.Cfg.HiddenDim
		p.whTRaw = mat.NewDense(4*h, h)
		for _, ly := range n.layers {
			p.whT = append(p.whT, p.whTRaw.Pack())
			p.wxT = append(p.wxT, mat.NewDense(ly.wx.Value.Cols, ly.wx.Value.Rows))
		}
		p.wxT[0] = nil
		p.wyT = mat.NewDense(n.wy.Value.Cols, n.wy.Value.Rows)
	}
	for l, ly := range n.layers {
		mat.TransposeInto(p.whTRaw, ly.wh.Value)
		p.whT[l].Repack(p.whTRaw)
		if l > 0 {
			mat.TransposeInto(p.wxT[l], ly.wx.Value)
		}
	}
	mat.TransposeInto(p.wyT, n.wy.Value)
}

// headBackward starts Backward: from the packed output gradients DY it
// accumulates the head's parameter gradients and returns the gradient
// arriving at the top layer's hidden state at every step. Scratch
// bump-continues on the arena holding the cache.
func (n *LSTM) headBackward(c *Cache, DY *mat.Dense, p *windowPlan) *mat.Dense {
	ar, T, b := c.ar, c.steps, c.batch
	hTop := ar.view(c.h[len(c.h)-1], b, (T+1)*b)
	mat.MulATB(n.wy.Grad, hTop, DY)
	mat.SumRows(n.by.Grad.Row(0), DY)
	DH := ar.slab(T*b, n.Cfg.HiddenDim, true)
	mat.MulAdd(DH, DY, p.wyT)
	return DH
}

// layerGrads accumulates layer l's parameter gradients, sequence-fused
// over all T steps, from its pre-activation gradients dz and, above
// layer 0, overwrites dh with the gradient arriving at layer l-1's
// hidden state. Layer 0's Wx gradient runs on the row-sum kernel, as its
// forward projection does: the input slab is transposed into arena
// scratch, and each input column sums the dz rows of its non-zero steps.
func (n *LSTM) layerGrads(c *Cache, l int, dz, dh *mat.Dense, p *windowPlan) {
	ly, ar, T, b := n.layers[l], c.ar, c.steps, c.batch
	if ly.first {
		xT := ar.slab(c.x.Cols, c.x.Rows, false)
		mat.TransposeInto(xT, c.x)
		mat.MulAddSparse(ly.wx.Grad, xT, dz)
	} else {
		mat.MulATB(ly.wx.Grad, ar.view(c.h[l-1], b, (T+1)*b), dz)
	}
	mat.MulATB(ly.wh.Grad, ar.view(c.h[l], 0, T*b), dz)
	mat.SumRows(ly.b.Grad.Row(0), dz)
	if l > 0 {
		dh.Zero()
		mat.MulAdd(dh, dz, p.wxT[l])
	}
}

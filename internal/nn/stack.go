package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// The LSTM's layer stack: the layers, the linear head, the parameter
// list in snapshot order, the state and the forward cache, and the
// parts of Forward, Backward and StepForward that do not touch the cell
// (nn.go holds those).

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
// gradient buffers (and, on first use, its own Workspace), for race-free
// per-shard backward passes. Shadow params carry no Adam moments: only
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

// State holds per-layer hidden and cell activations for a batch, used
// both to carry state across Forward calls and for stepwise generation.
// After a Forward call the entries are views into the network's
// workspace, valid until the next-but-one Forward on that network (Clone
// them to keep longer). StepForward updates them in place.
type State struct {
	H []*mat.Dense // per layer, [B x H]
	C []*mat.Dense // per layer, [B x H]

	// StepForward scratch, lazily sized. It lives on the state rather
	// than the network so concurrent generation with distinct states
	// stays race-free.
	z, y *mat.Dense
	xh   mat.Dense
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

// begin starts a Forward pass on the next arena: it points c at it and
// packs the step inputs into one [T·B x InputDim] slab so layer 0's
// input projection runs as a single sequence-fused GEMM.
func (n *LSTM) begin(c *Cache, ar *arena, xs []*mat.Dense) {
	T, b, id := len(xs), xs[0].Rows, n.Cfg.InputDim
	c.steps, c.batch, c.ar = T, b, ar
	X := ar.slab(T*b, id, false)
	for t, x := range xs {
		if x.Rows != b || x.Cols != id {
			panic(fmt.Sprintf("nn: step %d input %v, want %dx%d", t, x, b, id))
		}
		copy(X.Data[t*b*id:(t+1)*b*id], x.Data)
	}
	c.x = X
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

// backwardPlan is what Backward holds constant over a window: the
// transposed weights its products against a weight's transpose multiply
// by — each as MulAdd into a zeroed destination, MulABT's bits (see
// mat.TransposeInto) without MulABT's per-call transpose — and the
// kernel layer 0's weight gradient takes. A sharded window fills one
// plan before its fan-out and every shard reads it; a direct Backward
// refreshes the network's own.
type backwardPlan struct {
	whT, wxT []*mat.Dense // per layer [4H x H] and [4H x in]; wxT[0] is unused
	wyT      *mat.Dense   // [OutputDim x H]
	sparseX  bool         // layer 0's Wx gradient takes MulATBSparse
}

// transposeWeights refreshes p's transposes from n's current weights,
// allocating them on first use.
func (n *LSTM) transposeWeights(p *backwardPlan) {
	if p.wyT == nil {
		for _, ly := range n.layers {
			p.whT = append(p.whT, mat.NewDense(ly.wh.Value.Cols, ly.wh.Value.Rows))
			p.wxT = append(p.wxT, mat.NewDense(ly.wx.Value.Cols, ly.wx.Value.Rows))
		}
		p.wxT[0] = nil
		p.wyT = mat.NewDense(n.wy.Value.Cols, n.wy.Value.Rows)
	}
	for l, ly := range n.layers {
		mat.TransposeInto(p.whT[l], ly.wh.Value)
		if l > 0 {
			mat.TransposeInto(p.wxT[l], ly.wx.Value)
		}
	}
	mat.TransposeInto(p.wyT, n.wy.Value)
}

// headBackward starts Backward: it packs the output gradients dys,
// accumulates the head's parameter gradients, and returns the gradient
// arriving at the top layer's hidden state at every step (nil for an
// empty pass). Scratch bump-continues on the arena holding the cache.
func (n *LSTM) headBackward(c *Cache, dys []*mat.Dense, p *backwardPlan) *mat.Dense {
	if len(dys) != c.T() {
		panic(fmt.Sprintf("nn: Backward got %d grads for %d steps", len(dys), c.T()))
	}
	if c.T() == 0 {
		return nil
	}
	ar, T, b, od := c.ar, c.steps, c.batch, n.Cfg.OutputDim
	DY := ar.slab(T*b, od, false)
	for t, dy := range dys {
		if dy.Rows != b || dy.Cols != od {
			panic(fmt.Sprintf("nn: Backward step %d grad %v", t, dy))
		}
		copy(DY.Data[t*b*od:(t+1)*b*od], dy.Data)
	}
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
// hidden state. Layer 0's Wx gradient takes MulATBSparse's skip branch
// when the plan says its input is sparse.
func (n *LSTM) layerGrads(c *Cache, l int, dz, dh *mat.Dense, p *backwardPlan) {
	ly, ar, T, b := n.layers[l], c.ar, c.steps, c.batch
	xl := c.x
	if l > 0 {
		xl = ar.view(c.h[l-1], b, (T+1)*b)
	}
	if ly.first && p.sparseX {
		mat.MulATBSparse(ly.wx.Grad, xl, dz)
	} else {
		mat.MulATB(ly.wx.Grad, xl, dz)
	}
	mat.MulATB(ly.wh.Grad, ar.view(c.h[l], 0, T*b), dz)
	mat.SumRows(ly.b.Grad.Row(0), dz)
	if l > 0 {
		dh.Zero()
		mat.MulAdd(dh, dz, p.wxT[l])
	}
}

// sparseEnough reports whether fewer than a quarter of the entries of
// ms are nonzero — the threshold at which Backward sends layer 0's
// weight gradient Xᵀ·DZ through MulATBSparse's skip branch instead of
// the packed dense MulATB. True for one-hot token windows (the flavor
// net); false for every lifetime window, whose thermometer encoding is
// ~40 % non-zero (61 of 151 columns). The two kernels agree bit for bit
// on finite data, so the choice is made once per sharded fit (on its
// first window's full batch) or per direct Backward, never per shard.
// The forward paths do not ask: layer 0 always runs the row-sum kernel,
// whose cost is its non-zeros.
func sparseEnough(ms ...*mat.Dense) bool {
	nz, total := 0, 0
	for _, m := range ms {
		for _, v := range m.Data {
			if v != 0 {
				nz++
			}
		}
		total += len(m.Data)
	}
	return nz*4 < total
}

// stepIn readies st's scratch for one batch-1 step and returns x as a
// one-row matrix, the first layer's input.
func (n *LSTM) stepIn(x []float64, st *State) *mat.Dense {
	if len(x) != n.Cfg.InputDim {
		panic(fmt.Sprintf("nn: StepForward input len %d, want %d", len(x), n.Cfg.InputDim))
	}
	if w := 4 * n.Cfg.HiddenDim; st.z == nil || st.z.Cols != w {
		st.z = mat.NewDense(1, w)
	}
	if st.y == nil || st.y.Cols != n.Cfg.OutputDim {
		st.y = mat.NewDense(1, n.Cfg.OutputDim)
	}
	st.xh.Rows, st.xh.Cols, st.xh.Data = 1, len(x), x
	return &st.xh
}

// stepOut applies the head to the top layer's new state and returns the
// logits, valid until the next StepForward on st.
func (n *LSTM) stepOut(st *State) []float64 {
	st.y.Zero()
	mat.MulAdd(st.y, st.H[len(st.H)-1], n.wy.Value)
	mat.AddBiasRows(st.y, n.by.Value.Row(0))
	return st.y.Row(0)
}

package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/rng"
)

// The layer stack: everything the LSTM and the GRU share (§7's
// architecture ablation swaps only the cell). Both embed one stack —
// the layers, the linear head, the parameter list in snapshot order and
// the Forward/Backward workspace — and differ only in Forward,
// Backward, StepForward and their caches.

// layer holds one recurrent layer's parameters. The G·H dimension holds
// the cell's gate blocks: input, forget, cell (g), output for the LSTM
// (G = 4); reset, update, candidate for the GRU (G = 3).
type layer struct {
	first bool   // layer 0: input may be a sparse feature encoding
	wx    *Param // [in x G·H]
	wh    *Param // [H x G·H]
	b     *Param // [1 x G·H]
}

// stack is a network of stacked recurrent layers under a linear head
// producing OutputDim scores per step.
type stack struct {
	Cfg    Config
	layers []*layer
	wy     *Param // [H x OutputDim]
	by     *Param // [1 x OutputDim]
	params []*Param
	ws     *Workspace // Forward/Backward scratch arenas, lazily acquired
	cell   bool       // the cell carries C (LSTM); a GRU's State has none
}

// newStack constructs the layers and the head with Xavier-uniform
// weights, drawn from g in construction order; the LSTM's forget-gate
// biases start at +1, the standard trick for gradient flow. Parameter
// names are the snapshot wire format: l<i>.* and head.* for the LSTM,
// g<i>.* and ghead.* for the GRU.
func newStack(cfg Config, g *rng.RNG, cell bool) stack {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	gates, lp, hp := 3, "g", "ghead"
	if cell {
		gates, lp, hp = 4, "l", "head"
	}
	h := cfg.HiddenDim
	s := stack{Cfg: cfg, cell: cell}
	in := cfg.InputDim
	for l := 0; l < cfg.Layers; l++ {
		ly := &layer{
			first: l == 0,
			wx:    NewParam(fmt.Sprintf("%s%d.wx", lp, l), in, gates*h),
			wh:    NewParam(fmt.Sprintf("%s%d.wh", lp, l), h, gates*h),
			b:     NewParam(fmt.Sprintf("%s%d.b", lp, l), 1, gates*h),
		}
		XavierInit(ly.wx.Value, in, h, g)
		XavierInit(ly.wh.Value, h, h, g)
		if cell {
			for j := h; j < 2*h; j++ {
				ly.b.Value.Set(0, j, 1) // forget gate bias
			}
		}
		s.layers = append(s.layers, ly)
		s.params = append(s.params, ly.wx, ly.wh, ly.b)
		in = h
	}
	s.wy = NewParam(hp+".wy", h, cfg.OutputDim)
	s.by = NewParam(hp+".by", 1, cfg.OutputDim)
	XavierInit(s.wy.Value, h, cfg.OutputDim, g)
	s.params = append(s.params, s.wy, s.by)
	return s
}

// XavierInit fills w with Xavier-uniform draws from g for a layer of the
// given fan-in and fan-out, in storage order.
func XavierInit(w *mat.Dense, fanIn, fanOut int, g *rng.RNG) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w.Data {
		w.Data[i] = g.Uniform(-bound, bound)
	}
}

// Params returns all learnable parameters (for the optimizer and tests).
func (s *stack) Params() []*Param { return s.params }

// NumParams returns the total number of scalar parameters.
func (s *stack) NumParams() int {
	total := 0
	for _, p := range s.params {
		total += len(p.Value.Data)
	}
	return total
}

// ZeroGrads clears all parameter gradients.
func (s *stack) ZeroGrads() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// shadow returns a stack sharing s's weight tensors but with private
// gradient buffers (and, on first use, its own Workspace), for race-free
// per-shard backward passes. Shadow params carry no Adam moments: only
// the real network's params ever reach the optimizer.
func (s *stack) shadow() stack {
	grad := func(p *Param) *Param {
		return &Param{Name: p.Name, Value: p.Value, Grad: mat.NewDense(p.Grad.Rows, p.Grad.Cols)}
	}
	sh := stack{Cfg: s.Cfg, cell: s.cell}
	for _, l := range s.layers {
		sl := &layer{first: l.first, wx: grad(l.wx), wh: grad(l.wh), b: grad(l.b)}
		sh.layers = append(sh.layers, sl)
		sh.params = append(sh.params, sl.wx, sl.wh, sl.b)
	}
	sh.wy, sh.by = grad(s.wy), grad(s.by)
	sh.params = append(sh.params, sh.wy, sh.by)
	return sh
}

// State holds per-layer hidden (and, for the LSTM, cell) activations for
// a batch, used both to carry state across Forward calls and for
// stepwise generation. A GRU's State has no C. After a Forward call the
// entries are views into the network's workspace, valid until the
// next-but-one Forward on that network (Clone them to keep longer).
// StepForward updates them in place.
type State struct {
	H []*mat.Dense // per layer, [B x H]
	C []*mat.Dense // per layer, [B x H]; nil for a GRU

	// StepForward scratch, lazily sized. It lives on the state rather
	// than the network so concurrent generation with distinct states
	// stays race-free.
	z, zh, y *mat.Dense
	xh       mat.Dense
}

// NewState returns a zero state for batch size b.
func (s *stack) NewState(b int) *State {
	st := &State{}
	for range s.layers {
		st.H = append(st.H, mat.NewDense(b, s.Cfg.HiddenDim))
		if s.cell {
			st.C = append(st.C, mat.NewDense(b, s.Cfg.HiddenDim))
		}
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

// seqCache is what both cells' forward caches hold alike. All matrices
// are slabs in (or views into) the arena of the Forward call that
// produced it, so a cache is valid until the next-but-one Forward on the
// same network. Activations are stored sequence-fused: each slab holds T
// (or T+1) row-blocks of B rows, block t covering step t.
type seqCache struct {
	steps int
	batch int
	ar    *arena

	x  *mat.Dense   // packed layer-0 input [T·B x InputDim]
	h  []*mat.Dense // per layer [(T+1)·B x H]; block 0 is the initial state
	ys []*mat.Dense // per-step output views returned by Forward
}

// T returns the number of time steps in the cached forward pass.
func (c *seqCache) T() int { return c.steps }

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
func (s *stack) begin(c *seqCache, ar *arena, xs []*mat.Dense) {
	T, b, id := len(xs), xs[0].Rows, s.Cfg.InputDim
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
func (s *stack) head(c *seqCache, top *mat.Dense) []*mat.Dense {
	ar, T, b := c.ar, c.steps, c.batch
	Y := ar.slab(T*b, s.Cfg.OutputDim, true)
	mat.MulAdd(Y, top, s.wy.Value)
	mat.AddBiasRows(Y, s.by.Value.Row(0))
	ys := c.ys[:0]
	for t := 0; t < T; t++ {
		ys = append(ys, ar.view(Y, t*b, (t+1)*b))
	}
	c.ys = ys
	return ys
}

// headBackward starts Backward: it packs the output gradients dys,
// accumulates the head's parameter gradients, and returns the gradient
// arriving at the top layer's hidden state at every step (nil for an
// empty pass). Scratch bump-continues on the arena holding the cache.
func (s *stack) headBackward(c *seqCache, dys []*mat.Dense) *mat.Dense {
	if len(dys) != c.T() {
		panic(fmt.Sprintf("nn: Backward got %d grads for %d steps", len(dys), c.T()))
	}
	if c.T() == 0 {
		return nil
	}
	ar, T, b, od := c.ar, c.steps, c.batch, s.Cfg.OutputDim
	DY := ar.slab(T*b, od, false)
	for t, dy := range dys {
		if dy.Rows != b || dy.Cols != od {
			panic(fmt.Sprintf("nn: Backward step %d grad %v", t, dy))
		}
		copy(DY.Data[t*b*od:(t+1)*b*od], dy.Data)
	}
	hTop := ar.view(c.h[len(c.h)-1], b, (T+1)*b)
	mat.MulATB(s.wy.Grad, hTop, DY)
	mat.SumRows(s.by.Grad.Row(0), DY)
	DH := ar.slab(T*b, s.Cfg.HiddenDim, true)
	mat.MulABT(DH, DY, s.wy.Value)
	return DH
}

// layerGrads accumulates layer l's parameter gradients, sequence-fused
// over all T steps, from the pre-activation gradients of its input
// product (dzx: Wx and the bias) and of its recurrent product (dzh: Wh)
// — one slab for the LSTM, two for the GRU — and, above layer 0,
// overwrites dh with the gradient arriving at layer l-1's hidden state.
// Layer 0's Wx gradient takes MulATBSparse's skip branch when its input
// is sparse enough.
func (s *stack) layerGrads(c *seqCache, l int, dzx, dzh, dh *mat.Dense) {
	ly, ar, T, b := s.layers[l], c.ar, c.steps, c.batch
	xl := c.x
	if l > 0 {
		xl = ar.view(c.h[l-1], b, (T+1)*b)
	}
	if ly.first && sparseEnough(xl) {
		mat.MulATBSparse(ly.wx.Grad, xl, dzx)
	} else {
		mat.MulATB(ly.wx.Grad, xl, dzx)
	}
	mat.MulATB(ly.wh.Grad, ar.view(c.h[l], 0, T*b), dzh)
	mat.SumRows(ly.b.Grad.Row(0), dzx)
	if l > 0 {
		dh.Zero()
		mat.MulABT(dh, dzx, ly.wx.Value)
	}
}

// sparseEnough reports whether fewer than a quarter of m's entries are
// nonzero — the threshold at which Backward sends layer 0's weight
// gradient Xᵀ·DZ through MulATBSparse's skip branch instead of the
// packed dense MulATB. True for one-hot token windows (the flavor net);
// false for every lifetime window, whose thermometer encoding is ~40 %
// non-zero (61 of 151 columns). The forward paths do not ask: layer 0
// always runs the row-sum kernel, whose cost is its non-zeros.
func sparseEnough(m *mat.Dense) bool {
	nz := 0
	for _, v := range m.Data {
		if v != 0 {
			nz++
		}
	}
	return nz*4 < len(m.Data)
}

// stepIn readies st's scratch for one batch-1 step whose pre-activation
// is gates·H wide and returns x as a one-row matrix, the first layer's
// input.
func (s *stack) stepIn(x []float64, st *State, gates int) *mat.Dense {
	if len(x) != s.Cfg.InputDim {
		panic(fmt.Sprintf("nn: StepForward input len %d, want %d", len(x), s.Cfg.InputDim))
	}
	if w := gates * s.Cfg.HiddenDim; st.z == nil || st.z.Cols != w {
		st.z, st.zh = mat.NewDense(1, w), mat.NewDense(1, w)
	}
	if st.y == nil || st.y.Cols != s.Cfg.OutputDim {
		st.y = mat.NewDense(1, s.Cfg.OutputDim)
	}
	st.xh.Rows, st.xh.Cols, st.xh.Data = 1, len(x), x
	return &st.xh
}

// stepOut applies the head to the top layer's new state and returns the
// logits, valid until the next StepForward on st.
func (s *stack) stepOut(st *State) []float64 {
	st.y.Zero()
	mat.MulAdd(st.y, st.H[len(st.H)-1], s.wy.Value)
	mat.AddBiasRows(st.y, s.by.Value.Row(0))
	return st.y.Row(0)
}

package experiments

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Transformer is a causal (decoder-only) self-attention sequence model —
// the architecture the paper notes "could be used in place of the
// LSTMs" (§7). It processes one sequence at a time as a [T x InputDim]
// matrix, applies a learned input projection plus learned positional
// embeddings, a stack of pre-LayerNorm attention+FFN blocks with
// residual connections, and a linear output head. Backpropagation is
// implemented by hand and verified against numerical gradients in the
// package tests. Forward and Backward allocate their activations and
// scratch on the heap: no benchmark workload trains a Transformer, so it
// stays off nn's workspace arenas.
type Transformer struct {
	Cfg TransformerConfig

	wEmb *nn.Param // [InputDim x D]
	bEmb *nn.Param // [1 x D]
	pos  *nn.Param // [MaxLen x D]

	blocks []*tblock

	lnFg, lnFb *nn.Param // final layer norm
	wOut       *nn.Param // [D x OutputDim]
	bOut       *nn.Param // [1 x OutputDim]

	params []*nn.Param
}

// TransformerConfig sizes the network. ModelDim must be divisible by
// Heads.
type TransformerConfig struct {
	InputDim  int
	ModelDim  int
	Heads     int
	FFDim     int
	Layers    int
	OutputDim int
	MaxLen    int // maximum sequence length (positional table size)
}

func (c TransformerConfig) validate() error {
	if c.InputDim <= 0 || c.ModelDim <= 0 || c.Heads <= 0 || c.FFDim <= 0 ||
		c.Layers <= 0 || c.OutputDim <= 0 || c.MaxLen <= 0 {
		return fmt.Errorf("experiments: invalid transformer config %+v", c)
	}
	if c.ModelDim%c.Heads != 0 {
		return fmt.Errorf("experiments: ModelDim %d not divisible by Heads %d", c.ModelDim, c.Heads)
	}
	return nil
}

// tblock is one pre-LN transformer block.
type tblock struct {
	ln1g, ln1b     *nn.Param
	wq, wk, wv, wo *nn.Param // [D x D]
	ln2g, ln2b     *nn.Param
	w1, b1         *nn.Param // [D x F], [1 x F]
	w2, b2         *nn.Param // [F x D], [1 x D]
}

// NewTransformer constructs the network with Xavier-uniform weights.
func NewTransformer(cfg TransformerConfig, g *rng.RNG) *Transformer {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	t := &Transformer{Cfg: cfg}
	d := cfg.ModelDim
	add := func(p *nn.Param) *nn.Param {
		t.params = append(t.params, p)
		return p
	}
	t.wEmb = add(nn.NewParam("emb.w", cfg.InputDim, d))
	nn.XavierInit(t.wEmb.Value, cfg.InputDim, d, g)
	t.bEmb = add(nn.NewParam("emb.b", 1, d))
	t.pos = add(nn.NewParam("emb.pos", cfg.MaxLen, d))
	for i := range t.pos.Value.Data {
		t.pos.Value.Data[i] = 0.02 * g.NormFloat64()
	}
	for l := 0; l < cfg.Layers; l++ {
		b := &tblock{
			ln1g: add(nn.NewParam(fmt.Sprintf("b%d.ln1g", l), 1, d)),
			ln1b: add(nn.NewParam(fmt.Sprintf("b%d.ln1b", l), 1, d)),
			wq:   add(nn.NewParam(fmt.Sprintf("b%d.wq", l), d, d)),
			wk:   add(nn.NewParam(fmt.Sprintf("b%d.wk", l), d, d)),
			wv:   add(nn.NewParam(fmt.Sprintf("b%d.wv", l), d, d)),
			wo:   add(nn.NewParam(fmt.Sprintf("b%d.wo", l), d, d)),
			ln2g: add(nn.NewParam(fmt.Sprintf("b%d.ln2g", l), 1, d)),
			ln2b: add(nn.NewParam(fmt.Sprintf("b%d.ln2b", l), 1, d)),
			w1:   add(nn.NewParam(fmt.Sprintf("b%d.w1", l), d, cfg.FFDim)),
			b1:   add(nn.NewParam(fmt.Sprintf("b%d.b1", l), 1, cfg.FFDim)),
			w2:   add(nn.NewParam(fmt.Sprintf("b%d.w2", l), cfg.FFDim, d)),
			b2:   add(nn.NewParam(fmt.Sprintf("b%d.b2", l), 1, d)),
		}
		b.ln1g.Value.Fill(1)
		b.ln2g.Value.Fill(1)
		nn.XavierInit(b.wq.Value, d, d, g)
		nn.XavierInit(b.wk.Value, d, d, g)
		nn.XavierInit(b.wv.Value, d, d, g)
		nn.XavierInit(b.wo.Value, d, d, g)
		nn.XavierInit(b.w1.Value, d, cfg.FFDim, g)
		nn.XavierInit(b.w2.Value, cfg.FFDim, d, g)
		t.blocks = append(t.blocks, b)
	}
	t.lnFg = add(nn.NewParam("final.lng", 1, d))
	t.lnFg.Value.Fill(1)
	t.lnFb = add(nn.NewParam("final.lnb", 1, d))
	t.wOut = add(nn.NewParam("head.w", d, cfg.OutputDim))
	nn.XavierInit(t.wOut.Value, d, cfg.OutputDim, g)
	t.bOut = add(nn.NewParam("head.b", 1, cfg.OutputDim))
	return t
}

// Params returns all learnable parameters.
func (t *Transformer) Params() []*nn.Param { return t.params }

// ZeroGrads clears all gradients.
func (t *Transformer) ZeroGrads() {
	for _, p := range t.params {
		p.ZeroGrad()
	}
}

const lnEps = 1e-5

// lnCache stores what LayerNorm backward needs.
type lnCache struct {
	xhat   *mat.Dense
	invStd []float64
}

// layerNorm applies per-row layer normalization with gain g and bias b.
func layerNorm(x *mat.Dense, g, b []float64, c *lnCache) *mat.Dense {
	out := mat.NewDense(x.Rows, x.Cols)
	c.xhat = mat.NewDense(x.Rows, x.Cols)
	c.invStd = make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var variance float64
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(len(row))
		inv := 1 / math.Sqrt(variance+lnEps)
		c.invStd[i] = inv
		xh := c.xhat.Row(i)
		o := out.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			o[j] = xh[j]*g[j] + b[j]
		}
	}
	return out
}

// layerNormBackward accumulates dG, dB and returns dX given dY.
func layerNormBackward(dy *mat.Dense, c *lnCache, g []float64, dg, db []float64) *mat.Dense {
	dx := mat.NewDense(dy.Rows, dy.Cols)
	n := float64(dy.Cols)
	for i := 0; i < dy.Rows; i++ {
		dyr := dy.Row(i)
		xh := c.xhat.Row(i)
		var sumDxhat, sumDxhatXhat float64
		for j, d := range dyr {
			dg[j] += d * xh[j]
			db[j] += d
			dxh := d * g[j]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xh[j]
		}
		inv := c.invStd[i]
		dxr := dx.Row(i)
		for j, d := range dyr {
			dxh := d * g[j]
			dxr[j] = inv * (dxh - sumDxhat/n - xh[j]*sumDxhatXhat/n)
		}
	}
	return dx
}

// attnCache stores per-block activations for backward.
type attnCache struct {
	lnIn    lnCache
	xNorm   *mat.Dense
	q, k, v *mat.Dense
	attn    []*mat.Dense // per head, [T x T] softmax weights
	concat  *mat.Dense   // [T x D] pre-Wo
	lnMid   lnCache
	hNorm   *mat.Dense
	ff1     *mat.Dense // post-ReLU [T x F]
	ffPre   *mat.Dense // pre-ReLU [T x F]
}

// tCache is the full forward cache Backward consumes.
type tCache struct {
	T      int
	input  *mat.Dense // raw input features [T x InputDim] (caller-owned)
	blocks []attnCache
	lnF    lnCache
	final  *mat.Dense // after final LN [T x D]
}

// Forward runs the model over one sequence x of shape [T x InputDim]
// with T <= MaxLen, returning [T x OutputDim] logits and a cache for
// Backward, which retains x.
func (t *Transformer) Forward(x *mat.Dense) (*mat.Dense, *tCache) {
	T := x.Rows
	if T > t.Cfg.MaxLen {
		panic(fmt.Sprintf("experiments: sequence length %d exceeds MaxLen %d", T, t.Cfg.MaxLen))
	}
	if x.Cols != t.Cfg.InputDim {
		panic(fmt.Sprintf("experiments: input dim %d, want %d", x.Cols, t.Cfg.InputDim))
	}
	cache := &tCache{T: T, input: x, blocks: make([]attnCache, len(t.blocks))}
	h := mat.NewDense(T, t.Cfg.ModelDim)
	mat.MulAddSparse(h, x, t.wEmb.Value)
	mat.AddBiasRows(h, t.bEmb.Value.Row(0))
	for i := 0; i < T; i++ {
		mat.Axpy(1, t.pos.Value.Row(i), h.Row(i))
	}
	for l, blk := range t.blocks {
		h = t.blockForward(blk, h, &cache.blocks[l])
	}
	cache.final = layerNorm(h, t.lnFg.Value.Row(0), t.lnFb.Value.Row(0), &cache.lnF)
	out := mat.NewDense(T, t.Cfg.OutputDim)
	mat.MulAdd(out, cache.final, t.wOut.Value)
	mat.AddBiasRows(out, t.bOut.Value.Row(0))
	return out, cache
}

func (t *Transformer) blockForward(blk *tblock, x *mat.Dense, bc *attnCache) *mat.Dense {
	T := x.Rows
	d := t.Cfg.ModelDim
	heads := t.Cfg.Heads
	dk := d / heads
	scale := 1 / math.Sqrt(float64(dk))

	bc.xNorm = layerNorm(x, blk.ln1g.Value.Row(0), blk.ln1b.Value.Row(0), &bc.lnIn)
	xNorm := bc.xNorm

	q := mat.NewDense(T, d)
	mat.MulAdd(q, xNorm, blk.wq.Value)
	k := mat.NewDense(T, d)
	mat.MulAdd(k, xNorm, blk.wk.Value)
	v := mat.NewDense(T, d)
	mat.MulAdd(v, xNorm, blk.wv.Value)
	bc.q, bc.k, bc.v = q, k, v

	concat := mat.NewDense(T, d)
	for hd := 0; hd < heads; hd++ {
		off := hd * dk
		// Zero, so the causal mask holds: a.Row(i)[j] stays 0 for j > i.
		a := mat.NewDense(T, T)
		for i := 0; i < T; i++ {
			qi := q.Row(i)[off : off+dk]
			arow := a.Row(i)
			maxv := math.Inf(-1)
			for j := 0; j <= i; j++ {
				s := mat.Dot(qi, k.Row(j)[off:off+dk]) * scale
				arow[j] = s
				if s > maxv {
					maxv = s
				}
			}
			var sum float64
			for j := 0; j <= i; j++ {
				arow[j] = math.Exp(arow[j] - maxv)
				sum += arow[j]
			}
			inv := 1 / sum
			for j := 0; j <= i; j++ {
				arow[j] *= inv
			}
			crow := concat.Row(i)[off : off+dk]
			for j := 0; j <= i; j++ {
				mat.Axpy(arow[j], v.Row(j)[off:off+dk], crow)
			}
		}
		bc.attn = append(bc.attn, a)
	}
	bc.concat = concat

	attnOut := mat.NewDense(T, d)
	mat.MulAdd(attnOut, concat, blk.wo.Value)
	h := mat.NewDense(T, d)
	mat.AddTo(h, x, attnOut)

	bc.hNorm = layerNorm(h, blk.ln2g.Value.Row(0), blk.ln2b.Value.Row(0), &bc.lnMid)
	ffPre := mat.NewDense(T, t.Cfg.FFDim)
	mat.MulAdd(ffPre, bc.hNorm, blk.w1.Value)
	mat.AddBiasRows(ffPre, blk.b1.Value.Row(0))
	bc.ffPre = ffPre
	ff1 := ffPre.Clone()
	for i, vv := range ff1.Data {
		if vv < 0 {
			ff1.Data[i] = 0
		}
	}
	bc.ff1 = ff1
	ffOut := mat.NewDense(T, d)
	mat.MulAdd(ffOut, ff1, blk.w2.Value)
	mat.AddBiasRows(ffOut, blk.b2.Value.Row(0))
	out := mat.NewDense(T, d)
	mat.AddTo(out, h, ffOut)
	return out
}

// Backward accumulates parameter gradients given dOut (the gradient of
// the loss with respect to the Forward output logits).
func (t *Transformer) Backward(cache *tCache, dOut *mat.Dense) {
	T := cache.T
	// Head.
	mat.MulATB(t.wOut.Grad, cache.final, dOut)
	mat.SumRows(t.bOut.Grad.Row(0), dOut)
	dFinal := mat.NewDense(T, t.Cfg.ModelDim)
	mat.MulABT(dFinal, dOut, t.wOut.Value)
	dCur := layerNormBackward(dFinal, &cache.lnF, t.lnFg.Value.Row(0),
		t.lnFg.Grad.Row(0), t.lnFb.Grad.Row(0))
	for l := len(t.blocks) - 1; l >= 0; l-- {
		dCur = t.blockBackward(t.blocks[l], &cache.blocks[l], dCur)
	}
	// Embedding.
	if sparseEnough(cache.input) {
		mat.MulATBSparse(t.wEmb.Grad, cache.input, dCur)
	} else {
		mat.MulATB(t.wEmb.Grad, cache.input, dCur)
	}
	mat.SumRows(t.bEmb.Grad.Row(0), dCur)
	for i := 0; i < T; i++ {
		mat.Axpy(1, dCur.Row(i), t.pos.Grad.Row(i))
	}
}

func (t *Transformer) blockBackward(blk *tblock, bc *attnCache, dOut *mat.Dense) *mat.Dense {
	T := dOut.Rows
	d := t.Cfg.ModelDim
	heads := t.Cfg.Heads
	dk := d / heads
	scale := 1 / math.Sqrt(float64(dk))

	// out = h + FFN(LN2(h)); dOut flows into both h and the FFN path.
	dFF := dOut // gradient into ffOut
	// FFN backward.
	mat.MulATB(blk.w2.Grad, bc.ff1, dFF)
	mat.SumRows(blk.b2.Grad.Row(0), dFF)
	dFF1 := mat.NewDense(T, t.Cfg.FFDim)
	mat.MulABT(dFF1, dFF, blk.w2.Value)
	for i, v := range bc.ffPre.Data {
		if v < 0 {
			dFF1.Data[i] = 0
		}
	}
	mat.MulATB(blk.w1.Grad, bc.hNorm, dFF1)
	mat.SumRows(blk.b1.Grad.Row(0), dFF1)
	dHNorm := mat.NewDense(T, d)
	mat.MulABT(dHNorm, dFF1, blk.w1.Value)
	dH := layerNormBackward(dHNorm, &bc.lnMid, blk.ln2g.Value.Row(0),
		blk.ln2g.Grad.Row(0), blk.ln2b.Grad.Row(0))
	// Residual: dH += dOut.
	for i := range dH.Data {
		dH.Data[i] += dOut.Data[i]
	}

	// h = x + attnOut.
	dAttnOut := dH
	mat.MulATB(blk.wo.Grad, bc.concat, dAttnOut)
	dConcat := mat.NewDense(T, d)
	mat.MulABT(dConcat, dAttnOut, blk.wo.Value)

	dQ := mat.NewDense(T, d)
	dK := mat.NewDense(T, d)
	dV := mat.NewDense(T, d)
	dAbuf := make([]float64, T)
	for hd := 0; hd < heads; hd++ {
		off := hd * dk
		a := bc.attn[hd]
		for i := 0; i < T; i++ {
			dci := dConcat.Row(i)[off : off+dk]
			arow := a.Row(i)
			// dA and dV.
			var sumDAA float64
			dArow := dAbuf[:i+1]
			for j := 0; j <= i; j++ {
				dArow[j] = mat.Dot(dci, bc.v.Row(j)[off:off+dk])
				mat.Axpy(arow[j], dci, dV.Row(j)[off:off+dk])
				sumDAA += dArow[j] * arow[j]
			}
			// Softmax backward.
			qi := bc.q.Row(i)[off : off+dk]
			dqi := dQ.Row(i)[off : off+dk]
			for j := 0; j <= i; j++ {
				dS := arow[j] * (dArow[j] - sumDAA) * scale
				mat.Axpy(dS, bc.k.Row(j)[off:off+dk], dqi)
				mat.Axpy(dS, qi, dK.Row(j)[off:off+dk])
			}
		}
	}
	mat.MulATB(blk.wq.Grad, bc.xNorm, dQ)
	mat.MulATB(blk.wk.Grad, bc.xNorm, dK)
	mat.MulATB(blk.wv.Grad, bc.xNorm, dV)
	dXNorm := mat.NewDense(T, d)
	mat.MulABT(dXNorm, dQ, blk.wq.Value)
	mat.MulABT(dXNorm, dK, blk.wk.Value)
	mat.MulABT(dXNorm, dV, blk.wv.Value)
	dX := layerNormBackward(dXNorm, &bc.lnIn, blk.ln1g.Value.Row(0),
		blk.ln1g.Grad.Row(0), blk.ln1b.Grad.Row(0))
	// Residual: dX += dH.
	for i := range dX.Data {
		dX.Data[i] += dH.Data[i]
	}
	return dX
}

// sparseEnough reports whether fewer than a quarter of m's entries are
// nonzero: nn's threshold for sending the embedding's weight gradient
// Xᵀ·dY through MulATBSparse's skip branch (true for the one-hot token
// windows the flavor model trains on).
func sparseEnough(m *mat.Dense) bool {
	nz := 0
	for _, v := range m.Data {
		if v != 0 {
			nz++
		}
	}
	return nz*4 < len(m.Data)
}

// TWindow is the sliding generation context for a Transformer: it keeps
// the last up-to-MaxLen input feature rows and recomputes the forward
// pass over the window at each step (O(L²) per step, acceptable at the
// window sizes this repository uses). The rows live in a fixed ring
// buffer; each Append allocates one forward pass.
type TWindow struct {
	t        *Transformer
	ring     *mat.Dense // [MaxLen x InputDim] circular store of feature rows
	xm       *mat.Dense // [MaxLen x InputDim] packed window, oldest first
	win      mat.Dense  // header over xm's first Len rows
	start, n int
}

// NewWindow returns an empty generation context.
func (t *Transformer) NewWindow() *TWindow {
	return &TWindow{
		t:    t,
		ring: mat.NewDense(t.Cfg.MaxLen, t.Cfg.InputDim),
		xm:   mat.NewDense(t.Cfg.MaxLen, t.Cfg.InputDim),
	}
}

// Append adds one input feature row and returns the output logits for
// the newest position.
func (w *TWindow) Append(x []float64) []float64 {
	if len(x) != w.t.Cfg.InputDim {
		panic(fmt.Sprintf("experiments: window input len %d, want %d", len(x), w.t.Cfg.InputDim))
	}
	L := w.t.Cfg.MaxLen
	copy(w.ring.Row((w.start+w.n)%L), x)
	if w.n < L {
		w.n++
	} else {
		w.start = (w.start + 1) % L
	}
	T := w.n
	for i := 0; i < T; i++ {
		copy(w.xm.Row(i), w.ring.Row((w.start+i)%L))
	}
	w.win.Rows, w.win.Cols = T, w.t.Cfg.InputDim
	w.win.Data = w.xm.Data[:T*w.t.Cfg.InputDim]
	out, _ := w.t.Forward(&w.win)
	return out.Row(T - 1)
}

// Snapshot decode bounds, as nn's for the recurrent nets: every
// dimension is validated before construction sizes an allocation from
// it, so a corrupt or hostile snapshot yields an error, never a panic or
// an absurd allocation.
const (
	maxSnapshotDim    = 1 << 15
	maxSnapshotParams = 1 << 26 // 512 MiB of float64s
)

// checkTransformerConfig validates a decoded config against the
// snapshot bounds.
func checkTransformerConfig(c TransformerConfig) error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.InputDim > maxSnapshotDim || c.ModelDim > maxSnapshotDim ||
		c.Heads > maxSnapshotDim || c.FFDim > maxSnapshotDim ||
		c.Layers > maxSnapshotDim || c.OutputDim > maxSnapshotDim ||
		c.MaxLen > maxSnapshotDim {
		return fmt.Errorf("experiments: snapshot config dimensions exceed limit %d: %+v", maxSnapshotDim, c)
	}
	in, d, f, od := int64(c.InputDim), int64(c.ModelDim), int64(c.FFDim), int64(c.OutputDim)
	total := in*d + d + int64(c.MaxLen)*d // embedding + positions
	total += int64(c.Layers) * (4*d*d + 2*d*f + f + 5*d)
	total += 2*d + d*od + od // final LN + head
	if total > maxSnapshotParams {
		return fmt.Errorf("experiments: snapshot config implies %d params, limit %d", total, maxSnapshotParams)
	}
	return nil
}

// MarshalBinary serializes the Transformer's configuration and weights
// in nn's snapshot wire format.
func (t *Transformer) MarshalBinary() ([]byte, error) {
	return nn.MarshalParams(t.Cfg, t.params)
}

// UnmarshalBinary restores a Transformer serialized with MarshalBinary;
// a failed decode leaves the receiver untouched.
func (t *Transformer) UnmarshalBinary(data []byte) error {
	var cfg TransformerConfig
	var fresh *Transformer
	err := nn.UnmarshalParams(data, &cfg, checkTransformerConfig, func(c TransformerConfig) []*nn.Param {
		fresh = NewTransformer(c, rng.New(0))
		return fresh.params
	})
	if err != nil {
		return err
	}
	*t = *fresh
	return nil
}

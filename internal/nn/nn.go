// Package nn is a from-scratch neural-network substrate standing in for
// the PyTorch stack the paper trained with. It provides a multi-layer
// LSTM (stack.go, nn.go) with full backpropagation-through-time, a
// linear output head, softmax cross-entropy and masked
// binary-cross-entropy-with-logits losses (the two heads the paper's
// flavor and lifetime models use), an Adam optimizer with decoupled
// weight decay, the deterministic sharded trainer, and the batched
// decode fleets. Training is float64 on the stdlib only; the f32 fleets
// serve a rounded copy of the trained weights (fleet.go). Gradients are
// verified against numerical differentiation in the package tests.
//
// Forward/Backward scratch comes from a per-network Workspace (see
// workspace.go), so the steady-state training hot path is
// allocation-free. Forward and Backward are therefore not reentrant on
// one network. Inference steps on a Fleet (fleet.go), which owns its
// state and scratch, so distinct fleets over one network may step
// concurrently; a one-row fleet is the teacher-forced scorer.
package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Param is one learnable tensor together with its gradient accumulator
// and Adam moment estimates.
type Param struct {
	Name  string
	Value *mat.Dense
	Grad  *mat.Dense
	m, v  *mat.Dense // Adam first/second moment estimates
}

// newParam returns a zeroed r×c parameter with its gradient and Adam
// moment buffers.
func newParam(name string, r, c int) *Param {
	return &Param{
		Name:  name,
		Value: mat.NewDense(r, c),
		Grad:  mat.NewDense(r, c),
		m:     mat.NewDense(r, c),
		v:     mat.NewDense(r, c),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Config describes a network: stacked LSTM layers followed by a linear
// head producing OutputDim scores per step.
type Config struct {
	InputDim  int
	HiddenDim int
	Layers    int
	OutputDim int
}

func (c Config) validate() error {
	if c.InputDim <= 0 || c.HiddenDim <= 0 || c.Layers <= 0 || c.OutputDim <= 0 {
		return fmt.Errorf("nn: invalid config %+v", c)
	}
	return nil
}

// LSTM is a stacked LSTM network with a linear output head. Gate order
// within the 4H dimension is input, forget, cell (g), output.
type LSTM struct {
	Cfg    Config
	layers []*layer
	wy     *Param // [H x OutputDim]
	by     *Param // [1 x OutputDim]
	params []*Param
	ws     *Workspace // Forward/Backward scratch arenas, lazily acquired
	plan   windowPlan // a direct Forward's packed Wh and Backward's packed and transposed weights
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward runs the network over xs (a sequence of [B x InputDim] step
// inputs), starting from state st (zero state if nil; st is updated in
// place to the final state). It returns per-step output logits
// [B x OutputDim] and a cache for Backward.
//
// The returned slices, the cache, and the updated state alias the
// network's workspace; they stay valid until the next-but-one Forward
// call on this network. Forward is not safe for concurrent use on one
// network (step distinct Fleets for that).
func (n *LSTM) Forward(xs []*mat.Dense, st *State) ([]*mat.Dense, *Cache) {
	if len(xs) == 0 {
		return nil, &Cache{}
	}
	n.fillForward(&n.plan)
	ar := n.workspace().flip()
	return n.forward(ar, packRows(ar, xs, n.Cfg.InputDim), len(xs), st, &n.plan)
}

// forward is Forward on the rewound arena ar, which holds every buffer
// the pass returns: the outputs, the cache and the updated state stay
// valid until ar is next rewound. X is the T steps' inputs packed into
// one [T·B x InputDim] slab of ar, step t in block t, so layer 0's input
// projection runs as a single sequence-fused product; T must be
// positive. It reads the recurrent weights from the plan p, which must
// hold n's current weights.
func (n *LSTM) forward(ar *arena, X *mat.Dense, T int, st *State, p *windowPlan) ([]*mat.Dense, *Cache) {
	cache := ar.lstmCache(len(n.layers))
	b, h := X.Rows/T, n.Cfg.HiddenDim
	cache.steps, cache.batch, cache.ar, cache.x = T, b, ar, X
	var sH, sC []*mat.Dense
	if st != nil {
		sH, sC = st.H, st.C
	}

	layerX := cache.x
	for l, layer := range n.layers {
		// H and C hold blocks 0..T; block 0 is the incoming state.
		H := stateSlab(ar, sH, l, T, b, h)
		C := stateSlab(ar, sC, l, T, b, h)
		// Sequence-fused input projection: all T steps' x·Wx in one
		// GEMM. The recurrent term and bias are added per step below,
		// preserving the per-element accumulation order (x-terms,
		// h-terms, bias) of the per-step formulation bit for bit.
		Z := ar.slab(T*b, 4*h, true)
		layer.project(Z, layerX)
		TC := ar.slab(T*b, h, false)
		bias := layer.b.Value.Row(0)
		for t := 0; t < T; t++ {
			zt := ar.view(Z, t*b, (t+1)*b)
			mat.MulAddPacked(zt, ar.view(H, t*b, (t+1)*b), p.wh[l])
			// The decode cell kernel, as Fleet.Step runs it: bias, gate
			// activations in place (Z becomes the gate cache) and the
			// c / h update of block t+1, which starts as a copy of block t.
			// It also hands back tanh(c), which Backward needs alone.
			copy(C.Data[(t+1)*b*h:(t+2)*b*h], C.Data[t*b*h:(t+1)*b*h])
			mat.LSTMCell(zt, bias, ar.view(C, (t+1)*b, (t+2)*b), ar.view(H, (t+1)*b, (t+2)*b), ar.view(TC, t*b, (t+1)*b))
		}
		cache.h[l], cache.c[l] = H, C
		cache.z[l], cache.tanhC[l] = Z, TC
		if st != nil {
			st.H[l] = ar.view(H, T*b, (T+1)*b)
			st.C[l] = ar.view(C, T*b, (T+1)*b)
		}
		layerX = ar.view(H, b, (T+1)*b)
	}
	return n.head(cache, layerX), cache
}

// Backward runs backpropagation-through-time. dys holds the gradient of
// the loss with respect to each step's output logits (same shapes as the
// Forward outputs). Gradients are accumulated into the parameters; call
// ZeroGrads first for a fresh minibatch.
//
// Scratch bump-continues on the arena holding the cache, and parameter
// gradients for Wx, Wh and the head accumulate via sequence-fused GEMMs
// over the whole window rather than one small GEMM per step. The
// weights are packed and transposed afresh on every call; a sharded
// window does that once for all its shards instead.
func (n *LSTM) Backward(cache *Cache, dys []*mat.Dense) {
	if len(dys) != cache.T() {
		panic(fmt.Sprintf("nn: Backward got %d grads for %d steps", len(dys), cache.T()))
	}
	if cache.T() == 0 {
		return
	}
	n.fillBackward(&n.plan)
	n.backward(cache, packRows(cache.ar, dys, n.Cfg.OutputDim), &n.plan)
}

// backward is Backward from the output gradients DY, the T steps'
// packed into one [T·B x OutputDim] slab (step t in block t) on the
// arena holding cache, against the plan p, which it only reads.
func (n *LSTM) backward(cache *Cache, DY *mat.Dense, p *windowPlan) {
	// DH holds, for the layer currently being processed, the gradient
	// arriving from above at every step: from the head for the top
	// layer, then from layer l's input projection for layer l-1.
	DH := n.headBackward(cache, DY, p)
	T, b, h, ar := cache.steps, cache.batch, n.Cfg.HiddenDim, cache.ar
	DZ := ar.slab(T*b, 4*h, false) // pre-activation grads, fully written per layer
	dc := ar.slab(b, h, false)     // carried cell gradient
	dhrec := ar.slab(b, h, false)  // carried recurrent hidden gradient
	for l := len(n.layers) - 1; l >= 0; l-- {
		C, Z, TC := cache.c[l], cache.z[l], cache.tanhC[l]
		dc.Zero()
		dhrec.Zero()
		for t := T - 1; t >= 0; t-- {
			for r := 0; r < b; r++ {
				row := t*b + r
				dhRow, recRow, dcRow := DH.Row(row), dhrec.Row(r), dc.Row(r)
				zRow := Z.Row(row)
				iRow, fRow, gRow, oRow := zRow[:h], zRow[h:2*h], zRow[2*h:3*h], zRow[3*h:]
				tcRow, cpRow := TC.Row(row), C.Row(row) // block t: previous cell
				dzRow := DZ.Row(row)
				for j := 0; j < h; j++ {
					dH := dhRow[j] + recRow[j]
					doj := dH * tcRow[j]
					dcj := dcRow[j] + dH*oRow[j]*(1-tcRow[j]*tcRow[j])
					dij := dcj * gRow[j]
					dfj := dcj * cpRow[j]
					dgj := dcj * iRow[j]
					// Pre-activation gradients.
					dzRow[j] = dij * iRow[j] * (1 - iRow[j])
					dzRow[h+j] = dfj * fRow[j] * (1 - fRow[j])
					dzRow[2*h+j] = dgj * (1 - gRow[j]*gRow[j])
					dzRow[3*h+j] = doj * oRow[j] * (1 - oRow[j])
					// Gradient to previous cell.
					dcRow[j] = dcj * fRow[j]
				}
			}
			// Recurrent gradient into step t-1: dz_t·whᵀ into the zeroed
			// dhrec.
			if t > 0 {
				dzt := ar.view(DZ, t*b, (t+1)*b)
				dhrec.Zero()
				mat.MulAddPacked(dhrec, dzt, p.whT[l])
			}
		}
		n.layerGrads(cache, l, DZ, DH, p)
	}
}

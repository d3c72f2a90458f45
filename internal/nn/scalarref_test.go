package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Scalar reference passes. These are the Forward/Backward bodies as
// they stood before the per-step products moved onto the vector GEMM
// kernels, a per-layer whᵀ and the vectorized gate activations: scalar
// sigmoid/math.Tanh per element, and every matrix product a plain loop
// nest with each element's k terms ascending (dot-then-add for a·bᵀ),
// independent of internal/mat's dispatch. The production passes must
// reproduce them bit for bit; TestForwardBackwardMatchesScalarReference
// compares every cache slab, output, final state and gradient, and the
// f64 fleet tests compare every logit of a fleet step (refSolo).

// refMulAdd computes dst += a·b, ascending k per element, skipping zero
// a-elements when skipZero (the MulAddSparse contract).
func refMulAdd(dst, a, b *mat.Dense, skipZero bool) {
	for i := 0; i < a.Rows; i++ {
		for k, av := range a.Row(i) {
			if skipZero && av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				dst.Data[i*dst.Cols+j] += av * bv
			}
		}
	}
}

// refMulATB computes dst += aᵀ·b, ascending k per element, skipping
// zero a-elements when skipZero (layer 0's row-sum gradient).
func refMulATB(dst, a, b *mat.Dense, skipZero bool) {
	for k := 0; k < a.Rows; k++ {
		for i, av := range a.Row(k) {
			if skipZero && av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				dst.Data[i*dst.Cols+j] += av * bv
			}
		}
	}
}

// refSumRows adds every row of m into the one-row dst, rows ascending.
func refSumRows(dst, m *mat.Dense) {
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j] += v
		}
	}
}

// refMulABT computes dst += a·bᵀ, each dot product rounded from zero
// before the single add into dst.
func refMulABT(dst, a, b *mat.Dense) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k, av := range a.Row(i) {
				s += av * b.Data[j*b.Cols+k]
			}
			dst.Data[i*dst.Cols+j] += s
		}
	}
}

func packSteps(xs []*mat.Dense) *mat.Dense {
	b, c := xs[0].Rows, xs[0].Cols
	out := mat.NewDense(len(xs)*b, c)
	for t, x := range xs {
		copy(out.Data[t*b*c:], x.Data)
	}
	return out
}

// refLSTM is what the scalar passes compute: the cache slabs in Cache
// layout (h and c with T+1 blocks), the fused output slab, and (from
// refLSTMPass) the gradients keyed by parameter.
type refLSTM struct {
	h, c, i, f, g, o, tanhC []*mat.Dense
	y                       *mat.Dense
	grads                   map[*Param]*mat.Dense
}

// refLSTMForward is the scalar LSTM forward from state st, which it
// updates in place to the final state, as Forward does. It is the one
// scalar reference of the package: TestForwardBackwardMatchesScalarReference
// holds training's Forward to it, and refSolo, stepped one row at a
// time, holds every f64 fleet to it.
func refLSTMForward(n *LSTM, xs []*mat.Dense, st *State) *refLSTM {
	T, b, h := len(xs), xs[0].Rows, n.Cfg.HiddenDim
	ref := &refLSTM{}
	layerX := packSteps(xs)
	for l, layer := range n.layers {
		H, C := mat.NewDense((T+1)*b, h), mat.NewDense((T+1)*b, h)
		copy(H.Data, st.H[l].Data)
		copy(C.Data, st.C[l].Data)
		I, F := mat.NewDense(T*b, h), mat.NewDense(T*b, h)
		G, O := mat.NewDense(T*b, h), mat.NewDense(T*b, h)
		TC := mat.NewDense(T*b, h)
		Z := mat.NewDense(T*b, 4*h)
		refMulAdd(Z, layerX, layer.wx.Value, layer.first)
		for t := 0; t < T; t++ {
			zt := Z.SliceRows(t*b, (t+1)*b)
			refMulAdd(zt, H.SliceRows(t*b, (t+1)*b), layer.wh.Value, false)
			mat.AddBiasRows(zt, layer.b.Value.Row(0))
			for r := 0; r < b; r++ {
				row := t*b + r
				zrow := zt.Row(r)
				for j := 0; j < h; j++ {
					ij := sigmoid(zrow[j])
					fj := sigmoid(zrow[h+j])
					gj := math.Tanh(zrow[2*h+j])
					oj := sigmoid(zrow[3*h+j])
					cj := fj*C.At(row, j) + ij*gj
					tcj := math.Tanh(cj)
					I.Set(row, j, ij)
					F.Set(row, j, fj)
					G.Set(row, j, gj)
					O.Set(row, j, oj)
					C.Set(row+b, j, cj)
					TC.Set(row, j, tcj)
					H.Set(row+b, j, oj*tcj)
				}
			}
		}
		ref.h, ref.c = append(ref.h, H), append(ref.c, C)
		ref.i, ref.f = append(ref.i, I), append(ref.f, F)
		ref.g, ref.o = append(ref.g, G), append(ref.o, O)
		ref.tanhC = append(ref.tanhC, TC)
		layerX = H.SliceRows(b, (T+1)*b)
	}
	ref.y = mat.NewDense(T*b, n.Cfg.OutputDim)
	refMulAdd(ref.y, layerX, n.wy.Value, false)
	mat.AddBiasRows(ref.y, n.by.Value.Row(0))
	for l := range st.H {
		copy(st.H[l].Data, ref.h[l].Data[T*b*h:])
		copy(st.C[l].Data, ref.c[l].Data[T*b*h:])
	}
	return ref
}

// refLSTMPass is refLSTMForward followed by the scalar backward pass
// against the output gradients dys.
func refLSTMPass(n *LSTM, xs []*mat.Dense, st *State, dys []*mat.Dense) *refLSTM {
	T, b, h := len(xs), xs[0].Rows, n.Cfg.HiddenDim
	ref := refLSTMForward(n, xs, st)
	X := packSteps(xs)
	ref.grads = map[*Param]*mat.Dense{}
	for _, p := range n.params {
		ref.grads[p] = mat.NewDense(p.Grad.Rows, p.Grad.Cols)
	}
	grad := func(p *Param) *mat.Dense { return ref.grads[p] }
	nl := len(n.layers)
	DY := packSteps(dys)
	refMulATB(grad(n.wy), ref.h[nl-1].SliceRows(b, (T+1)*b), DY, false)
	refSumRows(grad(n.by), DY)
	DH := mat.NewDense(T*b, h)
	refMulABT(DH, DY, n.wy.Value)
	DZ := mat.NewDense(T*b, 4*h)
	for l := nl - 1; l >= 0; l-- {
		layer := n.layers[l]
		C, I, F, G, O, TC := ref.c[l], ref.i[l], ref.f[l], ref.g[l], ref.o[l], ref.tanhC[l]
		dc, dhrec := mat.NewDense(b, h), mat.NewDense(b, h)
		for t := T - 1; t >= 0; t-- {
			for r := 0; r < b; r++ {
				row := t*b + r
				dzRow := DZ.Row(row)
				for j := 0; j < h; j++ {
					dH := DH.At(row, j) + dhrec.At(r, j)
					doj := dH * TC.At(row, j)
					dcj := dc.At(r, j) + dH*O.At(row, j)*(1-TC.At(row, j)*TC.At(row, j))
					dij := dcj * G.At(row, j)
					dfj := dcj * C.At(row, j)
					dgj := dcj * I.At(row, j)
					dzRow[j] = dij * I.At(row, j) * (1 - I.At(row, j))
					dzRow[h+j] = dfj * F.At(row, j) * (1 - F.At(row, j))
					dzRow[2*h+j] = dgj * (1 - G.At(row, j)*G.At(row, j))
					dzRow[3*h+j] = doj * O.At(row, j) * (1 - O.At(row, j))
					dc.Set(r, j, dcj*F.At(row, j))
				}
			}
			if t > 0 {
				dhrec.Zero()
				refMulABT(dhrec, DZ.SliceRows(t*b, (t+1)*b), layer.wh.Value)
			}
		}
		xl := X
		if l > 0 {
			xl = ref.h[l-1].SliceRows(b, (T+1)*b)
		}
		refMulATB(grad(layer.wx), xl, DZ, layer.first)
		refMulATB(grad(layer.wh), ref.h[l].SliceRows(0, T*b), DZ, false)
		refSumRows(grad(layer.b), DZ)
		if l > 0 {
			DH.Zero()
			refMulABT(DH, DZ, layer.wx.Value)
		}
	}
	return ref
}

func sameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %v, want %v", what, got, want)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d]: got %v (%x), scalar reference %v (%x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// gateBlock copies column block k (width h) of every layer's gate slab
// out into a [T·B x H] matrix: the LSTM cache keeps its i, f, g and o
// activations as the four blocks of one slab.
func gateBlock(zs []*mat.Dense, k, h int) []*mat.Dense {
	out := make([]*mat.Dense, len(zs))
	for l, z := range zs {
		out[l] = mat.NewDense(z.Rows, h)
		for r := 0; r < z.Rows; r++ {
			copy(out[l].Row(r), z.Row(r)[k*h:(k+1)*h])
		}
	}
	return out
}

func sameBitsAll(t *testing.T, what string, got, want []*mat.Dense) {
	t.Helper()
	for l := range want {
		sameBits(t, fmt.Sprintf("%s layer %d", what, l), got[l], want[l])
	}
}

// refInputs builds T step inputs of b rows: dense normals scaled to
// reach both branches of tanh, or one-hot rows plus two dense feature
// columns (like the token encodings training feeds, which layer 0's
// row-sum kernels pay for by their non-zeros).
func refInputs(g *rng.RNG, T, b, dim int, oneHot bool) []*mat.Dense {
	xs := make([]*mat.Dense, T)
	for t := range xs {
		x := mat.NewDense(b, dim)
		for r := 0; r < b; r++ {
			row := x.Row(r)
			if oneHot {
				row[g.Intn(dim-2)] = 1
				row[dim-2], row[dim-1] = g.NormFloat64(), g.NormFloat64()
				continue
			}
			for j := range row {
				row[j] = 2 * g.NormFloat64()
			}
		}
		xs[t] = x
	}
	return xs
}

func randFill(g *rng.RNG, ms []*mat.Dense) {
	for _, m := range ms {
		for i := range m.Data {
			m.Data[i] = g.NormFloat64()
		}
	}
}

// TestForwardBackwardMatchesScalarReference pins the LSTM's
// Forward/Backward to the scalar reference passes above, bit for bit:
// every cache slab, the outputs, the final state and every gradient,
// at batch widths on both sides of the one-row training shard and
// hidden sizes that are and are not a multiple of the 4-lane gate
// kernels (h=5 runs their padded tail vector), from a nonzero initial
// state, over dense and one-hot inputs.
func TestForwardBackwardMatchesScalarReference(t *testing.T) {
	const inDim, outDim, T = 9, 6, 5
	for _, b := range []int{1, 3, 8} {
		for _, h := range []int{5, 24, 48} {
			for _, oneHot := range []bool{false, true} {
				name := fmt.Sprintf("b%d_h%d_onehot%v", b, h, oneHot)
				cfg := Config{InputDim: inDim, HiddenDim: h, Layers: 2, OutputDim: outDim}
				t.Run("lstm_"+name, func(t *testing.T) {
					g := rng.New(int64(100*b + h))
					n := NewLSTM(cfg, g)
					xs := refInputs(g, T, b, inDim, oneHot)
					dys := randInputs(g, T, b, outDim)
					st := n.NewState(b)
					randFill(g, st.H)
					randFill(g, st.C)
					ref := refLSTMPass(n, xs, cloneState(st), dys)

					n.ZeroGrads()
					ys, cache := n.Forward(xs, st)
					n.Backward(cache, dys)
					sameBitsAll(t, "h", cache.h, ref.h)
					sameBitsAll(t, "c", cache.c, ref.c)
					sameBitsAll(t, "i", gateBlock(cache.z, 0, h), ref.i)
					sameBitsAll(t, "f", gateBlock(cache.z, 1, h), ref.f)
					sameBitsAll(t, "g", gateBlock(cache.z, 2, h), ref.g)
					sameBitsAll(t, "o", gateBlock(cache.z, 3, h), ref.o)
					sameBitsAll(t, "tanhC", cache.tanhC, ref.tanhC)
					sameBits(t, "ys", packSteps(ys), ref.y)
					for l := range st.H {
						sameBits(t, "final H", st.H[l], ref.h[l].SliceRows(T*b, (T+1)*b))
						sameBits(t, "final C", st.C[l], ref.c[l].SliceRows(T*b, (T+1)*b))
					}
					for _, p := range n.Params() {
						sameBits(t, "grad "+p.Name, p.Grad, ref.grads[p])
					}
				})
			}
		}
	}
}

package nn

import (
	"fmt"

	"repro/internal/mat"
)

// This file is the batched decode fleet (DESIGN.md §6.2), written once
// over the element type: Fleet[float64] is the bit-exact serving path
// and Fleet[float32] the fast one (§6.4), each stepping on panel-packed
// weights (§6.5). What differs per type is confined to
// two places: where the step weights come from (stepWeights) and the
// kernels behind internal/mat's generic GEMMs and LSTMCell.

// StepFleet is the decode-fleet surface the batching engines drive;
// both Fleet instantiations implement it behind a float64 facade —
// InputRow hands out f64 staging rows and Step returns f64 logits — so
// the decode scheduler and samplers in internal/core are
// precision-blind. See Fleet for the row-index protocol.
type StepFleet interface {
	Rows() int
	Admit() int
	Retire(row int) (moved int)
	InputRow(i int) []float64
	Step(rows []int) *mat.Dense
}

// stepLayer is one layer's step weights. Gate order within the 4H
// dimension is input, forget, cell (g), output, as in the LSTM.
type stepLayer[T float32 | float64] struct {
	first  bool           // layer 0: the input is a feature encoding, stepped by row sums
	wx, wh *mat.Matrix[T] // [in x 4H], [H x 4H]
	b      []T            // [4H]
}

// stepWeights is everything one decode step reads of a network, at
// element type T: layer 0's input matrix and the biases directly, the
// other matrices through their panels (pack). At float64 it is a view:
// the matrices are the trainable LSTM's own, so a fleet steps on exactly
// the weights training updates. At float32 it is LSTM32's frozen,
// rounded copy.
type stepWeights[T float32 | float64] struct {
	cfg    Config
	layers []stepLayer[T]
	wy     *mat.Matrix[T] // [H x OutputDim]
	by     []T            // [OutputDim]
}

// stepWeights returns the f64 view of the network's decode weights.
func (n *LSTM) stepWeights() *stepWeights[float64] {
	w := &stepWeights[float64]{cfg: n.Cfg, wy: n.wy.Value, by: n.by.Value.Row(0)}
	for _, l := range n.layers {
		w.layers = append(w.layers, stepLayer[float64]{l.first, l.wx.Value, l.wh.Value, l.b.Value.Row(0)})
	}
	return w
}

// LSTM32 is a frozen float32 snapshot of an LSTM's weights for the f32
// serving path. It holds no gradients and cannot train; build one per
// published model snapshot with Convert32.
type LSTM32 struct {
	w *stepWeights[float32]
}

// Convert32 returns a float32 copy of the network's weights, each
// element rounded once (to nearest even). The copy is immutable by
// convention and safe to share across fleets and goroutines.
func (n *LSTM) Convert32() *LSTM32 {
	w := &stepWeights[float32]{cfg: n.Cfg, wy: n.wy.Value.Dense32(), by: n.by.Value.Dense32().Data}
	for _, l := range n.layers {
		w.layers = append(w.layers, stepLayer[float32]{
			l.first, l.wx.Value.Dense32(), l.wh.Value.Dense32(), l.b.Value.Dense32().Data,
		})
	}
	return &LSTM32{w}
}

// PackedLSTM is a publish-time conversion of a network's decode
// matrices (wx, wh, wy) into cache-blocked panels for the packed step
// kernels (DESIGN.md §6.5); biases stay plain slices, added after the
// GEMMs. Packing copies values bit-for-bit and the packed kernels
// accumulate in exactly the row-major order, so a fleet's logits equal
// Forward's — panels change where weights live, never what they
// compute. Training never reads it: the
// optimizer updates the unpacked Params, and serving snapshots re-pack
// from those.
//
// A PackedLSTM is immutable after Pack and safe to share across fleets
// and goroutines; build one per published snapshot (internal/core
// caches it next to the model's f32 conversion) and rebuild on hot
// reload — a reloaded model value starts with an empty cache, so stale
// panels cannot survive a weight swap.
type PackedLSTM[T float32 | float64] struct {
	layers []packedLayer[T]
	wy     *mat.Packed[T] // [H x OutputDim]
}

// packedLayer holds one layer's panel-packed step matrices. Layer 0
// has no wx panel: its input product is a row sum over the row-major
// matrix (Fleet.Step), so a panel would never be read.
type packedLayer[T float32 | float64] struct {
	wx, wh *mat.Packed[T] // [in x 4H] (nil on layer 0), [H x 4H]
}

// Fleet32 and PackedLSTM32 name the float32 instantiations.
type (
	Fleet32      = Fleet[float32]
	PackedLSTM32 = PackedLSTM[float32]
)

func (w *stepWeights[T]) pack() *PackedLSTM[T] {
	p := &PackedLSTM[T]{wy: w.wy.Pack()}
	for _, l := range w.layers {
		pl := packedLayer[T]{wh: l.wh.Pack()}
		if !l.first {
			pl.wx = l.wx.Pack()
		}
		p.layers = append(p.layers, pl)
	}
	return p
}

// Pack converts the network's decode weights into panels. Call at
// snapshot publish; the result is valid until the weights change.
func (n *LSTM) Pack() *PackedLSTM[float64] { return n.stepWeights().pack() }

// Pack converts the f32 snapshot's decode weights into panels.
func (n *LSTM32) Pack() *PackedLSTM32 { return n.w.pack() }

// Fleet is the network's one inference step, for decode and for
// teacher-forced scoring alike (a scorer is a one-row fleet): it owns
// per-layer hidden/cell state for many concurrent streams as
// row slices of shared slabs and advances any subset of them through
// one set of batched step GEMMs (DESIGN.md §6.2). Streams are admitted
// with Admit (a row index) and retired with Retire, which compacts the
// slabs by swap-remove so every batched GEMM runs over contiguous
// rows.
//
// Per stream, a Fleet[float64] step is bit-identical to a one-step
// Forward from that stream's state, and to the scalar reference
// forward nn's tests keep: the packed GEMM, like every GEMM kernel,
// accumulates each output element's k-terms in ascending order
// regardless of batch size, tile grouping, or worker count;
// mat.LSTMCell computes exactly the scalar gate loop's operations; and
// layer 0 runs Forward's skip-zero row-sum kernel on every row, so the
// two skip the same terms.
// A Fleet[float32] step keeps every one of those properties among f32
// steps — deterministic, and independent of which other streams share
// the batch — and gives up only bit-parity with the f64 path: state
// lives in f32 slabs, GEMMs and activations run the native f32 kernels,
// and outputs diverge within the tolerance validated at snapshot
// publish (core.ValidateF32).
//
// A Fleet is not safe for concurrent use; the decode scheduler in
// internal/core drives it from one goroutine. Distinct Fleets, however,
// may be stepped concurrently (the decode engine runs one per shard):
// every slab and scratch buffer is owned by its Fleet alone and starts
// on a 64-byte boundary (mat.NewAligned), so two shards never share —
// truly or falsely — a cache line; alignment changes addresses, never
// values. Steady-state Step calls allocate nothing (scratch grows only
// when Admit outgrows capacity).
type Fleet[T float32 | float64] struct {
	w   *stepWeights[T]
	n   int // live streams (rows 0..n-1 of h/c)
	cap int // slab capacity in rows

	// Persistent per-stream state, one row per stream, per layer.
	h, c []*mat.Matrix[T] // [cap x H]

	// The float64 facade: staged step inputs and returned logits. xt and
	// yt are what the step itself reads and writes — x and y themselves
	// at float64, narrowed and widened copies otherwise (cast).
	x, y   *mat.Dense     // [cap x InputDim], [cap x OutputDim]
	xt, yt *mat.Matrix[T] // same shapes
	cast   bool

	// Step scratch, sized to cap and viewed down to the subset per call:
	// gathered per-layer state and gate pre-activations.
	gh, gc []*mat.Matrix[T] // [cap x H]
	z      *mat.Matrix[T]   // [cap x 4H]

	// Preallocated view headers so Step performs no allocation: k-row
	// prefixes of the staging and scratch slabs.
	yv           mat.Dense
	xtv, ytv, zv mat.Matrix[T]
	ghv, gcv     []mat.Matrix[T]

	// Packed serving weights: every step GEMM but layer 0's reads these.
	panels *PackedLSTM[T]
}

// newFleet is the one fleet constructor: an empty fleet over w with
// room for capacity streams (it grows as needed), stepping on panels p.
// p must be w's current weights, packed: the kernels check its shapes,
// nothing can check its values here, and panels of other or older
// weights decode wrong traces — which is why core.ValidateF32 steps the
// packed fleets at publish. A nil p panics: there is no row-major fleet.
func newFleet[T float32 | float64](w *stepWeights[T], capacity int, p *PackedLSTM[T]) *Fleet[T] {
	if p == nil {
		panic("nn: a fleet needs its network's packed panels")
	}
	f := &Fleet[T]{w: w, panels: p}
	f.alloc(max(capacity, 1))
	return f
}

// NewFleetPacked returns an empty fleet with initial capacity for the
// given number of streams, stepping on panels p, which must have been
// packed from this network (Pack); a nil p panics.
func (n *LSTM) NewFleetPacked(capacity int, p *PackedLSTM[float64]) *Fleet[float64] {
	return newFleet(n.stepWeights(), capacity, p)
}

// NewFleet32Packed is NewFleetPacked over the converted f32 weights.
func (n *LSTM32) NewFleet32Packed(capacity int, p *PackedLSTM32) *Fleet32 {
	return newFleet(n.w, capacity, p)
}

// alloc (re)creates the slabs at the given row capacity, preserving
// the first f.n rows of the persistent state. Every slab is allocated
// cache-line-aligned and owned exclusively by this fleet, so per-shard
// fleets stepped in parallel contend on nothing.
func (f *Fleet[T]) alloc(capacity int) {
	cfg := f.w.cfg
	nl := len(f.w.layers)
	h := make([]*mat.Matrix[T], nl)
	c := make([]*mat.Matrix[T], nl)
	f.gh = make([]*mat.Matrix[T], nl)
	f.gc = make([]*mat.Matrix[T], nl)
	for l := 0; l < nl; l++ {
		h[l] = mat.NewAligned[T](capacity, cfg.HiddenDim)
		c[l] = mat.NewAligned[T](capacity, cfg.HiddenDim)
		if f.n > 0 {
			copy(h[l].Data, f.h[l].Data[:f.n*cfg.HiddenDim])
			copy(c[l].Data, f.c[l].Data[:f.n*cfg.HiddenDim])
		}
		f.gh[l] = mat.NewAligned[T](capacity, cfg.HiddenDim)
		f.gc[l] = mat.NewAligned[T](capacity, cfg.HiddenDim)
	}
	f.h, f.c = h, c
	f.cap = capacity
	f.x = mat.NewAligned[float64](capacity, cfg.InputDim)
	f.y = mat.NewAligned[float64](capacity, cfg.OutputDim)
	if xt, ok := any(f.x).(*mat.Matrix[T]); ok {
		f.xt, f.yt = xt, any(f.y).(*mat.Matrix[T])
	} else {
		f.cast = true
		f.xt = mat.NewAligned[T](capacity, cfg.InputDim)
		f.yt = mat.NewAligned[T](capacity, cfg.OutputDim)
	}
	f.z = mat.NewAligned[T](capacity, 4*cfg.HiddenDim)
	f.ghv = make([]mat.Matrix[T], nl)
	f.gcv = make([]mat.Matrix[T], nl)
}

// Rows returns the number of live streams.
func (f *Fleet[T]) Rows() int { return f.n }

// Admit adds a stream with zero initial state and returns its row
// index. The index stays valid until the stream retires or a later
// Retire moves it (see Retire's return value).
func (f *Fleet[T]) Admit() int {
	if f.n == f.cap {
		f.alloc(2 * f.cap)
	}
	row := f.n
	f.n++
	for l := range f.h {
		clear(f.h[l].Row(row))
		clear(f.c[l].Row(row))
	}
	return row
}

// Retire removes the stream in the given row. To keep the live rows
// contiguous it moves the last live row into the freed slot
// (swap-remove compaction) and returns that row's previous index so
// the caller can re-point whichever stream owned it; -1 means nothing
// moved. State copies are exact, so compaction never perturbs decode
// results.
func (f *Fleet[T]) Retire(row int) (moved int) {
	if row < 0 || row >= f.n {
		panic(fmt.Sprintf("nn: Fleet.Retire row %d of %d", row, f.n))
	}
	last := f.n - 1
	moved = -1
	if row != last {
		for l := range f.h {
			copy(f.h[l].Row(row), f.h[l].Row(last))
			copy(f.c[l].Row(row), f.c[l].Row(last))
		}
		moved = last
	}
	f.n = last
	return moved
}

// InputRow returns the i-th float64 input buffer for the next Step call
// (slot i feeds rows[i]). The caller must fully overwrite it before
// Step.
func (f *Fleet[T]) InputRow(i int) []float64 { return f.x.Row(i) }

// viewRows points header v at the first k rows of m.
func viewRows[T float32 | float64](v, m *mat.Matrix[T], k int) *mat.Matrix[T] {
	v.Rows, v.Cols = k, m.Cols
	v.Data = m.Data[:k*m.Cols]
	return v
}

// Step advances the streams in rows[i] (i = 0..len(rows)-1) by one
// LSTM step, consuming input slot i for rows[i], and returns the
// [len(rows) x OutputDim] logits as float64 (row i for rows[i]; valid
// until the next Step). Rows not listed are untouched. The subset is
// gathered into contiguous scratch, advanced through shared batched
// GEMMs, and scattered back; per stream the result is independent of
// the rest of the batch, and at float64 bit-identical to Forward.
func (f *Fleet[T]) Step(rows []int) *mat.Dense {
	k := len(rows)
	out := viewRows(&f.yv, f.y, k)
	if k == 0 {
		return out
	}

	// Gather the subset's state into contiguous rows.
	for l := range f.h {
		gh, gc := f.gh[l], f.gc[l]
		hl, cl := f.h[l], f.c[l]
		for i, r := range rows {
			copy(gh.Row(i), hl.Row(r))
			copy(gc.Row(i), cl.Row(r))
		}
	}

	in := viewRows(&f.xtv, f.xt, k)
	if f.cast {
		// Narrow the staged f64 inputs once; the one-hot and bounded-scalar
		// encodings the decode path feeds are exactly representable, so
		// this rounds nothing in practice.
		for i, v := range f.x.Data[:len(in.Data)] {
			in.Data[i] = T(v)
		}
	}
	Z := viewRows(&f.zv, f.z, k)
	for l, layer := range f.w.layers {
		pw := &f.panels.layers[l]
		Z.Zero()
		if layer.first {
			// Layer 0 sums the weight rows its input selects, as
			// Forward does — every row, sparse or not (the row-sum
			// kernel reads the row-major matrix; there is no layer-0 panel).
			mat.MulAddSparse(Z, in, layer.wx)
		} else {
			mat.MulAddPacked(Z, in, pw.wx)
		}
		H := viewRows(&f.ghv[l], f.gh[l], k)
		mat.MulAddPacked(Z, H, pw.wh)
		// Bias, gate activations and the c / h updates for every gathered
		// row: per element exactly what the scalar gate loop computes,
		// in the same mul/add order.
		mat.LSTMCell(Z, layer.b, viewRows(&f.gcv[l], f.gc[l], k), H)
		in = H
	}
	Y := viewRows(&f.ytv, f.yt, k)
	Y.Zero()
	mat.MulAddPacked(Y, in, f.panels.wy)
	mat.AddBiasRows(Y, f.w.by)

	// Scatter the advanced state back to the streams' home rows.
	for l := range f.h {
		gh, gc := f.gh[l], f.gc[l]
		hl, cl := f.h[l], f.c[l]
		for i, r := range rows {
			copy(hl.Row(r), gh.Row(i))
			copy(cl.Row(r), gc.Row(i))
		}
	}
	if f.cast {
		// Widen the logits for the precision-blind consumers (softmax,
		// sampling, and tracing all stay f64).
		for i, v := range Y.Data {
			out.Data[i] = float64(v)
		}
	}
	return out
}

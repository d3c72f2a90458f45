package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mat"
	"repro/internal/mat/mattest"
	"repro/internal/par"
	"repro/internal/rng"
)

func fleetTestNet() *LSTM {
	return NewLSTM(Config{InputDim: 9, HiddenDim: 8, Layers: 2, OutputDim: 5}, rng.New(7))
}

// fleetLifetimeShape is the lifetime/hazard LSTM of the 9-day fixture:
// a 151-wide input (40 temporal + 16 flavor one-hot + 1 batch-size
// scalar + 2×47 previous-lifetime columns) that lifetimeRow fills the
// way core's encoder does — one-hots and survival ("thermometer") runs,
// ~40 % non-zero, all of them 1.0 but the scalar. Every decode round of
// a lifetime-phase stream steps this shape.
var fleetLifetimeShape = Config{InputDim: 151, HiddenDim: 24, Layers: 2, OutputDim: 47}

// fleetNets are the networks of the per-stream identity, alloc-pin and
// concurrent-shard tests: the small mixed one-hot / dense protocol net
// and the lifetime shape.
func fleetNets() []*LSTM {
	return []*LSTM{fleetTestNet(), NewLSTM(fleetLifetimeShape, rng.New(7))}
}

// lifetimeRow writes a lifetime-shaped step input for stream s at step
// t: 53–61 non-zeros of 151, as features.LifetimeFeatures encodes a
// terminated previous job (bins 0..b survived, bins b.. terminated).
// No RNG, so the alloc pins can call it inside the measured loop.
func lifetimeRow(dst []float64, s, t int) {
	clear(dst)
	u := 7*s + 3*t
	dst[u%24] = 1   // hour of day
	dst[24+u%7] = 1 // day of week
	for j := 0; j <= u%9; j++ {
		dst[31+j] = 1 // history day, survival-encoded
	}
	dst[40+u%16] = 1                       // flavor
	dst[56] = math.Log1p(float64(1 + u%5)) // batch size: the one real-valued column
	bin := (5 * u) % 47
	for j := 0; j <= bin; j++ {
		dst[57+j] = 1 // previous lifetime bin, survival-encoded
	}
	for j := bin; j < 47; j++ {
		dst[104+j] = 1 // previous termination indicators
	}
}

// fleetCell is one element-type instantiation of the fleet. The
// protocol tests below are written once against StepFleet and run over
// the cells, so the f32 fleet is held to exactly the contract the f64
// one is.
type fleetCell struct {
	name string
	// fleet builds the fleet under test over net's weights.
	fleet func(net *LSTM, capacity int) StepFleet
	// solo returns a fresh single-stream reference decoder: the scalar
	// reference forward at f64 (refSolo), a dedicated one-row fleet at f32
	// (batch-composition invariance — f32 has no scalar reference; its
	// bits are pinned by golden_test.go).
	solo func(net *LSTM) func(x []float64) []float64
}

// refSolo returns a one-stream scalar decoder: each call is a one-step
// refLSTMForward on the state it carries, the same reference training's
// Forward is held to.
func refSolo(net *LSTM) func(x []float64) []float64 {
	st := net.NewState(1)
	return func(x []float64) []float64 {
		xm := mat.NewDense(1, len(x))
		copy(xm.Data, x)
		return refLSTMForward(net, []*mat.Dense{xm}, st).y.Row(0)
	}
}

func fleet32Solo(net *LSTM) func(x []float64) []float64 {
	n32 := net.Convert32()
	f := n32.NewFleet32Packed(1, n32.Pack())
	f.Admit()
	return func(x []float64) []float64 {
		copy(f.InputRow(0), x)
		return f.Step([]int{0}).Row(0)
	}
}

var fleetCells = []fleetCell{
	{"f64/packed", func(net *LSTM, c int) StepFleet { return net.NewFleetPacked(c, net.Pack()) }, refSolo},
	{"f32/packed", func(net *LSTM, c int) StepFleet {
		n32 := net.Convert32()
		return n32.NewFleet32Packed(c, n32.Pack())
	}, fleet32Solo},
}

// forFleetCells runs body as a subtest of every cell whose name
// contains pattern ("f64", "f32", "/packed"), on the assembly and on
// the portable kernels.
func forFleetCells(t *testing.T, pattern string, body func(t *testing.T, c fleetCell)) {
	for _, c := range fleetCells {
		if strings.Contains(c.name, pattern) {
			t.Run(c.name, func(t *testing.T) {
				mattest.BothTiers(t, func(t *testing.T) { body(t, c) })
			})
		}
	}
}

// fleetInput writes a deterministic step input for stream s at step t.
// On the lifetime shape every stream gets a lifetime-shaped row. On any
// other, odd streams get one-hot rows and even streams dense rows, so
// one batch mixes the cheapest and the costliest input of layer 0's
// row-sum kernel.
func fleetInput(dst []float64, s, t int) {
	if len(dst) == fleetLifetimeShape.InputDim {
		lifetimeRow(dst, s, t)
		return
	}
	clear(dst)
	if s%2 == 1 {
		dst[(s+t)%len(dst)] = 1
		return
	}
	g := rng.New(int64(1000*s + t))
	for i := range dst {
		dst[i] = g.NormFloat64()
	}
}

// checkLogits fails unless got and want agree bit for bit.
func checkLogits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s logit %d: fleet %v, reference %v", what, j, got[j], want[j])
		}
	}
}

// testFleetMatchesSolo drives interleaved subsets of streams through
// one shared fleet and asserts every logit is bit-identical to the same
// stream advanced alone by the cell's reference decoder.
func testFleetMatchesSolo(t *testing.T, c fleetCell) {
	for _, net := range fleetNets() {
		testFleetMatchesSoloOn(t, c, net)
	}
}

func testFleetMatchesSoloOn(t *testing.T, c fleetCell, net *LSTM) {
	const streams = 6
	f := c.fleet(net, streams)
	solo := make([]func([]float64) []float64, streams)
	rows := make([]int, streams)
	for s := 0; s < streams; s++ {
		rows[s] = f.Admit()
		solo[s] = c.solo(net)
	}
	steps := make([]int, streams) // per-stream step counter
	ref := make([]float64, net.Cfg.InputDim)
	pick := rng.New(99)
	for round := 0; round < 60; round++ {
		// A deterministic, varying subset: stream s steps when the
		// round's draw admits it; every stream steps in round 0.
		var sub []int
		for s := 0; s < streams; s++ {
			if round == 0 || pick.Float64() < 0.6 {
				sub = append(sub, s)
			}
		}
		batch := make([]int, len(sub))
		for i, s := range sub {
			batch[i] = rows[s]
			fleetInput(f.InputRow(i), s, steps[s])
		}
		y := f.Step(batch)
		for i, s := range sub {
			fleetInput(ref, s, steps[s])
			checkLogits(t, fmt.Sprintf("round %d stream %d", round, s), y.Row(i), solo[s](ref))
			steps[s]++
		}
	}
}

// TestFleetMatchesStepForward: per stream, a float64 fleet step on
// panels is bit-identical to the scalar reference forward (refSolo). The
// name is kept from the deleted scalar step it was first pinned to.
func TestFleetMatchesStepForward(t *testing.T) {
	forFleetCells(t, "f64", testFleetMatchesSolo)
}

// TestFleet32BatchCompositionInvariant: the f32 path trades bit-parity
// with f64, never determinism or batch-composition invariance — every
// stream's logits equal those of a dedicated single-stream f32 fleet.
func TestFleet32BatchCompositionInvariant(t *testing.T) {
	forFleetCells(t, "f32", testFleetMatchesSolo)
}

// testFleetRetireCompaction retires streams mid-decode (first, middle,
// last rows) from a fleet that also has to grow, and checks the
// swap-remove bookkeeping: surviving streams keep producing
// reference-identical logits from their moved rows.
func testFleetRetireCompaction(t *testing.T, c fleetCell) {
	net := fleetTestNet()
	const streams = 5
	f := c.fleet(net, 2) // force growth too
	solo := make([]func([]float64) []float64, streams)
	rows := make([]int, streams)
	owner := make(map[int]int) // fleet row -> stream
	for s := 0; s < streams; s++ {
		rows[s] = f.Admit()
		owner[rows[s]] = s
		solo[s] = c.solo(net)
	}
	live := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	steps := make([]int, streams)
	ref := make([]float64, net.Cfg.InputDim)

	stepAll := func() {
		t.Helper()
		var sub []int
		for s := 0; s < streams; s++ {
			if live[s] {
				sub = append(sub, s)
			}
		}
		batch := make([]int, len(sub))
		for i, s := range sub {
			batch[i] = rows[s]
			fleetInput(f.InputRow(i), s, steps[s])
		}
		y := f.Step(batch)
		for i, s := range sub {
			fleetInput(ref, s, steps[s])
			checkLogits(t, fmt.Sprintf("stream %d", s), y.Row(i), solo[s](ref))
			steps[s]++
		}
	}
	retire := func(s int) {
		t.Helper()
		moved := f.Retire(rows[s])
		if moved >= 0 {
			o := owner[moved]
			rows[o] = rows[s]
			owner[rows[s]] = o
			delete(owner, moved)
		} else {
			delete(owner, rows[s])
		}
		live[s] = false
	}

	stepAll()
	retire(0) // first row: moves the last row down
	stepAll()
	retire(2) // middle
	stepAll()
	// Retire the stream holding the last row: nothing moves.
	lastRow := f.Rows() - 1
	retire(owner[lastRow])
	stepAll()
	if f.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", f.Rows())
	}
}

func TestFleetRetireCompaction(t *testing.T) {
	forFleetCells(t, "f64", testFleetRetireCompaction)
}

func TestFleet32RetireCompaction(t *testing.T) {
	forFleetCells(t, "f32", testFleetRetireCompaction)
}

// testFleetStepAllocFree pins the batched decode step at zero
// steady-state allocations, stepping `rows` streams at a time (serial
// kernels; the parallel fan-out allocates its bounded per-region scratch
// like every par path). That also pins the panels as built at
// construction, never per step, and at either element type that the
// generic kernels' type-switch dispatches do not escape.
func testFleetStepAllocFree(t *testing.T, c fleetCell, rows int) {
	defer par.SetProcs(par.SetProcs(1))
	for _, net := range fleetNets() {
		f := c.fleet(net, rows)
		batch := make([]int, rows)
		for s := range batch {
			batch[s] = f.Admit()
		}
		for i := range batch {
			fleetInput(f.InputRow(i), i, 0)
		}
		f.Step(batch) // warm the scratch
		step := 0
		if allocs := testing.AllocsPerRun(100, func() {
			step++
			for i := range batch {
				// Alloc-free input refresh (fleetInput's dense branch seeds
				// an RNG, which allocates): lifetime-shaped rows on that
				// shape, else half one-hot, half dense.
				in := f.InputRow(i)
				if len(in) == fleetLifetimeShape.InputDim {
					lifetimeRow(in, i, step)
					continue
				}
				clear(in)
				if i%2 == 1 {
					in[i%len(in)] = 1
				} else {
					for j := range in {
						in[j] = float64(i*7+j) * 0.125
					}
				}
			}
			f.Step(batch)
		}); allocs != 0 {
			t.Fatalf("%+v rows %d: fleet step allocates %v times, want 0", net.Cfg, rows, allocs)
		}
	}
}

// The three alloc pins: 8 rows at each element type, and both types at
// one and two rows, where the packed walk groups three tiles a call.
// scripts/check.sh runs them without -race (the race runtime's
// instrumentation allocates).
func TestFleetStepAllocFree(t *testing.T) {
	forFleetCells(t, "f64", func(t *testing.T, c fleetCell) { testFleetStepAllocFree(t, c, 8) })
}

func TestFleet32StepAllocFree(t *testing.T) {
	forFleetCells(t, "f32", func(t *testing.T, c fleetCell) { testFleetStepAllocFree(t, c, 8) })
}

func TestFleetPackedStepAllocFree(t *testing.T) {
	forFleetCells(t, "/packed", func(t *testing.T, c fleetCell) {
		testFleetStepAllocFree(t, c, 1)
		testFleetStepAllocFree(t, c, 2)
	})
}

// fleetShapes are the network shapes of the width- and
// precision-parity tests: small ones that exercise the wide tiles, the
// narrow cleanup tiles and the head's scalar column tail at both
// element types (hidden 5 is not a multiple of 4, so its f64 fleets run
// mat.LSTMCell's portable body; the three-layer one takes the cell
// kernel past layer 1), then the library default (hidden 48 × 2), the
// paper's network (hidden 200 × 2), where one gate panel tile outgrows
// half of L1 and the packed walk stops grouping tiles above two rows,
// and the lifetime shape with its lifetime-shaped rows.
var fleetShapes = []Config{
	{InputDim: 9, HiddenDim: 8, Layers: 2, OutputDim: 5},
	{InputDim: 7, HiddenDim: 5, Layers: 2, OutputDim: 3},
	{InputDim: 11, HiddenDim: 12, Layers: 1, OutputDim: 17},
	{InputDim: 13, HiddenDim: 16, Layers: 3, OutputDim: 6},
	{InputDim: 30, HiddenDim: 48, Layers: 2, OutputDim: 17},
	{InputDim: 30, HiddenDim: 200, Layers: 2, OutputDim: 17},
	fleetLifetimeShape,
}

// testFleetRowsMatchSolo steps each batch width of rowsList — every
// stream of one fleet together, so the packed GEMMs run at exactly that
// many rows — over every fleetShapes network, and checks each stream's
// logits bit for bit against the cell's one-stream reference.
func testFleetRowsMatchSolo(t *testing.T, c fleetCell, rowsList []int) {
	for _, cfg := range fleetShapes {
		net := NewLSTM(cfg, rng.New(7))
		ref := make([]float64, cfg.InputDim)
		for _, rows := range rowsList {
			f := c.fleet(net, rows)
			batch := make([]int, rows)
			solo := make([]func([]float64) []float64, rows)
			for s := range batch {
				batch[s] = f.Admit()
				solo[s] = c.solo(net)
			}
			for step := 0; step < 4; step++ {
				for i := range batch {
					fleetInput(f.InputRow(i), i, step)
				}
				y := f.Step(batch)
				for i := range batch {
					fleetInput(ref, i, step)
					checkLogits(t, fmt.Sprintf("%+v rows %d step %d stream %d", cfg, rows, step, i), y.Row(i), solo[i](ref))
				}
			}
		}
	}
}

// TestFleetMatchesStepForwardAtRows: an f64 fleet stepping 1, 2, 3, 8 or
// 64 rows at once — every group size of the packed walk, and at hidden
// 200 the shape whose gate panel leaves L1 — gives every stream the
// scalar reference's logits bit for bit.
func TestFleetMatchesStepForwardAtRows(t *testing.T) {
	forFleetCells(t, "f64", func(t *testing.T, c fleetCell) { testFleetRowsMatchSolo(t, c, []int{1, 2, 3, 8, 64}) })
}

// TestFleet32MatchesOneRowAtRows: an f32 fleet stepping 2, 3, 8 or 64
// rows at once gives every stream the one-row f32 fleet's logits bit for
// bit, across the walk's group-size boundary (three tiles a call at one
// and two rows, as many as stay L1-resident above).
func TestFleet32MatchesOneRowAtRows(t *testing.T) {
	forFleetCells(t, "f32", func(t *testing.T, c fleetCell) { testFleetRowsMatchSolo(t, c, []int{2, 3, 8, 64}) })
}

// refMulAddRowMajor computes dst += a·b over a row-major b: per element,
// dst then each k term in ascending order, one rounded multiply and one
// add each (the conversion keeps the compiler from fusing them) — the
// arithmetic the packed walk promises for its panels.
func refMulAddRowMajor[T float32 | float64](dst, a, b *mat.Matrix[T]) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := dst.Data[i*dst.Cols+j]
			for k, av := range a.Row(i) {
				s += T(av * b.Data[k*b.Cols+j])
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
}

// unpackedSolo returns a single-stream decoder over w's row-major
// (unpacked) step matrices: a fleet step for one stream with every
// panel product replaced by refMulAddRowMajor, and layer 0's row sum,
// the cell and the output bias on the fleet's own kernels.
func unpackedSolo[T float32 | float64](w *stepWeights[T]) func(x []float64) []float64 {
	hd := w.cfg.HiddenDim
	h := make([]*mat.Matrix[T], len(w.layers))
	c := make([]*mat.Matrix[T], len(w.layers))
	for l := range w.layers {
		h[l], c[l] = mat.NewAligned[T](1, hd), mat.NewAligned[T](1, hd)
	}
	x0 := mat.NewAligned[T](1, w.cfg.InputDim)
	z := mat.NewAligned[T](1, 4*hd)
	y := mat.NewAligned[T](1, w.cfg.OutputDim)
	return func(x []float64) []float64 {
		for i, v := range x {
			x0.Data[i] = T(v)
		}
		in := x0
		for l, layer := range w.layers {
			z.Zero()
			if layer.first {
				mat.MulAddSparse(z, in, layer.wx)
			} else {
				refMulAddRowMajor(z, in, layer.wx)
			}
			refMulAddRowMajor(z, h[l], layer.wh)
			mat.LSTMCell(z, layer.b, c[l], h[l], nil)
			in = h[l]
		}
		y.Zero()
		refMulAddRowMajor(y, in, w.wy)
		mat.AddBiasRows(y, w.by)
		out := make([]float64, len(y.Data))
		for j, v := range y.Data {
			out[j] = float64(v)
		}
		return out
	}
}

// testFleetPackedMatchesUnpacked pins byte-identity between a fleet
// stepping on panels and the row-major reference over the same step
// weights, for interleaved subsets of streams across stepped batches, on
// every fleetShapes network: Pack moves weights, never what they
// compute.
func testFleetPackedMatchesUnpacked[T float32 | float64](t *testing.T, weights func(net *LSTM) *stepWeights[T]) {
	for _, cfg := range fleetShapes {
		w := weights(NewLSTM(cfg, rng.New(7)))
		pf := newFleet(w, 4, w.pack())
		const streams = 6
		rows := make([]int, streams)
		solo := make([]func([]float64) []float64, streams)
		for s := 0; s < streams; s++ {
			rows[s] = pf.Admit()
			solo[s] = unpackedSolo(w)
		}
		ref := make([]float64, cfg.InputDim)
		for step := 0; step < 12; step++ {
			var sub, batch []int
			for s := 0; s < streams; s++ {
				if (s+step)%3 != 0 {
					fleetInput(pf.InputRow(len(batch)), s, step)
					sub, batch = append(sub, s), append(batch, rows[s])
				}
			}
			y := pf.Step(batch)
			for i, s := range sub {
				fleetInput(ref, s, step)
				checkLogits(t, fmt.Sprintf("%+v step %d stream %d", cfg, step, s), y.Row(i), solo[s](ref))
			}
		}
	}
}

func TestFleetPackedMatchesUnpacked(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) { testFleetPackedMatchesUnpacked(t, (*LSTM).stepWeights) })
}

func TestFleet32PackedMatchesUnpacked(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) {
		testFleetPackedMatchesUnpacked(t, func(net *LSTM) *stepWeights[float32] { return net.Convert32().w })
	})
}

// TestFleet32TracksF64 bounds the f32 fleet's logit divergence from the
// bit-exact f64 fleet over a multi-step decode, at every fleetShapes
// size. This is a smoke bound on raw logits (the serving-level
// distribution tolerance is validated in core.ValidateF32); f32 weights
// carry ~1e-7 relative error and the gate nonlinearities are
// contraction maps, so drift stays small over any window the decode
// path uses.
func TestFleet32TracksF64(t *testing.T) {
	for _, cfg := range fleetShapes {
		net := NewLSTM(cfg, rng.New(7))
		const streams = 4
		net32 := net.Convert32()
		f64fleet := net.NewFleetPacked(streams, net.Pack())
		f32fleet := net32.NewFleet32Packed(streams, net32.Pack())
		batch := make([]int, streams)
		for s := 0; s < streams; s++ {
			batch[s] = f64fleet.Admit()
			f32fleet.Admit()
		}
		const tol = 1e-4
		for round := 0; round < 96; round++ {
			for i := range batch {
				fleetInput(f64fleet.InputRow(i), i, round)
				fleetInput(f32fleet.InputRow(i), i, round)
			}
			y64 := f64fleet.Step(batch)
			y32 := f32fleet.Step(batch)
			for i, v := range y64.Data {
				if d := math.Abs(v - y32.Data[i]); d > tol || math.IsNaN(d) {
					t.Fatalf("%+v round %d logit %d: f64 %v f32 %v (|Δ|=%g > %g)", cfg, round, i, v, y32.Data[i], d, tol)
				}
			}
		}
	}
}

// checkSlabsAligned fails unless every persistent and scratch slab of f
// starts on a 64-byte boundary.
func checkSlabsAligned[T float32 | float64](t *testing.T, f *Fleet[T], capacity int) {
	t.Helper()
	check := func(i int, p unsafe.Pointer) {
		if addr := uintptr(p); addr%64 != 0 {
			t.Fatalf("capacity %d slab %d: address %#x not 64-byte aligned", capacity, i, addr)
		}
	}
	check(0, unsafe.Pointer(&f.x.Data[0]))
	check(1, unsafe.Pointer(&f.y.Data[0]))
	slabs := []*[]T{&f.xt.Data, &f.yt.Data, &f.z.Data}
	for l := range f.h {
		slabs = append(slabs, &f.h[l].Data, &f.c[l].Data, &f.gh[l].Data, &f.gc[l].Data)
	}
	for i, s := range slabs {
		check(i+2, unsafe.Pointer(&(*s)[0]))
	}
}

// TestFleetSlabsCacheAligned checks every slab of a fleet, at either
// element type, starts on a 64-byte boundary (awkward capacities
// included), so fleets owned by different decode shards can never
// falsely share a cache line — and that alignment does not perturb a
// single logit vs the scalar reference (covered by the Matches test
// running on the same allocator).
func TestFleetSlabsCacheAligned(t *testing.T) {
	net := fleetTestNet()
	p, net32 := net.Pack(), net.Convert32()
	p32 := net32.Pack()
	for _, capacity := range []int{1, 2, 3, 7, 8, 64} {
		checkSlabsAligned(t, net.NewFleetPacked(capacity, p), capacity)
		checkSlabsAligned(t, net32.NewFleet32Packed(capacity, p32), capacity)
	}
}

// TestFleetConcurrentShards steps several independently owned fleets
// concurrently through par (the sharded decode engine's access
// pattern) and checks every stream on every shard stays bit-identical
// to its scalar reference (refSolo). Run under -race this also pins
// the "distinct Fleets may be stepped concurrently" contract — on the
// portable kernels, the tier the detector can see into.
func TestFleetConcurrentShards(t *testing.T) {
	defer par.SetProcs(par.SetProcs(8))
	mattest.BothTiers(t, func(t *testing.T) {
		for _, net := range fleetNets() {
			testFleetConcurrentShards(t, net)
		}
	})
}

func testFleetConcurrentShards(t *testing.T, net *LSTM) {
	const shards = 4
	const streams = 3 // per shard
	const rounds = 30
	fleets := make([]StepFleet, shards)
	refs := make([][]func([]float64) []float64, shards)
	bad := make([]bool, shards)
	p := net.Pack() // shared read-only by every shard, as the engine shares it
	for k := range fleets {
		fleets[k] = net.NewFleetPacked(streams, p)
		refs[k] = make([]func([]float64) []float64, streams)
		for s := 0; s < streams; s++ {
			fleets[k].Admit()
			refs[k][s] = refSolo(net)
		}
	}
	batch := [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	for round := 0; round < rounds; round++ {
		par.Do(shards, func(k int) {
			f := fleets[k]
			ref := make([]float64, net.Cfg.InputDim)
			for s := 0; s < streams; s++ {
				fleetInput(f.InputRow(s), shards*s+k, round)
			}
			y := f.Step(batch[k])
			for s := 0; s < streams; s++ {
				fleetInput(ref, shards*s+k, round)
				want := refs[k][s](ref)
				got := y.Row(s)
				for j := range want {
					if got[j] != want[j] {
						bad[k] = true
					}
				}
			}
		})
	}
	for k, b := range bad {
		if b {
			t.Fatalf("%+v: shard %d diverged from its scalar reference under concurrent stepping", net.Cfg, k)
		}
	}
}

// TestFleetSkipsNonFiniteWeightsLikeStepForward pins why layer 0 is a
// row sum in the fleet and in the scalar reference alike: a zero input
// never touches its layer-0 weight row, so non-finite values in rows no
// input selects stay out of both sums, and the engine's logits stay
// finite and bit-identical to the reference's (a dense product would
// turn every gate of the fleet into NaN).
func TestFleetSkipsNonFiniteWeightsLikeStepForward(t *testing.T) {
	net := NewLSTM(fleetLifetimeShape, rng.New(7))
	// Columns 47..55 are flavors 7..15; the streams below stay on flavors
	// 0..6 (lifetimeRow: 7s+3t mod 16 for s = 0, t < 3 is 0, 3, 6), so no
	// input selects these weight rows.
	wx := net.layers[0].wx.Value
	for k := 47; k < 56; k++ {
		wx.Row(k)[k] = math.Inf(1 - 2*(k%2))
		wx.Row(k)[k+1] = math.NaN()
	}
	forFleetCells(t, "f64", func(t *testing.T, c fleetCell) {
		f := c.fleet(net, 1)
		row := f.Admit()
		solo := refSolo(net)
		ref := make([]float64, net.Cfg.InputDim)
		for step := 0; step < 3; step++ {
			lifetimeRow(f.InputRow(0), 0, step)
			lifetimeRow(ref, 0, step)
			got, want := f.Step([]int{row}).Row(0), solo(ref)
			checkLogits(t, fmt.Sprintf("step %d", step), got, want)
			for j, v := range got {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("step %d logit %d = %v: an unselected weight row reached the sum", step, j, v)
				}
			}
		}
	})
}

// TestFleetAdmitZeroState checks a freshly admitted stream behaves as
// if it had a zero State even when its row previously held another
// stream's state.
func TestFleetAdmitZeroState(t *testing.T) {
	net := fleetTestNet()
	f := net.NewFleetPacked(2, net.Pack())
	r0 := f.Admit()
	in := make([]float64, net.Cfg.InputDim)
	for step := 0; step < 3; step++ {
		fleetInput(f.InputRow(0), 3, step)
		f.Step([]int{r0})
	}
	f.Retire(r0)
	r1 := f.Admit() // same slab row as r0
	fleetInput(f.InputRow(0), 4, 0)
	y := f.Step([]int{r1})
	fleetInput(in, 4, 0)
	checkLogits(t, "re-admitted stream", y.Row(0), refSolo(net)(in))
}

// TestNewFleetPackedNilPanels pins newFleet's nil-panels contract: there
// is no row-major fleet, so a nil panel set panics at construction, at
// either element type, instead of failing on the first step.
func TestNewFleetPackedNilPanels(t *testing.T) {
	net := fleetTestNet()
	for name, build := range map[string]func(){
		"f64": func() { net.NewFleetPacked(2, nil) },
		"f32": func() { net.Convert32().NewFleet32Packed(2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: nil panels built a fleet, want a panic", name)
				}
			}()
			build()
		}()
	}
}

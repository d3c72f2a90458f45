package nn

import (
	"fmt"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// Package-level benches for the recurrent substrates, all reporting
// allocations: after the workspace/arena rewrite the steady-state
// numbers here are expected to stay at (or near) zero allocs/op — the
// allocation-regression tests in alloc_test.go enforce the bound, these
// benches make the byte volume visible.

func benchNet(b *testing.B) *LSTM {
	b.Helper()
	return NewLSTM(Config{InputDim: 64, HiddenDim: 48, Layers: 2, OutputDim: 17}, rng.New(1))
}

func benchInputs(steps, batch int) []*mat.Dense {
	g := rng.New(2)
	xs := make([]*mat.Dense, steps)
	for s := range xs {
		x := mat.NewDense(batch, 64)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[s] = x
	}
	return xs
}

func BenchmarkLSTMForward(b *testing.B) {
	net := benchNet(b)
	xs := benchInputs(32, 8)
	st := net.NewState(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(xs, st)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	net := benchNet(b)
	xs := benchInputs(32, 8)
	st := net.NewState(8)
	dys := make([]*mat.Dense, len(xs))
	for s := range dys {
		dys[s] = mat.NewDense(8, 17)
		for j := range dys[s].Data {
			dys[s].Data[j] = 0.01
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		_, cache := net.Forward(xs, st)
		net.Backward(cache, dys)
	}
}

// BenchmarkFleetStepShapes steps the two decode networks of the 9-day
// fixture with the rows their encoders produce, because a step's cost
// is set by layer 0's non-zeros and the two differ fivefold: the flavor
// LSTM (57-wide input: previous-token one-hot + temporal, 12 non-zero)
// and the lifetime LSTM (fleetLifetimeShape: 151-wide, 53–61 non-zero),
// then the lifetime LSTM at the paper's hidden 200, the size at which
// the packed panels are measured to win. Rows 1 and 64 bracket the
// engine's batch widths; ns/op is one Step, at f64 and at f32.
func BenchmarkFleetStepShapes(b *testing.B) {
	flavorShape := Config{InputDim: 57, HiddenDim: 24, Layers: 2, OutputDim: 17}
	lifetime200 := fleetLifetimeShape
	lifetime200.HiddenDim = 200
	shapes := []struct {
		name string
		cfg  Config
		rows []int
		row  func(dst []float64, s, t int)
	}{
		{"flavor", flavorShape, []int{1, 64}, func(dst []float64, s, t int) {
			clear(dst)
			dst[(s+t)%17] = 1 // previous token
			u := 7*s + 3*t
			dst[17+u%24] = 1 // hour of day
			dst[41+u%7] = 1  // day of week
			for j := 48; j < 57; j++ {
				dst[j] = 1 // generation encodes the last history day
			}
		}},
		{"lifetime", fleetLifetimeShape, []int{1, 64}, lifetimeRow},
		{"lifetime200", lifetime200, []int{1, 8, 64}, lifetimeRow},
	}
	for _, sh := range shapes {
		net := NewLSTM(sh.cfg, rng.New(1))
		for _, rows := range sh.rows {
			for _, c := range fleetCells {
				b.Run(fmt.Sprintf("%s/rows%d/%s", sh.name, rows, c.name), func(b *testing.B) {
					f := c.fleet(net, rows)
					batch := make([]int, rows)
					for s := range batch {
						batch[s] = f.Admit()
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for s := range batch {
							sh.row(f.InputRow(s), s, i)
						}
						f.Step(batch)
					}
				})
			}
		}
	}
}

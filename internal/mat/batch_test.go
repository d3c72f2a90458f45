package mat

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/rng"
)

// withBatchASM runs f twice when assembly kernels are available — once
// with them and once forced onto the portable fallback — so every
// exactness property is checked on both paths.
func withBatchASM(t *testing.T, f func(t *testing.T)) {
	t.Run("fallback", func(t *testing.T) {
		defer SetPortable(SetPortable(true))
		f(t)
	})
	if !haveBatchASM() {
		return
	}
	t.Run("asm", func(t *testing.T) {
		defer SetPortable(SetPortable(false))
		f(t)
	})
}

// TestPortableEnvEscapeHatch proves REPRO_NOASM, the one environment
// read of the kernel tier, by re-executing this test binary with the
// variable set (to this test's name: any non-empty value counts, and
// the value is how the child knows itself). The child must report the
// portable tier; the parent reports the assembly tier wherever the CPU
// has the kernels and nobody set the variable for it.
func TestPortableEnvEscapeHatch(t *testing.T) {
	env := os.Getenv("REPRO_NOASM")
	if env == t.Name() {
		fmt.Printf("child portable=%v\n", Portable())
		return
	}
	if want := env != "" || !haveBatchASM(); Portable() != want {
		t.Fatalf("Portable() = %v, want %v (REPRO_NOASM=%q, haveBatchASM %v)", Portable(), want, env, haveBatchASM())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), "REPRO_NOASM="+t.Name())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "child portable=true") {
		t.Fatalf("child under REPRO_NOASM is not on the portable tier:\n%s", out)
	}
}

// expCases returns inputs that exercise every branch of math.Exp: the
// ordinary range, both sides of the overflow cutoff, the denormal
// result band, underflow, and the non-finite specials.
func expCases() []float64 {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-9, -1e-9,
		87.3, -87.3, 300, -300, 700, -700,
		709.782712893384, 709.7827128933841, 709.78271289338397,
		-708.3964185322641, -708.39641853226408, -708.4,
		-744, -745, -745.1, -745.1332191019412, -746, -800,
		710, 1000, 1e9, -1e9,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF8000000000001), // NaN with payload
		4.503599627370496e15, 1e-320, -1e-320,
	}
	// Dense sweeps across the interesting boundaries.
	for x := -746.0; x < -707.0; x += 0.001953125 {
		cases = append(cases, x)
	}
	for x := 709.0; x < 710.5; x += 0.0009765625 {
		cases = append(cases, x)
	}
	// Pseudo-random coverage of the ordinary range (fixed LCG so the
	// test is deterministic without the rng package).
	s := uint64(12345)
	for i := 0; i < 20000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		x := (float64(s>>11)/float64(1<<53) - 0.5) * 1500 // [-750, 750)
		cases = append(cases, x)
	}
	for i := 0; i < 4000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		x := (float64(s>>11)/float64(1<<53) - 0.5) * 20 // [-10, 10)
		cases = append(cases, x)
	}
	return cases
}

// gateKernels are the three f64 activation kernels with the scalar
// expressions they must reproduce bit for bit.
var gateKernels = []struct {
	name  string
	slice func(dst, x []float64)
	ref   func(float64) float64
}{
	{"exp", ExpSlice, math.Exp},
	{"sigmoid", SigmoidSlice, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }},
	{"tanh", TanhSlice, math.Tanh},
}

// checkGateBits runs slice over x, not aliased and then in place, and
// compares every element's bits with ref.
func checkGateBits(t *testing.T, name string, slice func(dst, x []float64), ref func(float64) float64, x []float64) {
	t.Helper()
	dst := make([]float64, len(x))
	slice(dst, x)
	inPlace := append([]float64(nil), x...)
	slice(inPlace, inPlace)
	for i, v := range x {
		want := math.Float64bits(ref(v))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%s(%v) [elem %d of %d] = %x, want %x", name, v, i, len(x), got, want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("%s(%v) [elem %d of %d, aliased] = %x, want %x", name, v, i, len(x), got, want)
		}
	}
}

// ulps returns v with its two neighbours.
func ulps(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// gateEdges are the inputs at which some kernel changes path or branch,
// each with both signs (sigmoid exponentiates -x): the non-finites (a
// quiet and a signaling NaN, payloads kept), signed zeros, the fast
// path's |x| <= 708 bound and math.Exp's Overflow and Underflow cutoffs
// to the ulp, a denormal-result input, the k = 4 band whose speculative
// denormal product was a microcode assist, and math.Tanh's 0.625 and
// 0.5*MAXLOG branch edges to the ulp.
func gateEdges() []float64 {
	edges := []float64{
		math.Float64frombits(0x7FF8000000000abc), math.Float64frombits(0x7FF0000000000abc),
		math.Inf(1), 0, 740, 745.2, 2.43, 2.5, 2.6, 2.7, 2.7699,
	}
	for _, c := range []float64{708, 7.09782712893383973096e+02, 7.45133219101941108420e+02, 0.625, 0.5 * 8.8029691931113054295988e+01} {
		edges = append(edges, ulps(c)...)
	}
	for _, v := range edges {
		edges = append(edges, -v)
	}
	return edges
}

// gateWindows is the fast/slow path matrix: four-lane windows of normal
// values, as they are (the all-normal path) and with exactly one lane
// replaced by each edge at each of the four lane positions (the slow
// body, with three lanes that must come out as the fast path would have
// made them), laid end to end on vector boundaries.
func gateWindows() []float64 {
	normal := [][4]float64{{0.3, -1.7, 2.6, -2.6}, {-6.5, 11, 0.001, 40}, {700, -700, 1.3, -1.3}}
	var x []float64
	for _, w := range normal {
		x = append(x, w[:]...)
		for _, e := range gateEdges() {
			for lane := 0; lane < 4; lane++ {
				v := w
				v[lane] = e
				x = append(x, v[:]...)
			}
		}
	}
	return x
}

// TestExpSliceBitExact checks ExpSlice against math.Exp bit-for-bit
// over every branch of the scalar implementation, in bulk (so the
// vector path runs) and with the inputs rotated so each case visits
// every lane; then over the fast/slow path matrix.
func TestExpSliceBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		cases := expCases()
		for rot := 0; rot < 4; rot++ {
			x := make([]float64, len(cases))
			for i, v := range cases {
				x[(i+rot)%len(x)] = v
			}
			checkGateBits(t, "Exp", ExpSlice, math.Exp, x)
		}
		checkGateBits(t, "Exp", ExpSlice, math.Exp, gateWindows())
	})
}

// TestGateActivationsBitExact checks SigmoidSlice and TanhSlice at
// float64 against 1/(1+math.Exp(-x)) and math.Tanh: the path matrix,
// every math.Exp branch, and each edge at every offset of lengths 1..19
// so it visits the padded tail vector at each of its lanes.
func TestGateActivationsBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		for _, k := range gateKernels[1:] {
			checkGateBits(t, k.name, k.slice, k.ref, gateWindows())
			checkGateBits(t, k.name, k.slice, k.ref, expCases())
			edges := gateEdges()
			for n := 1; n <= 19; n++ {
				x := make([]float64, n)
				for e := 0; e < len(edges); e += n {
					for i := range x {
						x[i] = edges[(e+i)%len(edges)]
					}
					checkGateBits(t, k.name, k.slice, k.ref, x)
				}
				for i := range x {
					x[i] = float64(i) - 0.37*float64(n) // ordinary values, all-normal tail
				}
				checkGateBits(t, k.name, k.slice, k.ref, x)
			}
		}
	})
}

// FuzzGateActivations feeds arbitrary float64 bit patterns, at lengths
// 1..40, through ExpSlice, SigmoidSlice and TanhSlice on both kernel
// tiers and bit-compares with the scalar oracles. Each input is four
// patterns spread over the slice with a normal filler between them.
func FuzzGateActivations(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint8(4), bits(2.6), bits(-2.6), bits(1.3), bits(0.3))
	f.Add(uint8(7), bits(math.NaN()), bits(708), bits(-708), bits(math.Inf(-1)))
	f.Add(uint8(19), bits(math.Nextafter(708, 709)), bits(-740), bits(0.625), bits(math.Copysign(0, -1)))
	f.Add(uint8(40), uint64(0x7FF0000000000abc), bits(709.782712893384), bits(44.014845965556524), bits(-745.2))
	f.Fuzz(func(t *testing.T, n uint8, a, b, c, d uint64) {
		x := make([]float64, 1+int(n)%40)
		for i := range x {
			x[i] = 0.25 * float64(i-len(x)/2)
		}
		for i, p := range []uint64{a, b, c, d} {
			x[(i*7+int(n)/40)%len(x)] = math.Float64frombits(p)
		}
		withBatchASM(t, func(t *testing.T) {
			for _, k := range gateKernels {
				checkGateBits(t, k.name, k.slice, k.ref, x)
			}
		})
	})
}

// lstmCellRef is the scalar composition LSTMCell must reproduce, one
// row: the bias add, 1/(1+math.Exp(-x)) and math.Tanh, and the c / h
// updates with every product and sum rounded on its own (the
// conversions forbid a fused multiply-add on any architecture).
func lstmCellRef(z, bias, c, h []float64) {
	hd := len(c)
	for j := range z {
		z[j] += bias[j]
		if j/hd == 2 {
			z[j] = math.Tanh(z[j])
		} else {
			z[j] = 1 / (1 + math.Exp(-z[j]))
		}
	}
	for j := range c {
		c[j] = float64(z[hd+j]*c[j]) + float64(z[j]*z[2*hd+j])
		h[j] = z[3*hd+j] * math.Tanh(c[j])
	}
}

// checkLSTMCell runs LSTMCell over copies of z and c in calls of m rows
// and compares z, c and h with lstmCellRef row by row: bits wherever the
// reference is not NaN, NaN-ness where it is (see LSTMCell).
func checkLSTMCell(t *testing.T, z *Dense, bias []float64, c *Dense, m int) {
	t.Helper()
	hd := c.Cols
	gz, gc, gh := z.Clone(), c.Clone(), NewDense(c.Rows, hd)
	for lo := 0; lo < z.Rows; lo += m {
		hi := min(lo+m, z.Rows)
		LSTMCell(FromSlice(hi-lo, 4*hd, gz.Data[lo*4*hd:hi*4*hd]), bias,
			FromSlice(hi-lo, hd, gc.Data[lo*hd:hi*hd]), FromSlice(hi-lo, hd, gh.Data[lo*hd:hi*hd]))
	}
	wz, wc, wh := z.Clone(), c.Clone(), NewDense(c.Rows, hd)
	for i := 0; i < z.Rows; i++ {
		lstmCellRef(wz.Row(i), bias, wc.Row(i), wh.Row(i))
	}
	for _, p := range []struct {
		name      string
		got, want *Dense
	}{{"z", gz, wz}, {"c", gc, wc}, {"h", gh, wh}} {
		for i, w := range p.want.Data {
			g := p.got.Data[i]
			if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("hd %d m %d: %s[%d][%d] = %x, want %x", hd, m, p.name,
					i/p.want.Cols, i%p.want.Cols, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestLSTMCellBitExact checks LSTMCell against the scalar composition
// at hidden sizes that give the gate loops one vector, several, and a
// non-multiple of the GEMM tile, in calls of 1, 3 and 64 rows: random
// normal rows, then every gateEdges value planted — at each of the four
// lane positions of an otherwise normal row — in each gate segment and
// in c, under a bias of -0 (the exact additive identity, so the edge
// itself reaches the activation) and under a random one, and (bias being
// shared by a call's rows) in each segment of the bias, so the fused
// loops visit the slow exp body and both tanh cut-offs with normal lanes
// beside them.
func TestLSTMCellBitExact(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		edges := gateEdges()
		for _, hd := range []int{4, 8, 24, 28, 200} {
			plant := func(e, lane int) int { return 4*(e%(hd/4)) + lane }
			const random = 64
			z := denseRand(random+len(edges)*5*4, 4*hd, int64(hd))
			c := denseRand(z.Rows, hd, int64(hd)+1)
			bias := denseRand(1, 4*hd, int64(hd)+2).Data
			negZero := make([]float64, 4*hd)
			for j := range negZero {
				negZero[j] = math.Copysign(0, -1)
			}
			row := random
			for e, v := range edges {
				for lane := 0; lane < 4; lane++ {
					for seg := 0; seg < 4; seg++ {
						z.Row(row)[seg*hd+plant(e, lane)] = v
						row++
					}
					c.Row(row)[plant(e, lane)] = v
					row++
				}
			}
			for _, m := range []int{1, 3, 64} {
				checkLSTMCell(t, z, negZero, c, m)
				checkLSTMCell(t, z, bias, c, m)
			}
			zb, cb := denseRand(3, 4*hd, int64(hd)+3), denseRand(3, hd, int64(hd)+4)
			for e, v := range edges {
				for lane := 0; lane < 4; lane++ {
					for seg := 0; seg < 4; seg++ {
						b := append([]float64(nil), bias...)
						b[seg*hd+plant(e, lane)] = v
						checkLSTMCell(t, zb, b, cb, 3)
					}
				}
			}
		}
	})
}

// FuzzLSTMCell feeds arbitrary float64 bit patterns — one into each gate
// segment, the bias and c of a single otherwise ordinary row, hidden 4
// to 40 — through LSTMCell on both tiers against the scalar composition.
func FuzzLSTMCell(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint8(0), bits(2.6), bits(-2.6), bits(0.3), bits(1.3), bits(0.1), bits(-0.7))
	f.Add(uint8(5), bits(math.NaN()), bits(708), bits(0.625), bits(math.Inf(-1)), bits(-745.2), bits(44.014845965556524))
	f.Add(uint8(9), bits(math.Nextafter(708, 709)), bits(-740), bits(math.Copysign(0, -1)), uint64(0x7FF0000000000abc), bits(709.782712893384), bits(math.Inf(1)))
	f.Add(uint8(23), bits(-709.78271289338397), bits(1e-320), bits(-0.625), bits(745.2), bits(1e300), bits(-1e300))
	f.Fuzz(func(t *testing.T, n uint8, i, fg, g, o, b, cv uint64) {
		hd := 4 * (1 + int(n)%10)
		z, c := NewDense(1, 4*hd), NewDense(1, hd)
		bias := make([]float64, 4*hd)
		for j := range z.Data {
			z.Data[j] = 0.25 * float64(j%17-8)
			bias[j] = 0.125 * float64(j%5-2)
		}
		for j := range c.Data {
			c.Data[j] = 0.5 * float64(j%7-3)
		}
		at := int(n) / 10 % hd
		for seg, p := range []uint64{i, fg, g, o} {
			z.Data[seg*hd+(at+seg)%hd] = math.Float64frombits(p)
		}
		bias[(at*5)%(4*hd)] = math.Float64frombits(b)
		c.Data[(at+2)%hd] = math.Float64frombits(cv)
		withBatchASM(t, func(t *testing.T) { checkLSTMCell(t, z, bias, c, 1) })
	})
}

// TestExpSliceAlias checks the documented exact-alias contract.
func TestExpSliceAlias(t *testing.T) {
	withBatchASM(t, func(t *testing.T) {
		x := []float64{-3, -0.5, 0, 0.5, 1, 2, 3, 4, 5}
		want := make([]float64, len(x))
		for i, v := range x {
			want[i] = math.Exp(v)
		}
		ExpSlice(x, x)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("elem %d: got %v want %v", i, x[i], want[i])
			}
		}
	})
}

// TestBatchKernelsNoAlloc pins the decode kernels at zero allocations.
func TestBatchKernelsNoAlloc(t *testing.T) {
	a := denseRand(8, 24, 1)
	b := denseRand(24, 96, 2)
	dst := NewDense(8, 96)
	x := denseRand(1, 96, 3).Data
	y := make([]float64, 96)
	c, h := denseRand(8, 24, 4), NewDense(8, 24)
	p := b.Pack()
	if n := testing.AllocsPerRun(100, func() {
		MulAddPacked(dst, a, p)
		ExpSlice(y, x)
		LSTMCell(dst, x, c, h)
	}); n != 0 {
		t.Fatalf("batched kernels allocated %v per run", n)
	}
}

func BenchmarkExpSlice96(b *testing.B) {
	x := denseRand(1, 96, 1).Data
	dst := make([]float64, 96)
	b.SetBytes(8 * 2 * 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpSlice(dst, x)
	}
}

// benchGate times one activation over n inputs uniform in [lo, hi).
func benchGate(b *testing.B, slice func(dst, x []float64), n int, lo, hi float64) {
	g := rng.New(1)
	x := make([]float64, n)
	for i := range x {
		x[i] = lo + g.Float64()*(hi-lo)
	}
	dst := make([]float64, n)
	b.SetBytes(8 * 2 * int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slice(dst, x)
	}
}

// BenchmarkExpSliceAssistBand96 pins the k = 4, f < 1 band in which the
// kernel's speculative denormal product used to take a microcode assist
// on every vector (16-19 ns/elem against 3-4 typical, before PR 20).
func BenchmarkExpSliceAssistBand96(b *testing.B) { benchGate(b, ExpSlice, 96, 2.43, 2.77) }

// The fused gate kernels at the decode shapes: one 96-wide i/f/o gate
// segment, one 24-wide g segment.
func BenchmarkSigmoidSlice96(b *testing.B) { benchGate(b, SigmoidSlice, 96, -6, 6) }
func BenchmarkTanhSlice24(b *testing.B)    { benchGate(b, TanhSlice, 24, -3, 3) }

func BenchmarkExpScalar96(b *testing.B) {
	x := denseRand(1, 96, 1).Data
	dst := make([]float64, 96)
	b.SetBytes(8 * 2 * 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range x {
			dst[j] = math.Exp(v)
		}
	}
}

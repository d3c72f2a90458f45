package mat

import (
	"fmt"
	"math"
	"os"
	"unsafe"
)

// Batched-decode kernels (DESIGN.md §6.2). The continuous-batching
// fleet in internal/nn drives many concurrent streams through shared
// step GEMMs and elementwise transcendentals from a single goroutine,
// so unlike MulAdd these entry points never fan out to the parallel
// layer; they instead vectorize within one core (AVX2 on amd64, with a
// register-blocked pure-Go fallback elsewhere). Every kernel here is
// bit-identical to its reference counterpart — MulAdd for the GEMM,
// math.Exp and math.Tanh for ExpSlice, SigmoidSlice and TanhSlice, the
// scalar gate loop of nn's reference forward for LSTMCell — which is
// what lets every batch width of decode promise the bytes of one-stream
// decode (see the exactness tests in batch_test.go).

// useBatchASM gates the assembly kernels: the one kernel-tier switch of
// the process, a plain bool every kernel entry branches on. It starts
// true where the CPU has the kernels, unless REPRO_NOASM is set (to any
// non-empty value) — the runtime escape hatch, read here and nowhere
// else. Every portable body is bit-identical to its kernel, so the tier
// never changes results; tests hold both tiers to that in-process
// through SetPortable.
var useBatchASM = haveBatchASM() && os.Getenv("REPRO_NOASM") == ""

// Portable reports whether the portable pure-Go kernels are in use
// rather than the AVX2 assembly.
func Portable() bool { return !useBatchASM }

// SetPortable selects the portable kernels (true) or, where the CPU has
// them, the assembly kernels (false) — the programmatic equivalent of
// REPRO_NOASM — and returns the previous setting so callers can restore
// it:
//
//	defer mat.SetPortable(mat.SetPortable(true))
//
// The switch is unsynchronized: call it only while no kernel is running.
func SetPortable(on bool) bool {
	prev := !useBatchASM
	useBatchASM = !on && haveBatchASM()
	return prev
}

// lanes is the AVX2 register width in elements of T — 4 float64, 8
// float32. The assembly kernels cover whole registers of columns, and
// the packed panels are tiled in the same unit (panel.go).
func lanes[T float32 | float64]() int {
	var z T
	return 32 / int(unsafe.Sizeof(z))
}

// rowSum adds the listed terms of one input row into one dst row:
// dst[j] += x[k]·b[k*n+j] for k = idx[0], idx[1], … (ascending,
// len(idx) > 0) and every j in [0, n), n = len(dst). A term
// with x[k] == 1 adds the b row as it is — multiplying by 1.0 is exact,
// so skipping it changes no bit — and any other value is a separately
// rounded multiply and add. The AVX2 kernel of T keeps a block of dst
// columns in registers across the whole list, so dst is loaded and
// stored once per block instead of once per term; the loop below is the
// same per-element operation sequence, as the portable body (all
// columns) and as the assembly's scalar column tail.
func rowSum[T float32 | float64](dst, x, b []T, idx []uint8) {
	n := len(dst)
	nv := 0
	if useBatchASM {
		if nv = n &^ (lanes[T]() - 1); nv > 0 {
			switch d := any(dst).(type) {
			case []float64:
				rowSumAVX2(&d[0], &any(x).([]float64)[0], &any(b).([]float64)[0], n, &idx[0], len(idx))
			case []float32:
				rowSum32AVX2(&d[0], &any(x).([]float32)[0], &any(b).([]float32)[0], n, &idx[0], len(idx))
			}
		}
	}
	if nv == n {
		return
	}
	tail := dst[nv:]
	for _, k := range idx {
		v, brow := x[k], b[int(k)*n+nv:int(k)*n+n]
		if v == 1 {
			for j, bv := range brow {
				tail[j] += bv
			}
		} else {
			for j, bv := range brow {
				tail[j] += v * bv
			}
		}
	}
}

// ExpSlice sets dst[i] = math.Exp(x[i]) for every i, bit-for-bit —
// including overflow to +Inf, denormal and underflow results, and the
// NaN/±Inf special cases. dst and x may alias exactly. On amd64 with
// AVX2+FMA every element, the length tail included, runs through a
// four-lane transcription of math.Exp's FMA path (vec4); everywhere
// else it calls math.Exp.
func ExpSlice(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: ExpSlice length mismatch")
	}
	if useBatchASM {
		vec4(exp4, dst, x)
		return
	}
	for i, v := range x {
		dst[i] = math.Exp(v)
	}
}

// kernel4 names one of the four-lane f64 activation kernels. vec4 takes
// the name, not a func value, so its calls are direct and its stack
// vector does not escape.
type kernel4 int

const (
	exp4 kernel4 = iota
	sigmoid4
	tanh4
)

func (k kernel4) run(dst, x *float64, n int) {
	switch k {
	case exp4:
		expAVX2(dst, x, n)
	case sigmoid4:
		sigmoidAVX2(dst, x, n)
	case tanh4:
		tanhAVX2(dst, x, n)
	}
}

// vec4 runs kernel k over x: the whole vectors in place, then the last
// len(x)%4 elements through a zero-padded stack vector (the kernels
// take whole vectors only, and 0 is an ordinary input to all of them),
// so no element falls back to a scalar call.
func vec4(k kernel4, dst, x []float64) {
	n4 := len(x) &^ 3
	if n4 > 0 {
		k.run(&dst[0], &x[0], n4)
	}
	if n4 < len(x) {
		var pad [4]float64
		copy(pad[:], x[n4:])
		k.run(&pad[0], &pad[0], 4)
		copy(dst[n4:], pad[:])
	}
}

// SigmoidSlice sets dst[i] = 1/(1+math.Exp(-x[i])) for every i, bit for
// bit (NaN payloads included), at any length; dst and x may alias
// exactly. It and TanhSlice are the float64 gate activations of every
// forward path: reproducing the scalar reference itself is what keeps
// batched decode byte-identical to one-stream decode. On amd64 with AVX2+FMA
// the whole expression is fused around expAVX2's body in registers
// (sigmoidAVX2); everywhere else it is the scalar expression. The
// float32 counterparts are SigmoidSlice32 / TanhSlice32 (act32.go), a
// different algorithm.
func SigmoidSlice(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: SigmoidSlice length mismatch")
	}
	if useBatchASM {
		vec4(sigmoid4, dst, x)
		return
	}
	for i, v := range x {
		dst[i] = 1 / (1 + math.Exp(-v))
	}
}

// TanhSlice sets dst[i] = math.Tanh(x[i]) for every i, bit for bit
// (signed zeros, saturation, NaN payloads), under SigmoidSlice's
// contract (tanhAVX2).
func TanhSlice(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mat: TanhSlice length mismatch")
	}
	if useBatchASM {
		vec4(tanh4, dst, x)
		return
	}
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
}

// LSTMCell is one LSTM layer's step from its finished gate GEMMs to the
// next layer, every row in one call: z (rows × 4H gate pre-activations,
// gate order i, f, g, o) gets bias added and is activated in place —
// sigmoid on i, f and o, tanh on g — then c = f·c + i·g and h =
// o·tanh(c) on the rows × H state matrices, the products and the sum
// rounded separately as nn's scalar reference rounds them. A non-nil tc
// (rows × H) also receives tanh(c) itself, the value h was scaled from —
// TanhSlice's bits on either tier — for training's backward pass;
// decode passes nil. At float64
// with the assembly on and H a multiple of 4 that is one fused kernel
// (lstmCellAVX2); everywhere else — REPRO_NOASM, other architectures,
// odd H, float32 — it is the portable body below: the bias sweep, the
// whole-segment activation calls, and the c / h loops. The two agree bit
// for bit on finite values, and a NaN comes out NaN of both (which
// payload survives a sum of two NaNs is the compiler's operand order in
// one and the hardware's in the other, and not a contract).
//
// The activations are the one part that is a different algorithm per
// element type: at float64 SigmoidSlice / TanhSlice, which reproduce the
// math.Exp-based scalar loop bit for bit; at float32 act32.go's native
// eight-lane kernels, because widening each gate row to the four-lane
// f64 exp would cost the f32 path most of its advantage.
func LSTMCell[T float32 | float64](z *Matrix[T], bias []T, c, h, tc *Matrix[T]) {
	hd := c.Cols
	if z.Cols != 4*hd || len(bias) != 4*hd || h.Cols != hd || c.Rows != z.Rows || h.Rows != z.Rows ||
		tc != nil && (tc.Cols != hd || tc.Rows != z.Rows) {
		panic(fmt.Sprintf("mat: LSTMCell shape mismatch z %v bias %d c %v h %v tc %v", z, len(bias), c, h, tc))
	}
	if z.Rows == 0 || hd == 0 {
		return
	}
	if zd, ok := any(z).(*Dense); ok && useBatchASM && hd%4 == 0 {
		hp := &any(h).(*Dense).Data[0]
		tp := hp // without tc the kernel's tanh(c) store lands in h, which o·tanh(c) then overwrites
		if tc != nil {
			tp = &any(tc).(*Dense).Data[0]
		}
		lstmCellAVX2(&zd.Data[0], &any(bias).([]float64)[0], &any(c).(*Dense).Data[0], hp, tp, z.Rows, hd)
		return
	}
	AddBiasRows(z, bias)
	switch z := any(z).(type) {
	case *Dense:
		for i := 0; i < z.Rows; i++ {
			row := z.Row(i)
			SigmoidSlice(row[:2*hd], row[:2*hd])
			TanhSlice(row[2*hd:3*hd], row[2*hd:3*hd])
			SigmoidSlice(row[3*hd:], row[3*hd:])
		}
	case *Dense32:
		for i := 0; i < z.Rows; i++ {
			row := z.Row(i)
			SigmoidSlice32(row[:2*hd], row[:2*hd])
			TanhSlice32(row[2*hd:3*hd], row[2*hd:3*hd])
			SigmoidSlice32(row[3*hd:], row[3*hd:])
		}
	}
	for i := 0; i < z.Rows; i++ {
		zrow, crow, hrow := z.Row(i), c.Row(i), h.Row(i)
		for j := 0; j < hd; j++ {
			crow[j] = zrow[hd+j]*crow[j] + zrow[j]*zrow[2*hd+j]
		}
		switch cr := any(crow).(type) { // hrow holds tanh(c) until o scales it
		case []float64:
			TanhSlice(any(hrow).([]float64), cr)
		case []float32:
			TanhSlice32(any(hrow).([]float32), cr)
		}
		if tc != nil {
			copy(tc.Row(i), hrow)
		}
		for j := 0; j < hd; j++ {
			hrow[j] = zrow[3*hd+j] * hrow[j]
		}
	}
}

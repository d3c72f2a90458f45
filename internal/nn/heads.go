package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// SoftmaxCE computes the mean softmax cross-entropy over the valid steps
// of a batch of logits and returns (loss, dLogits, count). logits is
// [B x K]; targets[r] is the class index for row r; valid[r] false marks
// padding rows that contribute neither loss nor gradient (pass nil for
// all-valid). The gradient is of the summed loss (not mean), matching
// how the trainer normalizes across a whole minibatch.
func SoftmaxCE(logits *mat.Dense, targets []int, valid []bool) (loss float64, dLogits *mat.Dense, count int) {
	dLogits = mat.NewDense(logits.Rows, logits.Cols)
	loss, count = SoftmaxCEInto(logits, targets, valid, dLogits)
	return loss, dLogits, count
}

// SoftmaxCEInto is SoftmaxCE writing the gradient into a caller-provided
// [B x K] matrix (cleared first), so steady-state training loops can
// reuse one buffer instead of allocating per minibatch.
func SoftmaxCEInto(logits *mat.Dense, targets []int, valid []bool, dLogits *mat.Dense) (loss float64, count int) {
	b, k := logits.Rows, logits.Cols
	if len(targets) != b {
		panic(fmt.Sprintf("nn: SoftmaxCE %d targets for %d rows", len(targets), b))
	}
	if valid != nil && len(valid) != b {
		panic("nn: SoftmaxCE valid length mismatch")
	}
	if dLogits.Rows != b || dLogits.Cols != k {
		panic(fmt.Sprintf("nn: SoftmaxCEInto dst %dx%d, want %dx%d", dLogits.Rows, dLogits.Cols, b, k))
	}
	dLogits.Zero()
	for r := 0; r < b; r++ {
		if valid != nil && !valid[r] {
			continue
		}
		tgt := targets[r]
		if tgt < 0 || tgt >= k {
			panic(fmt.Sprintf("nn: SoftmaxCE target %d out of range [0,%d)", tgt, k))
		}
		row := logits.Row(r)
		probs := dLogits.Row(r) // reuse as scratch: will hold p - onehot
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			probs[j] = v - maxv
		}
		mat.ExpSlice(probs, probs)
		var sum float64
		for _, e := range probs {
			sum += e
		}
		inv := 1 / sum
		for j := range probs {
			probs[j] *= inv
		}
		loss += -math.Log(math.Max(probs[tgt], 1e-300))
		probs[tgt] -= 1
		count++
	}
	return loss, count
}

// LogSoftmaxInto writes the log-probabilities into out (same length as
// logits; aliasing logits is allowed).
func LogSoftmaxInto(logits, out []float64) {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("nn: LogSoftmaxInto dst len %d, want %d", len(out), len(logits)))
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - maxv)
	}
	lse := maxv + math.Log(sum)
	for i, v := range logits {
		out[i] = v - lse
	}
}

// Softmax returns the probabilities for one logit vector.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(logits, out)
	return out
}

// SoftmaxInto writes the probabilities into out, computed exactly as
// Softmax does (log-softmax then exponentiation, for the same bits).
func SoftmaxInto(logits, out []float64) {
	LogSoftmaxInto(logits, out)
	for i, v := range out {
		out[i] = math.Exp(v)
	}
}

// MaskedBCEWithLogits computes the summed binary cross-entropy with
// logits over masked outputs, the numerically stable equivalent of
// PyTorch's BCEWithLogitsLoss with a weight mask (§4.1 of the paper).
// logits, targets and mask are all [B x K]; entries with mask 0
// contribute neither loss nor gradient. Returns (loss, dLogits, count)
// where count is the number of unmasked outputs.
func MaskedBCEWithLogits(logits, targets, mask *mat.Dense) (loss float64, dLogits *mat.Dense, count int) {
	dLogits = mat.NewDense(logits.Rows, logits.Cols)
	loss, count = MaskedBCEWithLogitsInto(logits, targets, mask, dLogits)
	return loss, dLogits, count
}

// MaskedBCEWithLogitsInto is MaskedBCEWithLogits writing the gradient
// into a caller-provided matrix. exp(-|z|) and σ(z) come from the vector
// kernels (math.Exp and sigmoid bit for bit), bceChunk logits at a time;
// the loss still sums in ascending element order.
func MaskedBCEWithLogitsInto(logits, targets, mask, dLogits *mat.Dense) (loss float64, count int) {
	if !logits.SameShape(targets) || !logits.SameShape(mask) {
		panic("nn: MaskedBCEWithLogits shape mismatch")
	}
	if !logits.SameShape(dLogits) {
		panic("nn: MaskedBCEWithLogitsInto dst shape mismatch")
	}
	var ex [bceChunk]float64
	for i0 := 0; i0 < len(logits.Data); i0 += bceChunk {
		i1 := min(i0+bceChunk, len(logits.Data))
		zs, d, e := logits.Data[i0:i1], dLogits.Data[i0:i1], ex[:i1-i0]
		for j, z := range zs {
			e[j] = -math.Abs(z)
		}
		mat.ExpSlice(e, e)
		mat.SigmoidSlice(d, zs)
		for j, z := range zs {
			m, t := mask.Data[i0+j], targets.Data[i0+j]
			if m == 0 {
				d[j] = 0
				continue
			}
			// Stable: max(z,0) - z*t + log(1+exp(-|z|)).
			l := math.Max(z, 0) - z*t + math.Log1p(e[j])
			loss += m * l
			d[j] = m * (d[j] - t)
			count++
		}
	}
	return loss, count
}

// bceChunk is how many logits MaskedBCEWithLogitsInto exponentiates per
// kernel call: a lifetime head's row (47 bins) in one.
const bceChunk = 64

// SigmoidInto applies the logistic function element-wise into out (same
// length as x; aliasing is allowed).
func SigmoidInto(x, out []float64) {
	if len(out) != len(x) {
		panic(fmt.Sprintf("nn: SigmoidInto dst len %d, want %d", len(out), len(x)))
	}
	for i, v := range x {
		out[i] = sigmoid(v)
	}
}

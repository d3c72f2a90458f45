package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Vectorized output heads for the continuous-batching decode path
// (DESIGN.md §6.2). Each one computes exactly what its scalar
// counterpart computes — same elementary operations on the same values
// in the same order, with mat.ExpSlice standing in bit-for-bit for
// math.Exp — so swapping them into the batched path cannot perturb a
// single sampled trace. The teacher-forced predictors keep the scalar
// implementations; the exactness tests in vecact_test.go compare the
// two element-for-element. (The gate activations are mat.SigmoidSlice
// and mat.TanhSlice, called directly.)

// SoftmaxIntoVec writes the probabilities into out exactly as
// SoftmaxInto does — log-softmax with the same ascending-index
// max/sum reductions, then exponentiation — with both Exp passes
// vectorized. Unlike SoftmaxInto, out must not alias logits (it is
// used as exp scratch before logits is fully consumed).
func SoftmaxIntoVec(logits, out []float64) {
	if len(out) != len(logits) {
		panic(fmt.Sprintf("nn: SoftmaxIntoVec dst len %d, want %d", len(out), len(logits)))
	}
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	for i, v := range logits {
		out[i] = v - maxv
	}
	mat.ExpSlice(out, out)
	var sum float64
	for _, e := range out {
		sum += e
	}
	lse := maxv + math.Log(sum)
	for i, v := range logits {
		out[i] = v - lse
	}
	mat.ExpSlice(out, out)
}

// SigmoidIntoVec writes elementwise sigmoids into out exactly as
// SigmoidInto does, through the fused mat.SigmoidSlice kernel.
func SigmoidIntoVec(logits, out []float64) { mat.SigmoidSlice(out, logits) }

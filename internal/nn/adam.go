package nn

import (
	"math"

	"repro/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2014) with decoupled
// weight decay and optional global-norm gradient clipping, matching the
// paper's training setup (§4.1-4.2).
type Adam struct {
	LR          float64 // learning rate
	Beta1       float64 // first-moment decay (default 0.9)
	Beta2       float64 // second-moment decay (default 0.999)
	Eps         float64 // numerical stabilizer (default 1e-8)
	WeightDecay float64 // decoupled L2 decay applied to weights
	ClipNorm    float64 // if > 0, clip gradients to this global L2 norm
	t           int     // step counter for bias correction
	lastNorm    float64 // pre-clip global gradient norm from the latest Step
}

// NewAdam returns an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// LastGradNorm returns the pre-clip global gradient L2 norm observed at
// the most recent Step. The norm is only computed when ClipNorm > 0
// (clipping already pays for the pass over the gradients); it reads 0
// otherwise, keeping the unclipped path cost-free.
func (a *Adam) LastGradNorm() float64 { return a.lastNorm }

// Step applies one update to all params from their accumulated
// gradients. Gradients are left untouched; the caller zeroes them.
func (a *Adam) Step(params []*Param) {
	a.t++
	if a.ClipNorm > 0 {
		var sq float64
		for _, p := range params {
			for _, g := range p.Grad.Data {
				sq += g * g
			}
		}
		norm := math.Sqrt(sq)
		a.lastNorm = norm
		if norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range params {
				mat.Scale(scale, p.Grad.Data)
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		val, grad, m, v := p.Value.Data, p.Grad.Data, p.m.Data, p.v.Data
		for i, g := range grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			upd := a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			if a.WeightDecay > 0 {
				upd += a.LR * a.WeightDecay * val[i]
			}
			val[i] -= upd
		}
	}
}

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

	// What start hands the updates: whether the gradients are clipped
	// and by what scale, and the two bias corrections.
	clip     bool
	scale    float64
	bc1, bc2 float64
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
// gradients: start, then update over every element. When clipping
// triggers, the gradients are left scaled; otherwise they are left
// untouched. The caller zeroes them.
func (a *Adam) Step(params []*Param) {
	a.start(params)
	a.update(params, 0, math.MaxInt)
}

// start is Step's serial part: the step count, the global gradient
// norm summed in parameter order and the clip decision it makes, and
// the bias corrections every update reads.
func (a *Adam) start(params []*Param) {
	a.t++
	a.clip = false
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
			a.clip, a.scale = true, a.ClipNorm/norm
		}
	}
	a.bc1 = 1 - math.Pow(a.Beta1, float64(a.t))
	a.bc2 = 1 - math.Pow(a.Beta2, float64(a.t))
}

// update is Step's elementwise part over elements [lo, hi) of params
// laid end to end in order: the clip scale, then the moment and value
// updates. Each element reads only its own gradient, moments and value,
// so disjoint ranges may run concurrently after one start, and any
// split of the elements gives the bits of one update over all of them.
func (a *Adam) update(params []*Param, lo, hi int) {
	off := 0
	for _, p := range params {
		n := len(p.Value.Data)
		if i0, i1 := max(lo-off, 0), min(hi-off, n); i0 < i1 {
			a.updateRange(p.Value.Data[i0:i1], p.Grad.Data[i0:i1], p.m.Data[i0:i1], p.v.Data[i0:i1])
		}
		if off += n; off >= hi {
			return
		}
	}
}

// updateRange updates one parameter's values val from its gradients
// grad and moments m and v, all of one length.
func (a *Adam) updateRange(val, grad, m, v []float64) {
	b1, b2, lr, wd, eps := a.Beta1, a.Beta2, a.LR, a.WeightDecay, a.Eps
	bc1, bc2 := a.bc1, a.bc2
	if a.clip {
		mat.Scale(a.scale, grad)
	}
	for i, g := range grad {
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		upd := lr * mHat / (math.Sqrt(vHat) + eps)
		if wd > 0 {
			upd += lr * wd * val[i]
		}
		val[i] -= upd
	}
}

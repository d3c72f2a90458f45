// Package tune implements the paper's §4.2 hyperparameter methodology:
// "the elastic net regularization penalty for Poisson regression, and
// the weight decay and learning rate for the LSTM resource/lifetime
// models, are tuned on the corresponding development sets ... for their
// stage-specific (and cloud-specific) development data." It provides
// grid searches for each stage, scoring candidates on the dev window.
package tune

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/survival"
	"repro/internal/trace"
)

// Result is one evaluated candidate.
type Result struct {
	Params map[string]float64
	Score  float64 // dev loss (lower is better)
}

// byScore sorts results ascending by score.
func byScore(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Score < rs[j].Score })
}

// ArrivalGrid tunes the Poisson regression's ridge penalty on dev-window
// NLL (the stage-1 search). Returns all candidates, best first.
func ArrivalGrid(train, dev *trace.Trace, devOffset int, l2s []float64) ([]Result, error) {
	if len(l2s) == 0 {
		return nil, fmt.Errorf("tune: empty L2 grid")
	}
	devCounts := dev.BatchCounts()
	var results []Result
	for _, l2 := range l2s {
		m, err := core.TrainArrival(train, core.ArrivalOptions{
			Kind: core.BatchArrivals, UseDOH: true, L2: l2,
		})
		if err != nil {
			return nil, fmt.Errorf("tune: l2=%v: %w", l2, err)
		}
		// Dev NLL with the actual day encoded (teacher-forced).
		var nll float64
		for p, c := range devCounts {
			abs := devOffset + p
			mu := m.Rate(abs, trace.DayOfHistory(abs))
			mu = math.Max(mu, 1e-9)
			nll += mu - float64(c)*math.Log(mu)
		}
		results = append(results, Result{
			Params: map[string]float64{"l2": l2},
			Score:  nll / float64(len(devCounts)),
		})
	}
	byScore(results)
	return results, nil
}

// FlavorGrid tunes the flavor LSTM's learning rate and weight decay on
// dev-window NLL. base supplies the non-tuned fields (hidden size,
// epochs, ...); Dev/DevOffset in base are ignored (the search scores dev
// explicitly, without per-epoch snapshots, so candidates are compared on
// their final weights).
func FlavorGrid(train, dev *trace.Trace, devOffset int, base core.TrainConfig, lrs, wds []float64) ([]Result, error) {
	if len(lrs) == 0 || len(wds) == 0 {
		return nil, fmt.Errorf("tune: empty grid")
	}
	devToks := core.FlavorTokens(dev)
	var results []Result
	for _, lr := range lrs {
		for _, wd := range wds {
			cfg := base
			cfg.LR = lr
			cfg.WeightDecay = wd
			cfg.Dev = nil
			m := core.TrainFlavor(train, cfg)
			ev := core.EvaluateFlavor(core.NewLSTMFlavorPredictor(m), devToks, devOffset)
			results = append(results, Result{
				Params: map[string]float64{"lr": lr, "wd": wd},
				Score:  ev.NLL,
			})
		}
	}
	byScore(results)
	return results, nil
}

// LifetimeGrid tunes the lifetime LSTM's learning rate and weight decay
// on dev-window BCE.
func LifetimeGrid(train, dev *trace.Trace, devOffset int, bins survival.Bins, base core.TrainConfig, lrs, wds []float64) ([]Result, error) {
	if len(lrs) == 0 || len(wds) == 0 {
		return nil, fmt.Errorf("tune: empty grid")
	}
	devSteps := core.LifetimeSteps(dev, bins)
	var results []Result
	for _, lr := range lrs {
		for _, wd := range wds {
			cfg := base
			cfg.LR = lr
			cfg.WeightDecay = wd
			cfg.Dev = nil
			m := core.TrainLifetime(train, bins, cfg)
			ev := core.EvaluateLifetime(core.NewLSTMLifetimePredictor(m), devSteps, bins, devOffset)
			results = append(results, Result{
				Params: map[string]float64{"lr": lr, "wd": wd},
				Score:  ev.BCE,
			})
		}
	}
	byScore(results)
	return results, nil
}

// DOHGeomGrid tunes the geometric DOH-sampling success probability
// (§2.1.2: "with success probability tuned on development data") by
// maximizing dev-window 90% interval coverage of batch counts.
func DOHGeomGrid(train, dev *trace.Trace, devOffset int, ps []float64, samples int) ([]Result, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("tune: empty p grid")
	}
	if samples <= 0 {
		samples = 200
	}
	var results []Result
	for _, p := range ps {
		if p <= 0 || p > 1 {
			return nil, fmt.Errorf("tune: p=%v outside (0,1]", p)
		}
		cov, err := dohCoverage(train, dev, devOffset, p, samples)
		if err != nil {
			return nil, err
		}
		results = append(results, Result{
			Params: map[string]float64{"p": p},
			Score:  1 - cov, // lower is better
		})
	}
	byScore(results)
	return results, nil
}

// dohCoverage computes dev coverage of the 90% interval under geometric
// DOH sampling with success probability p.
func dohCoverage(train, dev *trace.Trace, devOffset int, p float64, samples int) (float64, error) {
	m, err := core.TrainArrival(train, core.ArrivalOptions{
		Kind: core.BatchArrivals, UseDOH: true,
	})
	if err != nil {
		return 0, err
	}
	m.DOH.GeomP = p
	m.DOH.Mode = 1 // features.DOHGeometric
	return core.ArrivalCoverageOn(m, dev, devOffset, samples), nil
}

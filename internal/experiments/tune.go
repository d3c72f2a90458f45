package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
)

// The paper's §4.2 hyperparameter methodology: "the elastic net
// regularization penalty for Poisson regression, and the weight decay
// and learning rate for the LSTM resource/lifetime models, are tuned on
// the corresponding development sets ... for their stage-specific (and
// cloud-specific) development data." One grid search per stage, each
// scoring its candidates on the dev window; -exp tune runs them
// (tuneGrids).

// GridResult is one evaluated candidate.
type GridResult struct {
	Params map[string]float64
	Score  float64 // dev loss (lower is better)
}

// TuneGrid is one grid search of -exp tune: every candidate, best first.
type TuneGrid struct {
	Grid    string
	Results []GridResult
}

// tuneGrids are the searches of -exp tune, each with its candidates, run
// on a cloud's own train and dev windows; the LSTM grids train with the
// scale's recipe and vary only its learning rate and weight decay.
var tuneGrids = []struct {
	name string
	run  func(c *Cloud) ([]GridResult, error)
}{
	{"arrival L2", func(c *Cloud) ([]GridResult, error) {
		return ArrivalGrid(c.Train, c.Dev, c.DevW.Start, []float64{0.01, 0.1, 1, 10})
	}},
	{"DOH geometric p (score = 1 - coverage)", func(c *Cloud) ([]GridResult, error) {
		return DOHGeomGrid(c.Train, c.Dev, c.DevW.Start, []float64{1.0 / 14, 1.0 / 7, 1.0 / 3, 0.9}, 200)
	}},
	{"flavor LSTM (lr, wd)", func(c *Cloud) ([]GridResult, error) {
		return FlavorGrid(c.Train, c.Dev, c.DevW.Start, c.Scale.Train, []float64{3e-3, 8e-3}, []float64{0, 1e-4})
	}},
	{"lifetime LSTM (lr, wd)", func(c *Cloud) ([]GridResult, error) {
		return LifetimeGrid(c.Train, c.Dev, c.DevW.Start, c.Bins, c.Scale.Train, []float64{3e-3, 8e-3}, []float64{0, 1e-4})
	}},
}

// byScore sorts results ascending by score.
func byScore(rs []GridResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Score < rs[j].Score })
}

// ArrivalGrid tunes the Poisson regression's ridge penalty on dev-window
// NLL (the stage-1 search). Returns all candidates, best first.
func ArrivalGrid(train, dev *trace.Trace, devOffset int, l2s []float64) ([]GridResult, error) {
	if len(l2s) == 0 {
		return nil, fmt.Errorf("experiments: empty L2 grid")
	}
	devCounts := dev.BatchCounts()
	var results []GridResult
	for _, l2 := range l2s {
		m, err := core.TrainArrival(train, core.ArrivalOptions{
			Kind: core.BatchArrivals, UseDOH: true, L2: l2,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: l2=%v: %w", l2, err)
		}
		// Dev NLL with the actual day encoded (teacher-forced).
		var nll float64
		for p, c := range devCounts {
			abs := devOffset + p
			mu := m.Rate(abs, trace.DayOfHistory(abs))
			mu = math.Max(mu, 1e-9)
			nll += mu - float64(c)*math.Log(mu)
		}
		results = append(results, GridResult{
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
func FlavorGrid(train, dev *trace.Trace, devOffset int, base core.TrainConfig, lrs, wds []float64) ([]GridResult, error) {
	devToks := core.FlavorTokens(dev)
	return lrWDGrid(base, lrs, wds, func(cfg core.TrainConfig) float64 {
		m := core.TrainFlavor(train, cfg)
		return core.EvaluateFlavor(core.NewLSTMFlavorPredictor(m), devToks, devOffset).NLL
	})
}

// LifetimeGrid tunes the lifetime LSTM's learning rate and weight decay
// on dev-window BCE, as FlavorGrid does the flavor LSTM's.
func LifetimeGrid(train, dev *trace.Trace, devOffset int, bins survival.Bins, base core.TrainConfig, lrs, wds []float64) ([]GridResult, error) {
	devSteps := core.LifetimeSteps(dev, bins)
	return lrWDGrid(base, lrs, wds, func(cfg core.TrainConfig) float64 {
		m := core.TrainLifetime(train, bins, cfg)
		return core.EvaluateLifetime(core.NewLSTMLifetimePredictor(m), devSteps, bins, devOffset).BCE
	})
}

// lrWDGrid scores every (learning rate, weight decay) pair on base's
// other fields, without dev-set selection, and returns all candidates,
// best first.
func lrWDGrid(base core.TrainConfig, lrs, wds []float64, score func(core.TrainConfig) float64) ([]GridResult, error) {
	if len(lrs) == 0 || len(wds) == 0 {
		return nil, fmt.Errorf("experiments: empty grid")
	}
	var results []GridResult
	for _, lr := range lrs {
		for _, wd := range wds {
			cfg := base
			cfg.LR, cfg.WeightDecay, cfg.Dev = lr, wd, nil
			results = append(results, GridResult{
				Params: map[string]float64{"lr": lr, "wd": wd},
				Score:  score(cfg),
			})
		}
	}
	byScore(results)
	return results, nil
}

// DOHGeomGrid tunes the geometric DOH-sampling success probability
// (§2.1.2: "with success probability tuned on development data") by
// maximizing dev-window 90% interval coverage of batch counts. The
// sampler is not part of the fit, so the arrival model is fitted once
// and each candidate samples a copy with its own p.
func DOHGeomGrid(train, dev *trace.Trace, devOffset int, ps []float64, samples int) ([]GridResult, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("experiments: empty p grid")
	}
	if samples <= 0 {
		samples = 200
	}
	fit, err := core.TrainArrival(train, core.ArrivalOptions{
		Kind: core.BatchArrivals, UseDOH: true,
	})
	if err != nil {
		return nil, err
	}
	var results []GridResult
	for _, p := range ps {
		if p <= 0 || p > 1 {
			return nil, fmt.Errorf("experiments: p=%v outside (0,1]", p)
		}
		m := *fit
		m.DOH.GeomP = p
		m.DOH.Mode = features.DOHGeometric
		_, _, cov := sampleArrivals(&m, dev, devOffset, samples, rng.New(12345))
		results = append(results, GridResult{
			Params: map[string]float64{"p": p},
			Score:  1 - cov, // lower is better
		})
	}
	byScore(results)
	return results, nil
}

// Package experiments reproduces every table and figure of the paper's
// evaluation (§5 prediction results, §6 use cases) on the synthetic
// Azure-like and Huawei-like workloads. Each exported function
// regenerates one table or figure and returns a structured result that
// cmd/experiments renders in the paper's format and bench_test.go runs
// as a benchmark.
//
// What the paper measures its model against lives here rather than in
// internal/core, which fits and serves the model: the baseline
// predictors of Tables 2 and 3 and the Naive and SimpleBatch generators
// of §6 (baselines.go, generators.go), the §4.2 development-set grid
// searches (tune.go), the classical forecasters of the §7 forecasting
// contrast (forecastcmp.go), and the models that exist only for the
// paper's design comparisons: the softmax-PMF lifetime head (§2.3.1)
// and the single-LSTM joint model with end-of-period tokens (§7). The
// fitted comparators train through core's one driver (core.BPTTTask).
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/survival"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale selects the experiment size: the scaled-down configuration used
// by tests and benches, or the larger one behind cmd/experiments -full.
type Scale struct {
	AzureDays, AzureUsers   int
	AzureRate               float64
	HuaweiDays, HuaweiUsers int
	HuaweiRate              float64
	// HuaweiExtraDays extends the Huawei test-window censoring horizon
	// (§3.2's two extra months of monitoring, scaled).
	HuaweiExtraDays int
	Samples         int              // sampled traces / Poisson draws per figure (paper: 500)
	Tuples          int              // packing tuples for Table 5 / Figure 10 (paper: 500)
	Train           core.TrainConfig `json:"-"` // recorded as Results.Recipe
	Seed            int64
}

// SmallScale is the fast configuration used by tests and benchmarks.
func SmallScale() Scale {
	return Scale{
		// 9 days so the training window covers every day-of-week (a
		// shorter history leaves weekend DOW features untrained and
		// biases weekend test periods).
		AzureDays: 9, AzureUsers: 400, AzureRate: 3,
		HuaweiDays: 12, HuaweiUsers: 80, HuaweiRate: 1.6,
		HuaweiExtraDays: 4,
		Samples:         40,
		Tuples:          100,
		Train: core.TrainConfig{
			Hidden: 24, Layers: 2, SeqLen: 64, BatchSize: 8,
			Epochs: 40, LR: 8e-3,
		},
		Seed: 1,
	}
}

// FullScale is the larger configuration for cmd/experiments -full. It
// remains far below the paper's GPU-month scale but sharpens every
// estimate.
func FullScale() Scale {
	return Scale{
		AzureDays: 14, AzureUsers: 300, AzureRate: 4,
		HuaweiDays: 40, HuaweiUsers: 200, HuaweiRate: 1.6,
		HuaweiExtraDays: 10,
		Samples:         500,
		Tuples:          500,
		Train: core.TrainConfig{
			Hidden: 64, Layers: 2, SeqLen: 128, BatchSize: 8,
			Epochs: 20, LR: 5e-3,
		},
		Seed: 1,
	}
}

// CloudID selects the dataset.
type CloudID int

const (
	// Azure is the synthetic cloud of the azure workload preset.
	Azure CloudID = iota
	// Huawei is the synthetic cloud of the huawei workload preset.
	Huawei
)

func (c CloudID) String() string {
	if c == Azure {
		return "Azure"
	}
	return "HuaweiCloud"
}

// Cloud is a prepared dataset: the ground-truth history, its windows and
// slices, and (once Model/Baselines are called) the trained generators.
type Cloud struct {
	ID     CloudID
	Scale  Scale
	Full   *trace.Trace
	TrainW trace.Window
	DevW   trace.Window
	TestW  trace.Window
	Train  *trace.Trace
	Dev    *trace.Trace
	Test   *trace.Trace
	Bins   survival.Bins
	model  *core.Model
	naive  core.Generator
	simple core.Generator
}

// NewCloud generates the ground-truth history of the cloud's workload
// preset, resized to the Scale, and carves the windows.
func NewCloud(id CloudID, s Scale) *Cloud {
	var cfg synth.Config
	switch id {
	case Azure:
		cfg = workload.PresetConfig("azure")
		cfg.Days, cfg.Users, cfg.BaseRate = s.AzureDays, s.AzureUsers, s.AzureRate
	case Huawei:
		cfg = workload.PresetConfig("huawei")
		cfg.Days, cfg.Users, cfg.BaseRate = s.HuaweiDays, s.HuaweiUsers, s.HuaweiRate
	default:
		panic(fmt.Sprintf("experiments: unknown cloud %d", id))
	}
	return NewCloudFromConfig(id, s, cfg)
}

// NewCloudFromConfig generates the ground-truth history from an
// arbitrary scenario config: cmd/experiments compiles any other -cloud
// spec (possibly multi-cohort) and runs the same experiment suite over
// it that the two clouds get.
func NewCloudFromConfig(id CloudID, s Scale, cfg synth.Config) *Cloud {
	full := cfg.Generate(s.Seed*1000 + int64(id))
	return NewCloudFromTrace(id, s, full)
}

// NewCloudFromTrace carves windows over an existing ground-truth trace
// — the trace-replay path: a recorded generation (workload record
// format) stands in for a fresh synth run, so the sched/capacity
// experiments run against exactly the bytes that were served. The
// trace's length determines the windows.
func NewCloudFromTrace(id CloudID, s Scale, full *trace.Trace) *Cloud {
	days := full.Periods / trace.PeriodsPerDay
	if days < 3 {
		panic(fmt.Sprintf("experiments: ground-truth trace spans %d periods; need at least 3 days", full.Periods))
	}
	var extra float64
	if id == Huawei {
		extra = float64(s.HuaweiExtraDays) * 86400
	}
	trainW, devW, testW := synth.StandardSplit(days)
	return &Cloud{
		ID:     id,
		Scale:  s,
		Full:   full,
		TrainW: trainW,
		DevW:   devW,
		TestW:  testW,
		Train:  full.Slice(trainW, 0),
		Dev:    full.Slice(devW, 0),
		Test:   full.Slice(testW, extra),
		Bins:   survival.PaperBins(),
	}
}

// Model returns the trained three-stage LSTM model, training it on first
// use.
func (c *Cloud) Model() *core.Model {
	if c.model == nil {
		tc := c.Scale.Train
		tc.Dev = c.Dev
		tc.DevOffset = c.DevW.Start
		m, err := core.TrainModel(c.Train, core.ModelOptions{Bins: c.Bins, Train: tc})
		if err != nil {
			panic(fmt.Sprintf("experiments: train %s: %v", c.ID, err))
		}
		c.model = m
	}
	return c.model
}

// Naive returns the fitted Naive baseline generator.
func (c *Cloud) Naive() core.Generator {
	if c.naive == nil {
		n, err := NewNaiveGenerator(c.Train, c.Bins)
		if err != nil {
			panic(fmt.Sprintf("experiments: naive %s: %v", c.ID, err))
		}
		c.naive = n
	}
	return c.naive
}

// SimpleBatch returns the fitted SimpleBatch baseline generator.
func (c *Cloud) SimpleBatch() core.Generator {
	if c.simple == nil {
		s, err := newSimpleBatchGenerator(c.Train, c.Bins)
		if err != nil {
			panic(fmt.Sprintf("experiments: simplebatch %s: %v", c.ID, err))
		}
		c.simple = s
	}
	return c.simple
}

// Generators returns the three end-to-end generators of §6 in paper
// order: Naive, SimpleBatch, LSTM.
func (c *Cloud) Generators() []core.Generator {
	return []core.Generator{c.Naive(), c.SimpleBatch(), c.Model()}
}

// FitAll trains every cloud's generators up front, fitting the clouds
// in parallel. Each cloud's fit consumes only its own seeded streams
// and writes only its own lazy caches, so the fitted models are
// identical to on-demand fitting — this just overlaps the per-cloud
// training time before a sequential rendering pass.
func FitAll(clouds ...*Cloud) {
	par.Do(len(clouds), func(i int) {
		c := clouds[i]
		c.Model()
		c.Naive()
		c.SimpleBatch()
	})
}

// Table1Row is one dataset row of Table 1.
type Table1Row struct {
	Cloud                        string
	TrainDays, DevDays, TestDays float64
	TrainVMs, DevVMs, TestVMs    int
}

// Table1 reports the experimental dataset statistics (paper Table 1).
func Table1(clouds ...*Cloud) []Table1Row {
	rows := make([]Table1Row, 0, len(clouds))
	for _, c := range clouds {
		rows = append(rows, Table1Row{
			Cloud:     c.ID.String(),
			TrainDays: c.TrainW.Days(),
			DevDays:   c.DevW.Days(),
			TestDays:  c.TestW.Days(),
			TrainVMs:  len(c.Train.VMs),
			DevVMs:    len(c.Dev.VMs),
			TestVMs:   len(c.Test.VMs),
		})
	}
	return rows
}

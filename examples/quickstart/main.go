// Quickstart: train the three-stage workload model on a small synthetic
// history, generate a one-day future trace, and print summary
// statistics. This is the minimal end-to-end tour of the public API:
//
//	workload.PresetConfig  -> a scenario's simulator config
//	synth.Config.Generate  -> ground-truth history
//	trace.Trace.Slice      -> observation windows with censoring
//	core.TrainModel        -> stage 1-3 training (§2 of the paper)
//	Model.Generate         -> sampled future trace (§2.4)
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	// 1. Build a synthetic "historical" workload (stands in for a real
	// provider trace; see DESIGN.md for the substitution rationale).
	cfg := workload.PresetConfig("azure")
	cfg.Days = 8
	history := cfg.Generate(42)
	fmt.Printf("history: %d VMs over %.0f days, %d flavors\n",
		len(history.VMs), history.Days(), history.Flavors.K())

	// 2. Carve train/dev windows with Figure-3 censoring semantics.
	devStart := 6 * trace.PeriodsPerDay
	train := history.Slice(trace.Window{Start: 0, End: devStart}, 0)
	dev := history.Slice(trace.Window{Start: devStart, End: history.Periods}, 0)
	stats := train.ComputeStats()
	fmt.Printf("train:   %d VMs in %d batches (mean size %.2f), %d censored\n",
		stats.VMs, stats.Batches, stats.MeanBatch, stats.Censored)

	// 3. Train all three stages (Poisson regression + two LSTMs).
	model, err := core.TrainModel(train, core.ModelOptions{
		Bins: survival.PaperBins(),
		Train: core.TrainConfig{
			Hidden: 24, Epochs: 30, Seed: 1,
			Dev: dev, DevOffset: devStart,
			Progress: func(epoch int, loss float64) {
				if epoch%10 == 0 {
					fmt.Printf("  epoch %2d loss %.4f\n", epoch, loss)
				}
			},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}

	// 4. Generate one future day beyond the history.
	future := trace.Window{Start: history.Periods, End: history.Periods + trace.PeriodsPerDay}
	generated := core.WithCatalog(model.Generate(rng.New(7), future), history.Flavors)
	gstats := generated.ComputeStats()
	fmt.Printf("generated: %d VMs in %d batches (mean size %.2f), %.0f CPU-hours\n",
		gstats.VMs, gstats.Batches, gstats.MeanBatch, gstats.TotalCPUhrs)

	// 5. The trace is a plain value: write it wherever you like.
	fmt.Println("first five generated VMs:")
	for _, vm := range generated.VMs[:min(5, len(generated.VMs))] {
		def := generated.Flavors.Defs[vm.Flavor]
		fmt.Printf("  user %3d  %-10s  start period %3d  lifetime %6.0fs\n",
			vm.User, def.Name, vm.Start, vm.Duration)
	}
}

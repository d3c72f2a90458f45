// Command hypertune runs the paper's §4.2 development-set grid searches:
// the ridge penalty for the batch-arrival Poisson regression, the
// learning rate and weight decay for the flavor and lifetime LSTMs, and
// the geometric DOH-sampling probability, on the -cloud scenario: a
// workload preset (azure, huawei, mixed) or a JSON spec file
// (DESIGN.md §9).
//
// Usage:
//
//	hypertune [-cloud azure|huawei|mixed|spec.json] [-days 9] [-seed 1] [-stage all|arrival|flavor|lifetime|doh]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	cloud := flag.String("cloud", "azure", "scenario: a workload preset (azure, huawei, mixed) or a JSON spec file")
	days := flag.Int("days", 9, "history length in days")
	seed := flag.Int64("seed", 1, "data seed")
	stage := flag.String("stage", "all", "all, arrival, flavor, lifetime, or doh")
	flag.Parse()

	_, cfg, err := workload.Load(*cloud)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypertune:", err)
		os.Exit(1)
	}
	cfg.Days = *days
	full := cfg.Generate(*seed)
	devOff := full.Periods * 8 / 10
	train := full.Slice(trace.Window{Start: 0, End: devOff}, 0)
	dev := full.Slice(trace.Window{Start: devOff, End: full.Periods}, 0)
	fmt.Printf("tuning on %s: %d train VMs, %d dev VMs\n\n", cfg.Name, len(train.VMs), len(dev.VMs))

	report := func(name string, results []experiments.GridResult, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "hypertune: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%s grid (best first):\n", name)
		for _, r := range results {
			fmt.Printf("  %v  score %.5f\n", r.Params, r.Score)
		}
		fmt.Println()
	}

	want := func(s string) bool { return *stage == "all" || *stage == s }
	start := time.Now()
	if want("arrival") {
		res, err := experiments.ArrivalGrid(train, dev, devOff, []float64{0.01, 0.1, 1, 10})
		report("arrival L2", res, err)
	}
	if want("doh") {
		res, err := experiments.DOHGeomGrid(train, dev, devOff, []float64{1.0 / 14, 1.0 / 7, 1.0 / 3, 0.9}, 200)
		report("DOH geometric p (score = 1 - coverage)", res, err)
	}
	base := core.TrainConfig{Hidden: 24, Layers: 2, SeqLen: 64, BatchSize: 8, Epochs: 25, Seed: *seed}
	if want("flavor") {
		res, err := experiments.FlavorGrid(train, dev, devOff, base,
			[]float64{3e-3, 8e-3}, []float64{0, 1e-4})
		report("flavor LSTM (lr, wd)", res, err)
	}
	if want("lifetime") {
		res, err := experiments.LifetimeGrid(train, dev, devOff, survival.PaperBins(), base,
			[]float64{3e-3, 8e-3}, []float64{0, 1e-4})
		report("lifetime LSTM (lr, wd)", res, err)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}

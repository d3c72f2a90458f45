// Command analyze prints a workload characterization report for a
// generated scenario or a trace CSV: arrival dispersion and seasonality,
// batch structure, flavor popularity, lifetime quantiles and censoring,
// and the inter-job correlations (momentum) that the paper's models
// exploit.
//
// -cloud names the scenario: a workload preset (azure, huawei, mixed)
// or a JSON spec file (DESIGN.md §9). With -csv it supplies the flavor
// catalog the trace's flavor indices refer to, so CPU-hour shares
// weigh each VM by its flavor's CPUs.
//
// Usage:
//
//	analyze [-cloud azure|huawei|mixed|spec.json] [-days 6] [-seed 1]
//	analyze -csv trace.csv -cloud huawei
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	cloud := flag.String("cloud", "azure", "scenario: a workload preset (azure, huawei, mixed) or a JSON spec file; its catalog with -csv")
	days := flag.Int("days", 6, "days of synthetic workload")
	seed := flag.Int64("seed", 1, "generation seed")
	csvPath := flag.String("csv", "", "analyze this trace CSV instead of generating")
	flag.Parse()

	_, cfg, err := workload.Load(*cloud)
	if err != nil {
		fatal(err)
	}
	var tr *trace.Trace
	var name string
	if *csvPath != "" {
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err = trace.ReadCSV(f, cfg.Flavors, 0)
		if err != nil {
			fatal(err)
		}
		name = *csvPath
	} else {
		cfg.Days = *days
		full := cfg.Generate(*seed)
		// Impose an observation window so censoring statistics are
		// realistic.
		tr = full.Slice(trace.Window{Start: 0, End: full.Periods}, 0)
		name = cfg.Name
	}
	analysis.Characterize(name, tr).Render(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}

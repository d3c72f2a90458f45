// Command experiments regenerates the paper's tables and figures on the
// synthetic clouds and prints them in the paper's format.
//
// Usage:
//
//	experiments [-full] [-cloud azure|huawei|both] [-exp all|table1|fig4|fig5|fig6|table2|table3|table4|fig7|fig8|fig9|table5|tenx|censoring|joint] [-seed N] [-journal run.jsonl]
//	experiments -workload-spec mixed -exp table2
//	experiments -replay-trace served.jsonl -exp table2,fig9
//
// The default scale is the fast test configuration; -full uses the
// larger configuration (several minutes of LSTM training per cloud).
//
// -workload-spec replaces the hardcoded clouds with one declarative
// scenario (a preset name or a JSON spec file, DESIGN.md §9); the
// experiment suite runs over the compiled spec exactly as it does over
// the presets. -replay-trace goes one step further: the first record
// in the given file (the workload record format cmd/traced -record and
// cmd/tracegen -record write) becomes the ground-truth history, so the
// sched/capacity experiments run against exactly the bytes that were
// served.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/workload"
)

// readRecords loads a non-empty workload record file.
func readRecords(path string) ([]*workload.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := workload.ReadRecords(f)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("replay-trace: %s holds no records", path)
	}
	return recs, nil
}

func main() {
	full := flag.Bool("full", false, "run the larger FullScale configuration")
	cloud := flag.String("cloud", "both", "azure, huawei, or both")
	workloadSpec := flag.String("workload-spec", "", "run one declarative scenario instead of the -cloud presets: a preset name (azure-like, huawei-like, mixed) or a JSON spec file")
	replayTrace := flag.String("replay-trace", "", "use the first record in this file (workload record format) as the ground-truth history instead of generating one")
	exp := flag.String("exp", "all", "comma-separated experiments to run (all, table1, fig4, fig5, fig6, table2, table3, table4, fig7, fig8, fig9, table5, tenx, censoring, joint, forecast, arch, heads)")
	seed := flag.Int64("seed", 1, "experiment seed")
	export := flag.String("export", "", "also write per-figure TSV plot data into this directory")
	journalPath := flag.String("journal", "", "write a JSONL telemetry journal (per-epoch training events, phase spans) to this path")
	flag.Parse()

	scale := experiments.SmallScale()
	if *full {
		scale = experiments.FullScale()
	}
	scale.Seed = *seed

	var journal *obs.Journal
	if *journalPath != "" {
		var err error
		journal, err = obs.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: open journal:", err)
			os.Exit(1)
		}
		defer journal.Close()
		// Every training loop in every cloud reports through the same
		// journal (writes are line-atomic, so the parallel cloud fits
		// interleave cleanly).
		scale.Train.Obs = journal
	}
	journal.Event("experiments_start", map[string]any{
		"cloud": *cloud, "exp": *exp, "seed": *seed, "full": *full,
	})

	wants := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wants[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool { return wants["all"] || wants[name] }

	var clouds []*experiments.Cloud
	start := time.Now()
	switch {
	case *replayTrace != "":
		// Trace replay: a recorded generation is the ground truth.
		recs, err := readRecords(*replayTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		tr := recs[0].Trace()
		cfg := synth.AzureLike()
		if *cloud == "huawei" {
			cfg = synth.HuaweiLike()
		}
		id := experiments.Azure
		if *cloud == "huawei" {
			id = experiments.Huawei
		}
		clouds = append(clouds, experiments.NewCloudFromTrace(id, scale, cfg, tr))
		fmt.Printf("Replaying %d VMs over %d periods from %s\n", len(tr.VMs), tr.Periods, *replayTrace)
	case *workloadSpec != "":
		// Declarative scenario: one cloud, compiled from the spec. The
		// catalog decides which preset's experiment slots it fills.
		spec, err := workload.Load(*workloadSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		cfg, err := spec.Compile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: compile workload spec:", err)
			os.Exit(1)
		}
		id := experiments.Azure
		if spec.Flavors.Catalog == "huawei259" {
			id = experiments.Huawei
		}
		clouds = append(clouds, experiments.NewCloudFromConfig(id, scale, cfg))
		fmt.Printf("Workload spec %q: %d users, %d cohorts\n", spec.Name, spec.Users, len(spec.Cohorts))
	default:
		if *cloud == "azure" || *cloud == "both" {
			clouds = append(clouds, experiments.NewCloud(experiments.Azure, scale))
		}
		if *cloud == "huawei" || *cloud == "both" {
			clouds = append(clouds, experiments.NewCloud(experiments.Huawei, scale))
		}
	}
	if len(clouds) == 0 {
		fmt.Fprintln(os.Stderr, "experiments: unknown -cloud value")
		os.Exit(2)
	}
	fitSpan := journal.StartSpan("fit_all")
	experiments.FitAll(clouds...)
	fitSpan.End()
	fmt.Printf("Prepared and fitted %d synthetic cloud(s) in %v\n\n", len(clouds), time.Since(start).Round(time.Millisecond))

	if want("table1") {
		experiments.RenderTable1(os.Stdout, experiments.Table1(clouds...))
		fmt.Println()
	}
	for _, c := range clouds {
		name := c.ID.String()
		if want("fig4") && c.ID == experiments.Azure {
			sampled, lastDay := experiments.Figure4(c)
			experiments.RenderArrivalCoverage(os.Stdout, "Figure 4 ("+name+")", sampled)
			experiments.RenderArrivalCoverage(os.Stdout, "Figure 4 ablation ("+name+")", lastDay)
			fmt.Println()
		}
		if want("fig5") && c.ID == experiments.Huawei {
			sampled, lastDay := experiments.Figure5(c)
			experiments.RenderArrivalCoverage(os.Stdout, "Figure 5 ("+name+")", sampled)
			experiments.RenderArrivalCoverage(os.Stdout, "Figure 5 ablation ("+name+")", lastDay)
			fmt.Println()
		}
		if want("fig6") {
			noDOH, withDOH := experiments.Figure6(c)
			experiments.RenderArrivalCoverage(os.Stdout, "Figure 6 ("+name+")", noDOH)
			experiments.RenderArrivalCoverage(os.Stdout, "Figure 6 with DOH ("+name+")", withDOH)
			fmt.Println()
		}
		if want("table2") {
			experiments.RenderTable2(os.Stdout, name, experiments.Table2(c))
			fmt.Println()
		}
		if want("table3") {
			experiments.RenderTable3(os.Stdout, name, experiments.Table3(c))
			fmt.Println()
		}
		if want("table4") && c.ID == experiments.Azure {
			experiments.RenderTable4(os.Stdout, experiments.Table4(c))
			fmt.Println()
		}
		if want("censoring") {
			experiments.RenderCensoring(os.Stdout, name, experiments.CensoringAblation(c))
			fmt.Println()
		}
		if want("fig7") && c.ID == experiments.Azure {
			experiments.RenderCapacity(os.Stdout, "Figure 7 ("+name+"). Total-CPU forecast coverage", experiments.Figure7(c))
			fmt.Println()
		}
		if want("fig8") && c.ID == experiments.Huawei {
			experiments.RenderCapacity(os.Stdout, "Figure 8 ("+name+"). Total-CPU forecast coverage", experiments.Figure8(c))
			fmt.Println()
		}
		if want("fig9") {
			actual, results := experiments.Figure9(c)
			experiments.RenderReuse(os.Stdout, name, actual, results)
			fmt.Println()
		}
		if want("table5") {
			experiments.RenderPacking(os.Stdout, name, experiments.Table5(c))
			fmt.Println()
		}
		if want("tenx") {
			experiments.RenderTenX(os.Stdout, name, experiments.TenX(c))
			fmt.Println()
		}
		if want("joint") && c.ID == experiments.Azure {
			experiments.RenderJoint(os.Stdout, name, experiments.JointVsStaged(c))
			fmt.Println()
		}
		if want("forecast") && c.ID == experiments.Azure {
			experiments.RenderForecast(os.Stdout, name, experiments.ForecastVsGenerative(c))
			fmt.Println()
		}
		if want("arch") && c.ID == experiments.Azure {
			experiments.RenderArch(os.Stdout, name, experiments.ArchitectureAblation(c))
			fmt.Println()
		}
		if want("heads") && c.ID == experiments.Azure {
			experiments.RenderHeads(os.Stdout, name, experiments.PMFvsHazard(c))
			fmt.Println()
		}
	}
	if *export != "" {
		if err := experiments.ExportAll(*export, clouds...); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: export:", err)
			os.Exit(1)
		}
		fmt.Printf("Plot data exported to %s\n", *export)
	}
	journal.Event("experiments_done", map[string]any{
		"wall_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
	fmt.Printf("Total time: %v\n", time.Since(start).Round(time.Millisecond))
}

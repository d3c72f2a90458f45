// Command experiments regenerates the paper's tables and figures on the
// synthetic clouds and prints them in the paper's format.
//
// Usage:
//
//	experiments [-full] [-cloud both|azure|huawei|mixed|spec.json] [-exp all|NAME,...] [-seed N] [-journal run.jsonl] [-results out.json] [-export dir]
//	experiments -cloud mixed -exp table2
//	experiments -replay-trace served.jsonl -exp table2,fig9
//	experiments -exp tune
//
// -h lists the -exp names (experiments.Names). all is every table and
// figure of the record; tune, the paper's §4.2 development-set grid
// searches (the arrival ridge penalty, the geometric DOH probability,
// the LSTMs' learning rate and weight decay) on each cloud's own train
// and dev windows, runs only when named.
//
// The default scale is the fast test configuration; -full uses the
// larger configuration (several minutes of LSTM training per cloud).
// The suite runs once (experiments.Run) into one results record, which
// the tables on stdout, -results (JSON) and -export (TSV plot data) all
// read. At the default scale and flags, -results writes exactly
// internal/experiments/testdata/results.small.json, so re-recording that
// file is
//
//	go run ./cmd/experiments -results internal/experiments/testdata/results.small.json
//
// followed by a reviewed diff.
//
// -cloud both (the default) runs the azure and huawei workload presets
// side by side, each resized to the scale; azure or huawei runs one of
// them. Any other value names one declarative scenario (a preset or a
// JSON spec file, DESIGN.md §9), run at its own size in the experiment
// slot of its flavor catalog; the experiment suite runs over the
// compiled spec exactly as it does over the two clouds. -replay-trace
// goes one step further: the first record in the given file (the
// workload record format cmd/traced -record and cmd/tracegen -record
// write) becomes the ground-truth history of the -cloud scenario's
// slot (azure for both), so the sched/capacity experiments run against
// exactly the bytes that were served.
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

// check exits with status 1 when err is set, naming what failed.
func check(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", what, err)
		os.Exit(1)
	}
}

// readRecords loads a non-empty workload record file.
func readRecords(path string) ([]*workload.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := workload.ReadRecords(f)
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("%s holds no records", path)
	}
	return recs, err
}

func main() {
	full := flag.Bool("full", false, "run the larger FullScale configuration")
	cloud := flag.String("cloud", "both", "both, or one scenario: a workload preset (azure, huawei, mixed) or a JSON spec file")
	replayTrace := flag.String("replay-trace", "", "use the first record in this file (workload record format) as the ground-truth history instead of generating one")
	exp := flag.String("exp", "all", "comma-separated experiments to run ("+strings.Join(experiments.Names(), ", ")+"; all omits tune)")
	seed := flag.Int64("seed", 1, "experiment seed")
	export := flag.String("export", "", "also write per-figure TSV plot data into this directory")
	resultsPath := flag.String("results", "", "also write the results record (every table's numbers, as JSON) to this path")
	journalPath := flag.String("journal", "", "write a JSONL telemetry journal (per-epoch training events) to this path")
	flag.Parse()
	// Run over no clouds fits nothing and only checks the names, so an
	// unknown -exp entry exits before any work.
	exps := strings.Split(*exp, ",")
	if _, err := experiments.Run(exps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Any -cloud value but both is resolved, and an unknown one
	// rejected, before any work too. The flavor catalog decides which
	// cloud's experiment slots a scenario fills; a replay under both
	// takes Azure's.
	var spec *workload.Spec
	var cfg synth.Config
	id := experiments.Azure
	if *cloud != "both" {
		var err error
		spec, cfg, err = workload.Load(*cloud)
		check(err, "cloud")
		if spec.Flavors.Catalog == "huawei259" {
			id = experiments.Huawei
		}
	}

	scale := experiments.SmallScale()
	if *full {
		scale = experiments.FullScale()
	}
	scale.Seed = *seed

	var journal *obs.Journal
	if *journalPath != "" {
		var err error
		journal, err = obs.OpenJournal(*journalPath)
		check(err, "open journal")
		defer journal.Close()
		// Every training loop in every cloud reports through the same
		// journal (writes are line-atomic, so the parallel fits
		// interleave cleanly).
		scale.Train.Obs = journal
	}
	journal.Event("experiments_start", map[string]any{
		"cloud": *cloud, "exp": *exp, "seed": *seed, "full": *full,
	})

	var clouds []*experiments.Cloud
	start := time.Now()
	switch {
	case *replayTrace != "":
		// Trace replay: a recorded generation is the ground truth.
		recs, err := readRecords(*replayTrace)
		check(err, "replay-trace")
		tr := recs[0].Trace()
		clouds = append(clouds, experiments.NewCloudFromTrace(id, scale, tr))
		fmt.Printf("Replaying %d VMs over %d periods from %s\n", len(tr.VMs), tr.Periods, *replayTrace)
	case *cloud == "both":
		clouds = append(clouds, experiments.NewCloud(experiments.Azure, scale), experiments.NewCloud(experiments.Huawei, scale))
	case *cloud == "azure" || *cloud == "huawei":
		// The two clouds keep the scale's sizes.
		clouds = append(clouds, experiments.NewCloud(id, scale))
	default:
		clouds = append(clouds, experiments.NewCloudFromConfig(id, scale, cfg))
		fmt.Printf("Workload spec %q: %d users, %d cohorts\n", spec.Name, spec.Users, len(spec.Cohorts))
	}
	fmt.Printf("Prepared %d synthetic cloud(s) in %v\n\n", len(clouds), time.Since(start).Round(time.Millisecond))

	res, err := experiments.Run(exps, clouds...)
	check(err, "run")
	experiments.Render(os.Stdout, res)
	if *resultsPath != "" {
		b, err := res.JSON()
		if err == nil {
			err = os.WriteFile(*resultsPath, b, 0o666)
		}
		check(err, "results")
	}
	if *export != "" {
		check(experiments.ExportAll(*export, res), "export")
		fmt.Printf("Plot data exported to %s\n", *export)
	}
	journal.Event("experiments_done", map[string]any{
		"wall_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
	fmt.Printf("Total time: %v\n", time.Since(start).Round(time.Millisecond))
}

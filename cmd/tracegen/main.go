// Command tracegen trains the three-stage model on a synthetic
// "historical" trace of the -cloud scenario and emits a generated
// future trace as CSV on stdout (or to -o). The -scale flag implements
// the paper's single-knob stress-test scaling (§6.2: "we generated 10X
// workloads by changing a single line of code").
//
// Usage:
//
//	tracegen [-cloud azure|huawei|mixed|spec.json] [-days N] [-gen-days N] [-scale X] [-seed N] [-o trace.csv] [-v]
//	tracegen -cloud mixed [-record gen.jsonl]
//	tracegen -replay gen.jsonl
//
// -cloud names the scenario: a workload preset (azure, huawei, mixed)
// or a path to a JSON spec file (DESIGN.md §9). -record writes the
// generated trace — plus the seed, window, and scale that reproduce it
// — to a JSONL file in the versioned record format. -replay skips training entirely and
// re-emits the trace(s) stored in a record file as CSV, so a recorded
// generation can be piped into downstream tools without the model.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}

// outputWriter opens -o, defaulting to stdout.
func outputWriter(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	return f, func() { f.Close() }
}

// replay re-emits recorded traces as CSV without touching a model.
func replay(path string, w io.Writer) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	recs, err := workload.ReadRecords(f)
	if err != nil {
		fatalf("%v", err)
	}
	if len(recs) == 0 {
		fatalf("replay: %s holds no records", path)
	}
	total := 0
	for _, rec := range recs {
		tr := rec.Trace()
		if err := tr.WriteCSV(w); err != nil {
			fatalf("write: %v", err)
		}
		total += len(tr.VMs)
	}
	fmt.Fprintf(os.Stderr, "replayed %d record(s), %d VMs from %s\n", len(recs), total, path)
}

func main() {
	cloud := flag.String("cloud", "azure", "scenario: a workload preset (azure, huawei, mixed) or a JSON spec file")
	recordPath := flag.String("record", "", "also write the generated trace to this JSONL file in the workload record/replay format")
	replayPath := flag.String("replay", "", "re-emit the traces stored in this record file as CSV and exit (no training)")
	days := flag.Int("days", 9, "history length in days (training data)")
	genDays := flag.Int("gen-days", 2, "length of the generated future trace in days")
	scale := flag.Float64("scale", 1, "arrival-rate multiplier for the generated trace")
	seed := flag.Int64("seed", 1, "seed for data generation, training, and sampling")
	out := flag.String("o", "", "output CSV path (default stdout)")
	hidden := flag.Int("hidden", 24, "LSTM hidden units per layer")
	epochs := flag.Int("epochs", 40, "training epochs")
	verbose := flag.Bool("v", false, "log training progress to stderr")
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "tracegen: -scale %v: want a positive finite number\n", *scale)
		os.Exit(2)
	}

	spec, cfg, err := workload.Load(*cloud)
	if err != nil {
		fatalf("%v", err)
	}
	w, closeOut := outputWriter(*out)
	defer closeOut()

	if *replayPath != "" {
		replay(*replayPath, w)
		return
	}

	if *verbose {
		fmt.Fprintf(os.Stderr, "workload spec %q: %d users, %d cohorts\n",
			spec.Name, spec.Users, len(spec.Cohorts))
	}
	cfg.Days = *days

	history := cfg.Generate(*seed)
	// Hold out the final ~15% of the history as a development window for
	// model selection.
	devStart := history.Periods * 85 / 100
	trainW := trace.Window{Start: 0, End: devStart}
	devW := trace.Window{Start: devStart, End: history.Periods}
	train := history.Slice(trainW, 0)
	dev := history.Slice(devW, 0)

	tc := core.TrainConfig{
		Hidden: *hidden, Epochs: *epochs, Seed: *seed,
		Dev: dev, DevOffset: devW.Start,
	}
	if *verbose {
		tc.Progress = func(epoch int, loss float64) {
			fmt.Fprintf(os.Stderr, "epoch %3d  loss %.4f\n", epoch, loss)
		}
	}
	start := time.Now()
	model, err := core.TrainModel(train, core.ModelOptions{Bins: survival.PaperBins(), Train: tc})
	if err != nil {
		fatalf("%v", err)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "trained on %d VMs in %v\n", len(train.VMs), time.Since(start).Round(time.Millisecond))
	}

	scaled, err := core.Tilted(model, core.WhatIf{RateScale: *scale})
	if err != nil {
		fatalf("%v", err)
	}
	futureW := trace.Window{
		Start: history.Periods,
		End:   history.Periods + *genDays*trace.PeriodsPerDay,
	}
	genSeed := *seed + 1
	generated := core.WithCatalog(scaled.Generate(rng.New(genSeed), futureW), cfg.Flavors)

	if *recordPath != "" {
		// The record names the unscaled model and the scale: a replay
		// passing that scale to its Engine.Generate folds the same
		// intercept + log scale, so it reproduces the bytes.
		rec := workload.NewRecord("tracegen", "serial", "f64", core.ModelTag(model),
			genSeed, futureW, *scale, generated)
		sink, err := workload.OpenRecorder(*recordPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := sink.Append(rec); err != nil {
			fatalf("record: %v", err)
		}
		if err := sink.Close(); err != nil {
			fatalf("record: %v", err)
		}
		fmt.Fprintf(os.Stderr, "recorded generation to %s\n", *recordPath)
	}

	if err := generated.WriteCSV(w); err != nil {
		fatalf("write: %v", err)
	}
	fmt.Fprintf(os.Stderr, "generated %d VMs over %d periods (scale %.1fx)\n",
		len(generated.VMs), generated.Periods, *scale)
}

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
//	tracegen -in history|trace.csv|gen.jsonl [-cloud C] [-days N] [-seed N] [-report csv|characterize|render]
//
// -cloud names the scenario: a workload preset (azure, huawei, mixed)
// or a path to a JSON spec file (DESIGN.md §9). -record writes the
// generated trace — plus the seed, window, and scale that reproduce it
// — to a JSONL file in the versioned record format.
//
// -in takes the trace from elsewhere and trains nothing: "history" is
// the scenario's simulated history at -days and -seed; a file is a
// record file (first non-space byte '{'), one trace per record in
// order, or a trace CSV read against the -cloud catalog. So
// `tracegen -in gen.jsonl` re-emits a recorded generation as CSV
// without the model.
//
// -report picks what is printed of each trace: csv (the trace itself),
// characterize (the §3 workload characterization of internal/analysis:
// arrival dispersion and seasonality, batch structure, flavor
// popularity, lifetime quantiles and censoring, and the inter-job
// correlations the models exploit) or render (the paper's Figure 1: one
// row per 5-minute period, one cell per VM, color or letter = flavor,
// digit = lifetime bin compressed to 0-9, batches space-separated;
// colored only when the output is a terminal). Pipe render through
// head for fewer rows.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over args: the report goes to stdout (or -o),
// progress to stderr. It returns the exit status: 2 for a flag value it
// refuses, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cloud := fs.String("cloud", "azure", "scenario: a workload preset (azure, huawei, mixed) or a JSON spec file; the catalog of a CSV -in")
	in := fs.String("in", "", "use this trace instead of training and generating: history (the scenario's simulated history at -days/-seed), a record file, or a trace CSV")
	report := fs.String("report", "csv", "what to print of each trace: csv, characterize or render")
	recordPath := fs.String("record", "", "also write the generated trace to this JSONL file in the workload record/replay format")
	days := fs.Int("days", 9, "history length in days (training data)")
	genDays := fs.Int("gen-days", 2, "length of the generated future trace in days")
	scale := fs.Float64("scale", 1, "arrival-rate multiplier for the generated trace")
	seed := fs.Int64("seed", 1, "seed for data generation, training, and sampling")
	out := fs.String("o", "", "output path (default stdout)")
	hidden := fs.Int("hidden", 24, "LSTM hidden units per layer")
	epochs := fs.Int("epochs", 40, "training epochs")
	verbose := fs.Bool("v", false, "log training progress to stderr")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	refuse := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return refuse("-scale %v: want a positive finite number", *scale)
	}
	if *report != "csv" && *report != "characterize" && *report != "render" {
		return refuse("-report %q: want csv, characterize or render", *report)
	}
	if *in != "" && *recordPath != "" {
		return refuse("-record with -in: there is no model to tag")
	}

	spec, cfg, err := workload.Load(*cloud)
	if err != nil {
		return fail(err)
	}
	cfg.Days = *days

	var traces []*trace.Trace
	name := cfg.Name
	switch *in {
	case "":
		if *verbose {
			fmt.Fprintf(stderr, "workload spec %q: %d users, %d cohorts\n",
				spec.Name, spec.Users, len(spec.Cohorts))
		}
		history := cfg.Generate(*seed)
		// Hold out the final ~15% of the history as a development window
		// for model selection.
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
				fmt.Fprintf(stderr, "epoch %3d  loss %.4f\n", epoch, loss)
			}
		}
		start := time.Now()
		model, err := core.TrainModel(train, core.ModelOptions{Bins: survival.PaperBins(), Train: tc})
		if err != nil {
			return fail(err)
		}
		if *verbose {
			fmt.Fprintf(stderr, "trained on %d VMs in %v\n", len(train.VMs), time.Since(start).Round(time.Millisecond))
		}
		if err := model.Arrival.CheckScale(*scale); err != nil {
			return refuse("-scale %v: %v", *scale, err)
		}

		scaled, err := core.Tilted(model, core.WhatIf{RateScale: *scale})
		if err != nil {
			return fail(err)
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
				return fail(err)
			}
			if err := sink.Append(rec); err != nil {
				return fail(fmt.Errorf("record: %w", err))
			}
			if err := sink.Close(); err != nil {
				return fail(fmt.Errorf("record: %w", err))
			}
			fmt.Fprintf(stderr, "recorded generation to %s\n", *recordPath)
		}
		fmt.Fprintf(stderr, "generated %d VMs over %d periods (scale %.1fx)\n",
			len(generated.VMs), generated.Periods, *scale)
		traces = append(traces, generated)
		name += " (generated)"
	case "history":
		history := cfg.Generate(*seed)
		if *report == "characterize" {
			// Observe the history through its window, so a VM still
			// running at its end is censored there, as in a real trace.
			history = history.Slice(trace.Window{Start: 0, End: history.Periods}, 0)
		}
		traces = append(traces, history)
	default:
		name = *in
		if traces, err = readTraces(*in, cfg.Flavors, stderr); err != nil {
			return fail(err)
		}
	}

	// -o is created only now, so it may name the -in file it replaces.
	w := stdout
	var file *os.File
	if *out != "" {
		if file, err = os.Create(*out); err != nil {
			return fail(err)
		}
		defer file.Close() // on the error paths; the success path checks Close
		w = file
	}
	color := false
	if f, ok := w.(*os.File); ok {
		st, err := f.Stat()
		color = err == nil && st.Mode()&os.ModeCharDevice != 0
	}
	for _, tr := range traces {
		var err error
		switch *report {
		case "csv":
			err = tr.WriteCSV(w)
		case "characterize":
			// Render drops write errors; a buffer's write reports them.
			var b bytes.Buffer
			analysis.Characterize(name, tr).Render(&b)
			_, err = w.Write(b.Bytes())
		case "render":
			err = render(w, tr, color)
		}
		if err != nil {
			return fail(fmt.Errorf("write: %w", err))
		}
	}
	if file != nil {
		if err := file.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// readTraces reads the traces of a file: a record file, one trace per
// record in order, or a trace CSV against the catalog flavors. A record
// without a catalog of its own gets flavors too.
func readTraces(path string, flavors *trace.FlavorSet, stderr io.Writer) ([]*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("{")) {
		tr, err := trace.ReadCSV(bytes.NewReader(data), flavors, 0)
		if err != nil {
			return nil, err
		}
		return []*trace.Trace{tr}, nil
	}
	recs, err := workload.ReadRecords(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	traces := make([]*trace.Trace, len(recs))
	total := 0
	for i, rec := range recs {
		traces[i] = rec.Trace()
		if traces[i].Flavors == nil {
			traces[i].Flavors = flavors
		}
		total += len(traces[i].VMs)
	}
	fmt.Fprintf(stderr, "replayed %d record(s), %d VMs from %s\n", len(recs), total, path)
	return traces, nil
}

// render writes tr as the paper's Figure 1, one row per period.
func render(w io.Writer, tr *trace.Trace, color bool) error {
	bins := survival.PaperBins()
	pb := tr.PeriodBatches()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "Workload visualization: %d periods, %d VMs, %d flavors\n", len(pb), len(tr.VMs), tr.Flavors.K())
	bw.WriteString("(row = 5-minute period; cell = VM: color/letter = flavor, digit = lifetime bin width class; batches space-separated)\n")
	for p, batches := range pb {
		fmt.Fprintf(bw, "%4d |", p)
		for bi, batch := range batches {
			if bi > 0 {
				bw.WriteString(" ")
			}
			for _, idx := range batch.Indices {
				vm := tr.VMs[idx]
				bw.WriteString(cell(vm.Flavor, bins.Index(vm.Duration), color))
			}
		}
		bw.WriteString("\n")
	}
	return bw.Flush()
}

// cell renders one VM as a width-class digit on a flavor-colored
// background (letter-coded when colors are off).
func cell(flavor, bin int, color bool) string {
	// Compress the 47 bins to a single digit 0-9.
	width := bin * 10 / 47
	if !color {
		return fmt.Sprintf("%c%d", 'a'+rune(flavor%26), width)
	}
	// Cycle through the 256-color palette for flavor identity.
	bg := 17 + (flavor*37)%214
	return fmt.Sprintf("\x1b[48;5;%dm\x1b[97m%d\x1b[0m", bg, width)
}

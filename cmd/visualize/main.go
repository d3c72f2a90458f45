// Command visualize renders a workload trace in the style of the
// paper's Figure 1: one row per 5-minute period, one colored cell per
// VM (color = flavor, width = lifetime bin index compressed to a digit),
// batches separated by spaces. It reads a CSV written by tracegen or
// renders a fresh synthetic trace of the -cloud scenario: a workload
// preset (azure, huawei, mixed) or a JSON spec file (DESIGN.md §9).
// With -csv, -cloud supplies the flavor catalog the CSV refers to.
//
// Usage:
//
//	visualize [-cloud azure|huawei|mixed|spec.json] [-days 1] [-periods 40] [-seed 7] [-no-color]
//	visualize -csv trace.csv -cloud azure -periods 40
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	cloud := flag.String("cloud", "azure", "scenario: a workload preset (azure, huawei, mixed) or a JSON spec file; its catalog with -csv")
	days := flag.Int("days", 1, "days of synthetic workload to generate")
	seed := flag.Int64("seed", 7, "generation seed")
	csvPath := flag.String("csv", "", "render this trace CSV instead of generating")
	periodsFlag := flag.Int("periods", 48, "number of periods (rows) to render")
	noColor := flag.Bool("no-color", false, "disable ANSI colors")
	flag.Parse()

	_, cfg, err := workload.Load(*cloud)
	if err != nil {
		fatal(err)
	}
	var tr *trace.Trace
	switch {
	case *csvPath != "":
		f, err := os.Open(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err = trace.ReadCSV(f, cfg.Flavors, 0)
		if err != nil {
			fatal(err)
		}
	default:
		cfg.Days = *days
		tr = cfg.Generate(*seed)
	}

	bins := survival.PaperBins()
	pb := tr.PeriodBatches()
	n := *periodsFlag
	if n > len(pb) {
		n = len(pb)
	}
	fmt.Printf("Workload visualization: %d periods, %d VMs, %d flavors\n", n, len(tr.VMs), tr.Flavors.K())
	fmt.Println("(row = 5-minute period; cell = VM: color/letter = flavor, digit = lifetime bin width class; batches space-separated)")
	for p := 0; p < n; p++ {
		var row strings.Builder
		fmt.Fprintf(&row, "%4d |", p)
		for bi, b := range pb[p] {
			if bi > 0 {
				row.WriteString(" ")
			}
			for _, idx := range b.Indices {
				vm := tr.VMs[idx]
				bin := bins.Index(vm.Duration)
				row.WriteString(cell(vm.Flavor, bin, !*noColor))
			}
		}
		fmt.Println(row.String())
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "visualize:", err)
	os.Exit(1)
}

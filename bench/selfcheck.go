package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the contract the driver reads; -selfcheck reads the
// metric directions and bounds from it rather than keeping a copy.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// childRun is what -selfcheck keeps of one child process.
type childRun struct {
	res    result
	digest string
	raw    map[string]float64 // the report's raw column, by metric
}

// runChild runs this binary once on one workload, as the driver would.
func runChild(def *workloadDef, seed int64, seconds float64) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", def.name, seed, err)
	}
	run := &childRun{raw: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	var last string
	for sc.Scan() {
		last = sc.Text()
		if d, ok := strings.CutPrefix(last, "# check digest="); ok {
			run.digest = d
		}
		// Report rows: name, corrected, raw, unit.
		if f := strings.Fields(last); len(f) == 4 {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				run.raw[f[0]] = v
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", def.name, seed, err)
	}
	return run, nil
}

// worseBy is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck measures the benchmark against itself the way the driver
// does: two sets (A and B) of n runs of every workload on the same
// build, run i of both sets on seed base+i, alternating A and B. For
// every (workload, end-to-end metric) it prints each set's median and
// quartiles, the spread (interquartile range over median) and the gap
// between the medians against the metric's bound, with the uncorrected
// twin beside it. It returns a non-zero exit code if a gap or a spread
// exceeds its bound, an operation failed, or two runs of one seed
// disagree on their output digest.
func runSelfcheck(out io.Writer, n int, o options) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -selfcheck runs from the repository root:", err)
		return 2
	}
	header(out, o)
	fmt.Fprintf(out, "# selfcheck sets=2 runs_per_set=%d seeds=%d..%d seconds=%g\n", n, o.seed, o.seed+int64(n)-1, o.seconds)
	exit := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
		exit = 1
	}
	for i := range workloads {
		def := &workloads[i]
		// values[set][metric] and raws[set][metric], one entry per run.
		var values, raws [2]map[string][]float64
		for s := range values {
			values[s], raws[s] = map[string][]float64{}, map[string][]float64{}
		}
		for r := 0; r < n; r++ {
			seed := o.seed + int64(r)
			var digests [2]string
			for k := 0; k < 2; k++ {
				set := (r + k) % 2 // alternate which set goes first
				run, err := runChild(def, seed, o.seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !run.res.Correct || run.res.Failed != 0 {
					fail("%s seed %d: %d of %d operations failed", def.name, seed, run.res.Failed, run.res.Attempted)
				}
				digests[set] = run.digest
				for name, m := range run.res.Metrics {
					values[set][name] = append(values[set][name], m.Value)
					raws[set][name] = append(raws[set][name], run.raw[name])
				}
			}
			if digests[0] != digests[1] {
				fail("%s seed %d: output digests differ between A (%s) and B (%s)", def.name, seed, digests[0], digests[1])
			}
		}
		fmt.Fprintf(out, "\n%s\n%-16s %-5s %12s %12s %12s %8s | %12s %12s %8s | %7s %6s\n", def.name,
			"metric", "", "q1", "median", "q3", "spread", "raw median", "raw iqr", "spread", "gap", "bound")
		for _, gm := range bf.EndToEnd {
			var med, rawMed [2]float64
			for s, label := range []string{"A", "B"} {
				q1, q2, q3 := quartiles(values[s][gm.Name])
				r1, r2, r3 := quartiles(raws[s][gm.Name])
				med[s], rawMed[s] = q2, r2
				spread, rawSpread := (q3-q1)/q2, (r3-r1)/r2
				fmt.Fprintf(out, "%-16s %-5s %12.4f %12.4f %12.4f %7.2f%% | %12.4f %12.4f %7.2f%% |\n",
					gm.Name, label, q1, q2, q3, 100*spread, r2, r3-r1, 100*rawSpread)
				if gm.Name != "setup_s" && spread > gm.Bound {
					fail("%s %s set %s: spread %.2f%% over bound %.0f%%", def.name, gm.Name, label, 100*spread, 100*gm.Bound)
				}
			}
			gap := worseBy(med[0], med[1], gm.Better)
			rawGap := worseBy(rawMed[0], rawMed[1], gm.Better)
			fmt.Fprintf(out, "%-16s %-5s %70s raw gap %6.2f%% | %6.2f%% %5.0f%%\n", gm.Name, "B-A", "", 100*rawGap, 100*gap, 100*gm.Bound)
			if gap > gm.Bound || -gap > gm.Bound {
				fail("%s %s: medians differ by %.2f%%, bound %.0f%%", def.name, gm.Name, 100*gap, 100*gm.Bound)
			}
		}
	}
	if exit == 0 {
		fmt.Fprintln(out, "\nPASS every gap and spread is within its bound")
	}
	return exit
}

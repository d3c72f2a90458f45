package experiments

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
)

// goldenSeries is the sha256 of the float64 bits of every bulk series
// the SmallScale record keeps out of its JSON (seriesBytes), recorded
// with testdata/results.small.json. Like that file, it changes only with
// a reviewed change of results; never re-record it to make a refactor
// pass.
const goldenSeries = "aa8a2c552557d2e9a3533ba083d4d0bd6e5c9d25e99cb0919bc20522a473110d"

// seriesBytes is the float64 bits of res's bulk series, cloud by cloud:
// Figures 4/5 and 6's intervals and actual counts, Figures 7/8's
// forecast intervals, actual series and CRPS, and every packing of
// Table 5 and of the 10x check (placed count, CPU, memory and limiting
// FFAR; a failure as 1).
func seriesBytes(res *Results) []byte {
	var out []byte
	series := func(iv []metrics.Interval, actual []float64) {
		for _, v := range iv {
			out = appendFloats(out, []float64{v.Lo, v.Median, v.Hi})
		}
		out = appendFloats(out, actual)
	}
	packings := func(ps []sched.PackResult) {
		for _, p := range ps {
			failed := 0.0
			if p.Failed {
				failed = 1
			}
			out = appendFloats(out, []float64{failed, float64(p.Placed), p.CPUFFAR, p.MemFFAR, p.Limiting})
		}
	}
	for _, r := range res.Clouds {
		for _, a := range slices.Concat(r.Figure4, r.Figure5, r.Figure6) {
			series(a.Intervals, a.Actual)
		}
		for _, c := range slices.Concat(r.Figure7, r.Figure8) {
			series(c.Forecast.Intervals, c.Forecast.Actual)
			out = appendFloats(out, []float64{c.Forecast.CRPS})
		}
		for _, p := range r.Table5 {
			packings(p.FFARs)
		}
		if r.TenX != nil {
			packings(r.TenX.Pack1x.FFARs)
			packings(r.TenX.Pack10x.FFARs)
		}
	}
	return out
}

// TestResultsGolden compares the SmallScale record, both clouds and
// every experiment, with testdata/results.small.json byte for byte, and
// its bulk series with goldenSeries. Every fit under it is bit-pinned
// (TestTrainedSnapshotGolden, TestAblationGolden), so the numbers are
// exact on any host and at any worker count. Re-recording the file is
// `go run ./cmd/experiments -results
// internal/experiments/testdata/results.small.json` and a reviewed diff.
func TestResultsGolden(t *testing.T) {
	res := results(t)
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/results.small.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(g), len(w)); i++ {
			if g[i] != w[i] {
				t.Fatalf("record differs from testdata/results.small.json at line %d:\n got %s\nwant %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("record has %d lines, testdata/results.small.json %d", len(g), len(w))
	}
	if got := sha(seriesBytes(res)); got != goldenSeries {
		t.Errorf("bulk series sha256 %s, want %s", got, goldenSeries)
	}
}

// TestRunRejectsUnknownNames checks that Run fails on an -exp name it
// does not dispatch on, naming it, before it fits anything.
func TestRunRejectsUnknownNames(t *testing.T) {
	c := NewCloud(Azure, Scale{AzureDays: 5, AzureUsers: 10, AzureRate: 1, Seed: 1})
	for _, exps := range [][]string{{"arch"}, {"table2 ", "nope"}} {
		res, err := Run(exps, c)
		if err == nil || res != nil {
			t.Fatalf("Run(%q) = %v, %v; want an error", exps, res, err)
		}
		if bad := fmt.Sprintf("%q", strings.TrimSpace(exps[len(exps)-1])); !strings.Contains(err.Error(), bad) {
			t.Errorf("Run(%q) error %q does not name %s", exps, err, bad)
		}
	}
	if c.model != nil || c.naive != nil || c.simple != nil {
		t.Error("Run fitted the cloud before rejecting the names")
	}
}

// TestRunTable1FitsNothing checks that Run fits no generator for a
// selection that reads none: Table 1 only counts each window's VMs.
func TestRunTable1FitsNothing(t *testing.T) {
	c := NewCloud(Azure, Scale{AzureDays: 5, AzureUsers: 10, AzureRate: 1, Seed: 1})
	res, err := Run([]string{"table1"}, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table1) != 1 || res.Table1[0].TrainVMs != len(c.Train.VMs) {
		t.Errorf("Table1 = %+v, want one row of %d train VMs", res.Table1, len(c.Train.VMs))
	}
	if c.model != nil || c.naive != nil || c.simple != nil {
		t.Error("Run([table1]) fitted the cloud's generators")
	}
}

// docRow is one row of a table in EXPERIMENTS.md: its label (first
// cell) and its measured cells, bold markers dropped.
type docRow struct {
	label    string
	measured []string
}

// docMeasured returns every row of every table in doc with a column
// whose header starts with "measured", in document order, with the
// cells of those columns.
func docMeasured(doc string) []docRow {
	var rows []docRow
	var cols []int // measured columns of the current table; nil outside one
	header := false
	cells := func(line string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i, p := range parts {
			parts[i] = strings.TrimSpace(strings.ReplaceAll(p, "**", ""))
		}
		return parts
	}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") {
			cols, header = nil, false
			continue
		}
		c := cells(line)
		switch {
		case !header:
			header = true
			for i, h := range c {
				if strings.HasPrefix(h, "measured") {
					cols = append(cols, i)
				}
			}
		case strings.HasPrefix(c[0], "---"):
		case cols != nil:
			row := docRow{label: c[0]}
			for _, i := range cols {
				if i < len(c) {
					row.measured = append(row.measured, c[i])
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// docExpected is EXPERIMENTS.md's measured rows rendered from the
// record, in the document's order and at its printed precision.
func docExpected(res *Results) []docRow {
	az, hw := res.Clouds[0], res.Clouds[1]
	pct := func(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
	var rows []docRow
	add := func(label string, measured ...string) {
		rows = append(rows, docRow{label, measured})
	}
	for _, r := range res.Table1 {
		add(r.Cloud, fmt.Sprintf("%.1f / %.1f / %.1f", r.TrainDays, r.DevDays, r.TestDays),
			fmt.Sprintf("%d / %d / %d", r.TrainVMs, r.DevVMs, r.TestVMs))
	}
	for _, fig := range [][]ArrivalCoverage{az.Figure4, hw.Figure5} {
		add("DOH sampled", pct(fig[0].Coverage))
		add("DOH last-day", pct(fig[1].Coverage))
	}
	add("VM-level, no DOH", pct(az.Figure6[0].Coverage), pct(hw.Figure6[0].Coverage))
	add("VM-level, DOH sampled", pct(az.Figure6[1].Coverage), pct(hw.Figure6[1].Coverage))
	for _, r := range []*CloudResults{az, hw} {
		for _, row := range r.Table2 {
			nll := "N/A"
			if row.HasNLL {
				nll = fmt.Sprintf("%.2f", row.NLL)
			}
			add(row.System, nll+" / "+pct(row.OneBestErr))
		}
	}
	for _, r := range []*CloudResults{az, hw} {
		for _, row := range r.Table3 {
			bce := "N/A"
			if row.HasBCE {
				bce = fmt.Sprintf("%.3f", row.BCE)
			}
			add(row.System, bce+" / "+pct(row.OneBestErr))
		}
	}
	for _, row := range az.Table4 {
		add(row.System+", "+row.Discretization+", "+row.Interpolation, fmt.Sprintf("%.2f%%", row.SurvivalMSE*100))
	}
	for i, row := range az.Censoring {
		add(row.Variant, fmt.Sprintf("%.4f", row.BCE), fmt.Sprintf("%.4f", hw.Censoring[i].BCE))
	}
	for _, fig := range [][]CapacityResult{az.Figure7, hw.Figure8} {
		for _, row := range fig {
			add(row.Generator, pct(row.Coverage))
		}
	}
	add("Test data", pct(az.Figure9.Actual[0]), pct(hw.Figure9.Actual[0]))
	for i, g := range az.Figure9.Generators {
		add(g.Generator, pct(g.Mean[0]), pct(hw.Figure9.Generators[i].Mean[0]))
	}
	for _, r := range []*CloudResults{az, hw} {
		for _, row := range r.Table5 {
			add(row.Source, fmt.Sprintf("%.1f / %s", row.Median*100, pct(row.Frac95)))
		}
	}
	tenx := func(f func(*TenXResult) string) []string { return []string{f(az.TenX), f(hw.TenX)} }
	add("volume scales with the knob", tenx(func(x *TenXResult) string { return fmt.Sprintf("%.1f×", x.VMRatio) })...)
	add("reuse bucket-0, 1× → 10×", tenx(func(x *TenXResult) string { return pct(x.Reuse1x[0]) + " → " + pct(x.Reuse10x[0]) })...)
	add("FFAR median, 1× → 10×", tenx(func(x *TenXResult) string { return pct(x.Pack1x.Median) + " → " + pct(x.Pack10x.Median) })...)
	j := az.Joint
	f2 := func(x float64) string { return fmt.Sprintf("%.2f", x) }
	add("actual", f2(j.ActualMean), f2(j.ActualDispersion), "—")
	add("staged (Poisson regression)", f2(j.StagedMean), f2(j.StagedDispersion), pct(j.StagedErr))
	add("joint (EOP tokens)", f2(j.JointMean), f2(j.JointDispersion), pct(j.JointErr))
	for _, row := range az.Forecast {
		add(row.Method, pct(row.Coverage), pct(row.MAPE))
	}
	for _, row := range az.Heads {
		add(row.Head, fmt.Sprintf("%.3f", row.BCE), pct(row.OneBestErr))
	}
	return rows
}

// TestExperimentsDoc checks every measured number in EXPERIMENTS.md
// against the record at the number's printed precision: each table's
// "measured" columns, row by row, must be exactly the record's. The
// paper columns and the prose are hand-written; the prose cites the
// tables rather than repeating their numbers.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got, want := docMeasured(string(doc)), docExpected(results(t))
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(got):
			t.Errorf("EXPERIMENTS.md lacks measured row %d: %q %q", i+1, want[i].label, want[i].measured)
		case i >= len(want):
			t.Errorf("EXPERIMENTS.md has an unchecked measured row %d: %q %q", i+1, got[i].label, got[i].measured)
		case got[i].label != want[i].label || !slices.Equal(got[i].measured, want[i].measured):
			t.Errorf("EXPERIMENTS.md measured row %d is %q %q, the record says %q %q",
				i+1, got[i].label, got[i].measured, want[i].label, want[i].measured)
		}
	}
}

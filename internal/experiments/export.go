package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// exportSeries writes a TSV file with one row per period: time (days),
// interval lo/median/hi, and the actual value — the plot data behind the
// arrival and capacity figures (4-8). Columns are gnuplot- and
// pandas-friendly.
func exportSeries(path string, intervals []metrics.Interval, actual []float64) error {
	if len(intervals) != len(actual) {
		return fmt.Errorf("experiments: export length mismatch %d vs %d", len(intervals), len(actual))
	}
	var b strings.Builder
	b.WriteString("days\tlo\tmedian\thi\tactual\n")
	for p, iv := range intervals {
		days := float64(p) / float64(trace.PeriodsPerDay)
		fmt.Fprintf(&b, "%.4f\t%g\t%g\t%g\t%g\n", days, iv.Lo, iv.Median, iv.Hi, actual[p])
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// exportReuse writes the Figure 9 reuse-distance distributions as TSV:
// one row per bucket, one column per source.
func exportReuse(path string, fig *ReuseFigure) error {
	var b strings.Builder
	b.WriteString("bucket\tactual")
	for _, r := range fig.Generators {
		b.WriteString("\t" + r.Generator)
	}
	for i, lab := range []string{"0", "1", "2", "3", "4", "5", "6+"} {
		fmt.Fprintf(&b, "\n%s\t%g", lab, fig.Actual[i])
		for _, r := range fig.Generators {
			fmt.Fprintf(&b, "\t%g", r.Mean[i])
		}
	}
	b.WriteString("\n")
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// exportFFAR writes the Figure 10 scatter data as TSV: one row per
// packing with its source, CPU FFAR, and memory FFAR.
func exportFFAR(path string, results []PackingResult) error {
	var b strings.Builder
	b.WriteString("source\tcpu_ffar\tmem_ffar\tlimiting\n")
	for _, r := range results {
		for _, p := range r.FFARs {
			fmt.Fprintf(&b, "%s\t%g\t%g\t%g\n", r.Source, p.CPUFFAR, p.MemFFAR, p.Limiting)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// ExportAll writes the plot data behind every figure res holds into dir
// (created if needed): fig4/fig5 (batch arrivals), fig6 (VM arrivals),
// fig7/fig8 (capacity), fig9 (reuse), fig10 (packing scatter). It runs
// nothing; a section res lacks writes no file.
func ExportAll(dir string, res *Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range res.Clouds {
		tag, figA, figC, arrivals, caps := "azure", "fig4", "fig7", r.Figure4, r.Figure7
		if r.Cloud == Huawei.String() {
			tag, figA, figC, arrivals, caps = "huawei", "fig5", "fig8", r.Figure5, r.Figure8
		}
		path := func(fig, what string) string { return filepath.Join(dir, fig+"_"+tag+"_"+what+".tsv") }
		var errs []error
		if arrivals != nil {
			errs = append(errs, exportSeries(path(figA, "batch_arrivals"), arrivals[0].Intervals, arrivals[0].Actual))
		}
		if r.Figure6 != nil {
			errs = append(errs, exportSeries(path("fig6", "vm_arrivals"), r.Figure6[0].Intervals, r.Figure6[0].Actual))
		}
		for _, c := range caps {
			errs = append(errs, exportSeries(path(figC, "capacity_"+sanitize(c.Generator)), c.Forecast.Intervals, c.Forecast.Actual))
		}
		if r.Figure9 != nil {
			errs = append(errs, exportReuse(path("fig9", "reuse"), r.Figure9))
		}
		if r.Table5 != nil {
			errs = append(errs, exportFFAR(path("fig10", "ffar"), r.Table5))
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// sanitize converts a display name into a filename fragment.
func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

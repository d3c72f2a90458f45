package experiments

import (
	"fmt"
	"io"
)

// Fprintln helpers render each experiment's result in the paper's table
// format. All writers are plain text so cmd/experiments output can be
// diffed against EXPERIMENTS.md.

// RenderTable1 prints dataset statistics (paper Table 1).
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1. Experimental datasets")
	fmt.Fprintf(w, "%-12s %28s %32s\n", "", "Window size (days)", "Number of VMs")
	fmt.Fprintf(w, "%-12s %8s %8s %8s  %10s %10s %10s\n", "", "Train", "Dev", "Test", "Train", "Dev", "Test")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8.1f %8.1f %8.1f  %10d %10d %10d\n",
			r.Cloud, r.TrainDays, r.DevDays, r.TestDays, r.TrainVMs, r.DevVMs, r.TestVMs)
	}
}

// RenderArrivalCoverage prints a Figure 4/5/6-style summary line plus a
// compact sparkline of the actual counts against the interval band.
func RenderArrivalCoverage(w io.Writer, title string, res ArrivalCoverage) {
	fmt.Fprintf(w, "%s [%s arrivals, DOH=%s]: %.1f%% of true values in 90%% prediction interval\n",
		title, res.Kind, res.DOH, res.Coverage*100)
}

// RenderTable2 prints flavor-model results (paper Table 2).
func RenderTable2(w io.Writer, cloud string, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2 (%s). Flavor sequence modeling\n", cloud)
	fmt.Fprintf(w, "%-14s %8s %12s\n", "System", "NLL", "1-Best-Err")
	for _, r := range rows {
		nll := "N/A"
		if r.HasNLL {
			nll = fmt.Sprintf("%.2f", r.NLL)
		}
		fmt.Fprintf(w, "%-14s %8s %11.1f%%\n", r.System, nll, r.OneBestErr*100)
	}
}

// RenderTable3 prints lifetime-model results (paper Table 3).
func RenderTable3(w io.Writer, cloud string, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3 (%s). Lifetime modeling\n", cloud)
	fmt.Fprintf(w, "%-16s %8s %12s\n", "System", "BCE", "1-Best-Err")
	for _, r := range rows {
		bce := "N/A"
		if r.HasBCE {
			bce = fmt.Sprintf("%.3f", r.BCE)
		}
		fmt.Fprintf(w, "%-16s %8s %11.1f%%\n", r.System, bce, r.OneBestErr*100)
	}
}

// RenderTable4 prints the Survival-MSE evaluation (paper Table 4).
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4. Evaluation in continuous domain (Survival-MSE)")
	fmt.Fprintf(w, "%-6s %-14s %-16s %12s\n", "System", "Discretization", "Interpolation", "Survival-MSE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-14s %-16s %11.2f%%\n",
			r.System, r.Discretization, r.Interpolation, r.SurvivalMSE*100)
	}
}

// RenderCapacity prints Figure 7/8-style capacity planning coverage.
func RenderCapacity(w io.Writer, title string, results []CapacityResult) {
	fmt.Fprintln(w, title)
	for _, r := range results {
		fmt.Fprintf(w, "  %-24s %5.1f%% captured in 90%% prediction interval\n",
			r.Generator+"-generated:", r.Coverage*100)
	}
}

// RenderReuse prints Figure 9-style reuse-distance distributions.
func RenderReuse(w io.Writer, cloud string, actual []float64, results []ReuseResult) {
	fmt.Fprintf(w, "Figure 9 (%s). Reuse distance distributions (%% of requests)\n", cloud)
	header := []string{"0", "1", "2", "3", "4", "5", "6+"}
	fmt.Fprintf(w, "%-26s", "Reuse distance")
	for _, h := range header {
		fmt.Fprintf(w, "%7s", h)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-26s", "Test data")
	for _, v := range actual {
		fmt.Fprintf(w, "%6.1f%%", v*100)
	}
	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintf(w, "%-26s", "Range of "+r.Generator+" samples")
		for i := range r.Mean {
			fmt.Fprintf(w, "%6.1f%%", r.Mean[i]*100)
		}
		fmt.Fprintln(w)
	}
}

// RenderPacking prints Table 5-style FFAR summaries.
func RenderPacking(w io.Writer, cloud string, results []PackingResult) {
	fmt.Fprintf(w, "Table 5 (%s). First-failure allocation ratio (limiting resource)\n", cloud)
	fmt.Fprintf(w, "%-14s %10s %10s\n", "Generator", "Median", ">0.95")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %9.1f%% %9.1f%%\n", r.Source, r.Median*100, r.Frac95*100)
	}
}

// RenderTenX prints the 10x-scaling robustness summary.
func RenderTenX(w io.Writer, cloud string, res TenXResult) {
	fmt.Fprintf(w, "10x scaling (%s): VM ratio %.1fx\n", cloud, res.VMRatio)
	fmt.Fprintf(w, "  reuse bucket-0: 1x %.1f%% vs 10x %.1f%%\n", res.Reuse1x[0]*100, res.Reuse10x[0]*100)
	fmt.Fprintf(w, "  FFAR median:   1x %.1f%% vs 10x %.1f%%\n", res.Pack1x.Median*100, res.Pack10x.Median*100)
}

// RenderCensoring prints the §5.3 censoring-handling ablation.
func RenderCensoring(w io.Writer, cloud string, rows []CensoringRow) {
	fmt.Fprintf(w, "Censoring ablation (%s): KM test BCE by treatment\n", cloud)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %.4f\n", r.Variant, r.BCE)
	}
}

// RenderJoint prints the §7 single-LSTM-vs-staged ablation.
func RenderJoint(w io.Writer, cloud string, res JointResult) {
	fmt.Fprintf(w, "Single-LSTM (EOP) vs staged arrivals (%s): per-period batch counts\n", cloud)
	fmt.Fprintf(w, "  %-22s mean %.2f  dispersion %.2f\n", "actual", res.ActualMean, res.ActualDispersion)
	fmt.Fprintf(w, "  %-22s mean %.2f  dispersion %.2f  (err %.1f%%)\n",
		"staged (Poisson reg.)", res.StagedMean, res.StagedDispersion, res.StagedErr*100)
	fmt.Fprintf(w, "  %-22s mean %.2f  dispersion %.2f  (err %.1f%%)\n",
		"joint (EOP tokens)", res.JointMean, res.JointDispersion, res.JointErr*100)
}

// RenderForecast prints the §7 forecasting-vs-generative comparison.
func RenderForecast(w io.Writer, cloud string, rows []ForecastRow) {
	fmt.Fprintf(w, "Forecasting vs generative (%s): total-CPU test-window accuracy\n", cloud)
	fmt.Fprintf(w, "  %-18s %10s %8s\n", "Method", "Coverage", "MAPE")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %9.1f%% %7.1f%%\n", r.Method, r.Coverage*100, r.MAPE*100)
	}
}

// RenderArch prints the §7 sequence-architecture ablation.
func RenderArch(w io.Writer, cloud string, rows []ArchRow) {
	fmt.Fprintf(w, "Architecture ablation (%s): flavor-sequence modeling\n", cloud)
	fmt.Fprintf(w, "  %-14s %8s %12s\n", "Architecture", "NLL", "1-Best-Err")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %8.2f %11.1f%%\n", r.Arch, r.NLL, r.OneBestErr*100)
	}
}

// RenderHeads prints the §2.3.1 hazard-vs-PMF lifetime-head comparison.
func RenderHeads(w io.Writer, cloud string, rows []HeadRow) {
	fmt.Fprintf(w, "Lifetime-head ablation (%s): hazard vs PMF parameterization\n", cloud)
	fmt.Fprintf(w, "  %-20s %8s %12s\n", "Head", "BCE", "1-Best-Err")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %8.3f %11.1f%%\n", r.Head, r.BCE, r.OneBestErr*100)
	}
}

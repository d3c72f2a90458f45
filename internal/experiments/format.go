package experiments

import (
	"fmt"
	"io"
)

// Render prints every section res holds in the paper's table format,
// one blank line after each: Table 1, then per cloud Figures 4/5 and 6,
// Tables 2-4, the censoring ablation, Figures 7/8 and 9, Table 5, 10x
// scaling and the extension experiments. This is cmd/experiments'
// stdout.
func Render(w io.Writer, res *Results) {
	p := func(format string, a ...any) { fmt.Fprintf(w, format, a...) }
	section := func(present bool, render func()) {
		if present {
			render()
			p("\n")
		}
	}
	section(res.Table1 != nil, func() {
		p("Table 1. Experimental datasets\n")
		p("%-12s %28s %32s\n", "", "Window size (days)", "Number of VMs")
		p("%-12s %8s %8s %8s  %10s %10s %10s\n", "", "Train", "Dev", "Test", "Train", "Dev", "Test")
		for _, r := range res.Table1 {
			p("%-12s %8.1f %8.1f %8.1f  %10d %10d %10d\n",
				r.Cloud, r.TrainDays, r.DevDays, r.TestDays, r.TrainVMs, r.DevVMs, r.TestVMs)
		}
	})
	for _, r := range res.Clouds {
		name := r.Cloud
		arrivals := func(fig, variant string, pair []ArrivalCoverage) func() {
			return func() {
				for i, title := range []string{fig, fig + " " + variant} {
					a := pair[i]
					p("%s (%s) [%s arrivals, DOH=%s]: %.1f%% of true values in 90%% prediction interval\n",
						title, name, a.Kind, a.DOH, a.Coverage*100)
				}
			}
		}
		// scores prints a Table 2/3-style table: one row per system, its
		// score (or N/A) and its 1-best error.
		scores := func(title, indent, col string, width int, metric string, n int, row func(int) (string, string, float64)) func() {
			return func() {
				p("%s\n%s%-*s %8s %12s\n", title, indent, width, col, metric, "1-Best-Err")
				for i := range n {
					sys, score, err := row(i)
					p("%s%-*s %8s %11.1f%%\n", indent, width, sys, score, err*100)
				}
			}
		}
		na := func(has bool, format string, v float64) string {
			if !has {
				return "N/A"
			}
			return fmt.Sprintf(format, v)
		}
		capacity := func(fig string, rows []CapacityResult) func() {
			return func() {
				p("%s (%s). Total-CPU forecast coverage\n", fig, name)
				for _, r := range rows {
					p("  %-24s %5.1f%% captured in 90%% prediction interval\n", r.Generator+"-generated:", r.Coverage*100)
				}
			}
		}
		section(r.Figure4 != nil, arrivals("Figure 4", "ablation", r.Figure4))
		section(r.Figure5 != nil, arrivals("Figure 5", "ablation", r.Figure5))
		section(r.Figure6 != nil, arrivals("Figure 6", "with DOH", r.Figure6))
		section(r.Table2 != nil, scores("Table 2 ("+name+"). Flavor sequence modeling", "", "System", 14, "NLL", len(r.Table2),
			func(i int) (string, string, float64) {
				t := r.Table2[i]
				return t.System, na(t.HasNLL, "%.2f", t.NLL), t.OneBestErr
			}))
		section(r.Table3 != nil, scores("Table 3 ("+name+"). Lifetime modeling", "", "System", 16, "BCE", len(r.Table3),
			func(i int) (string, string, float64) {
				t := r.Table3[i]
				return t.System, na(t.HasBCE, "%.3f", t.BCE), t.OneBestErr
			}))
		section(r.Table4 != nil, func() {
			p("Table 4. Evaluation in continuous domain (Survival-MSE)\n")
			p("%-6s %-14s %-16s %12s\n", "System", "Discretization", "Interpolation", "Survival-MSE")
			for _, t := range r.Table4 {
				p("%-6s %-14s %-16s %11.2f%%\n", t.System, t.Discretization, t.Interpolation, t.SurvivalMSE*100)
			}
		})
		section(r.Censoring != nil, func() {
			p("Censoring ablation (%s): KM test BCE by treatment\n", name)
			for _, c := range r.Censoring {
				p("  %-20s %.4f\n", c.Variant, c.BCE)
			}
		})
		section(r.Figure7 != nil, capacity("Figure 7", r.Figure7))
		section(r.Figure8 != nil, capacity("Figure 8", r.Figure8))
		section(r.Figure9 != nil, func() {
			p("Figure 9 (%s). Reuse distance distributions (%% of requests)\n", name)
			p("%-26s%7s%7s%7s%7s%7s%7s%7s\n", "Reuse distance", "0", "1", "2", "3", "4", "5", "6+")
			row := func(label string, shares []float64) {
				p("%-26s", label)
				for _, v := range shares {
					p("%6.1f%%", v*100)
				}
				p("\n")
			}
			row("Test data", r.Figure9.Actual)
			for _, g := range r.Figure9.Generators {
				row("Range of "+g.Generator+" samples", g.Mean)
			}
		})
		section(r.Table5 != nil, func() {
			p("Table 5 (%s). First-failure allocation ratio (limiting resource)\n", name)
			p("%-14s %10s %10s\n", "Generator", "Median", ">0.95")
			for _, t := range r.Table5 {
				p("%-14s %9.1f%% %9.1f%%\n", t.Source, t.Median*100, t.Frac95*100)
			}
		})
		section(r.TenX != nil, func() {
			x := r.TenX
			p("10x scaling (%s): VM ratio %.1fx\n", name, x.VMRatio)
			p("  reuse bucket-0: 1x %.1f%% vs 10x %.1f%%\n", x.Reuse1x[0]*100, x.Reuse10x[0]*100)
			p("  FFAR median:   1x %.1f%% vs 10x %.1f%%\n", x.Pack1x.Median*100, x.Pack10x.Median*100)
		})
		section(r.Joint != nil, func() {
			j := r.Joint
			p("Single-LSTM (EOP) vs staged arrivals (%s): per-period batch counts\n", name)
			p("  %-22s mean %.2f  dispersion %.2f\n", "actual", j.ActualMean, j.ActualDispersion)
			p("  %-22s mean %.2f  dispersion %.2f  (err %.1f%%)\n",
				"staged (Poisson reg.)", j.StagedMean, j.StagedDispersion, j.StagedErr*100)
			p("  %-22s mean %.2f  dispersion %.2f  (err %.1f%%)\n",
				"joint (EOP tokens)", j.JointMean, j.JointDispersion, j.JointErr*100)
		})
		section(r.Forecast != nil, func() {
			p("Forecasting vs generative (%s): total-CPU test-window accuracy\n", name)
			p("  %-18s %10s %8s\n", "Method", "Coverage", "MAPE")
			for _, f := range r.Forecast {
				p("  %-18s %9.1f%% %7.1f%%\n", f.Method, f.Coverage*100, f.MAPE*100)
			}
		})
		section(r.Heads != nil, scores("Lifetime-head ablation ("+name+"): hazard vs PMF parameterization", "  ", "Head", 20, "BCE", len(r.Heads),
			func(i int) (string, string, float64) {
				h := r.Heads[i]
				return h.Head, fmt.Sprintf("%.3f", h.BCE), h.OneBestErr
			}))
		for _, g := range r.Tune {
			section(true, func() {
				p("%s grid (%s, best first):\n", g.Grid, name)
				for _, c := range g.Results {
					p("  %v  score %.5f\n", c.Params, c.Score)
				}
			})
		}
	}
}

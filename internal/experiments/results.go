package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/par"
)

// Results is one run of the experiment suite: every number a table
// prints or a shape gate reads, per cloud, with the scale it came from.
// cmd/experiments renders it (Render) and writes it (-results),
// ExportAll writes the figures' TSVs from it, and the tests compare it
// with testdata/results.small.json and with EXPERIMENTS.md. The
// per-period series behind the figures (ArrivalCoverage.Intervals and
// .Actual, CapacityResult.Forecast, PackingResult.FFARs) stay in memory
// for ExportAll and out of the JSON.
type Results struct {
	Scale Scale
	// Recipe is Scale.Train without its hooks (Obs, Progress, Dev,
	// Checkpoint), so a journal cannot change the record.
	Recipe struct {
		Hidden, Layers, SeqLen, BatchSize, Epochs int
		LR, WeightDecay, ClipNorm                 float64
		Seed                                      int64
	}
	Table1 []Table1Row `json:",omitempty"`
	Clouds []*CloudResults
}

// CloudResults is one cloud's tables and figures, named as in the
// paper. A section the run did not select, or one reported for the
// other cloud only, is nil.
type CloudResults struct {
	Cloud     string
	Figure4   []ArrivalCoverage `json:",omitempty"` // Azure: DOH sampled, last-day
	Figure5   []ArrivalCoverage `json:",omitempty"` // Huawei: DOH sampled, last-day
	Figure6   []ArrivalCoverage `json:",omitempty"` // no DOH, DOH sampled
	Table2    []Table2Row       `json:",omitempty"`
	Table3    []Table3Row       `json:",omitempty"`
	Table4    []Table4Row       `json:",omitempty"` // Azure
	Censoring []CensoringRow    `json:",omitempty"`
	Figure7   []CapacityResult  `json:",omitempty"` // Azure
	Figure8   []CapacityResult  `json:",omitempty"` // Huawei
	Figure9   *ReuseFigure      `json:",omitempty"`
	Table5    []PackingResult   `json:",omitempty"`
	TenX      *TenXResult       `json:",omitempty"`
	Joint     *JointResult      `json:",omitempty"` // Azure, like the three below
	Forecast  []ForecastRow     `json:",omitempty"`
	Heads     []HeadRow         `json:",omitempty"`
	Tune      []TuneGrid        `json:",omitempty"` // §4.2; -exp tune only
}

// Run computes the selected experiments over the clouds and returns the
// record. exps holds cmd/experiments' -exp names (Names); surrounding
// space is ignored. "all" selects every table and figure of the record
// but not "tune", the §4.2 grid searches, which only their own name
// selects. Any other name is an error, returned before anything is
// fitted. After the fits, each cloud's paper sections, each extension
// fit and each grid search run as parallel tasks; every task draws only
// from its own seeded streams and writes only its own fields, so the
// record does not depend on the worker count.
func Run(exps []string, clouds ...*Cloud) (*Results, error) {
	want, names := map[string]bool{}, Names()
	for _, e := range exps {
		name := strings.TrimSpace(e)
		if !slices.Contains(names, name) {
			return nil, fmt.Errorf("experiments: unknown experiment %q (want %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }
	FitAll(clouds...)
	res := &Results{Clouds: make([]*CloudResults, len(clouds))}
	if len(clouds) > 0 {
		res.Scale = clouds[0].Scale
		tc, r := res.Scale.Train, &res.Recipe
		r.Hidden, r.Layers, r.SeqLen, r.BatchSize, r.Epochs = tc.Hidden, tc.Layers, tc.SeqLen, tc.BatchSize, tc.Epochs
		r.LR, r.WeightDecay, r.ClipNorm, r.Seed = tc.LR, tc.WeightDecay, tc.ClipNorm, tc.Seed
	}
	if sel("table1") {
		res.Table1 = Table1(clouds...)
	}
	var fits, papers, joins []func()
	for i, c := range clouds {
		r := &CloudResults{Cloud: c.ID.String()}
		res.Clouds[i] = r
		papers = append(papers, func() {
			for _, s := range paperSections {
				if (s.cloud == anyCloud || s.cloud == c.ID) && sel(s.name) {
					s.run(c, r)
				}
			}
		})
		for _, e := range extensions {
			if c.ID != Azure || !sel(e.name) {
				continue
			}
			if e.fit != nil {
				fits = append(fits, func() { e.fit(c, r) })
			}
			if e.join != nil {
				joins = append(joins, func() { e.join(c, r) })
			}
		}
		if want["tune"] {
			r.Tune = make([]TuneGrid, len(tuneGrids))
			for j, g := range tuneGrids {
				fits = append(fits, func() {
					grid, err := g.run(c)
					if err != nil {
						panic(fmt.Sprintf("experiments: tune %s on %s: %v", g.name, c.ID, err))
					}
					r.Tune[j] = TuneGrid{Grid: g.name, Results: grid}
				})
			}
		}
	}
	tasks := append(fits, papers...) // the fits are the longest tasks
	par.Do(len(tasks), func(i int) { tasks[i]() })
	for _, join := range joins {
		join()
	}
	return res, nil
}

// Names are the -exp names Run selects on, in the order the record
// holds them: all, table1, the paper sections, the extensions and tune.
func Names() []string {
	names := []string{"all", "table1"}
	for _, s := range paperSections {
		names = append(names, s.name)
	}
	for _, e := range extensions {
		names = append(names, e.name)
	}
	return append(names, "tune")
}

// anyCloud marks a paper section reported for every cloud.
const anyCloud CloudID = -1

// paperSections are the paper's tables and figures, by -exp name, each
// computed for the cloud the paper reports it on (or for every cloud).
// One task runs a cloud's selected sections in this order.
var paperSections = []struct {
	name  string
	cloud CloudID
	run   func(c *Cloud, r *CloudResults)
}{
	{"fig4", Azure, func(c *Cloud, r *CloudResults) { r.Figure4 = coverPair(Figure4(c)) }},
	{"fig5", Huawei, func(c *Cloud, r *CloudResults) { r.Figure5 = coverPair(Figure5(c)) }},
	{"fig6", anyCloud, func(c *Cloud, r *CloudResults) { r.Figure6 = coverPair(Figure6(c)) }},
	{"table2", anyCloud, func(c *Cloud, r *CloudResults) { r.Table2 = Table2(c) }},
	{"table3", anyCloud, func(c *Cloud, r *CloudResults) { r.Table3 = Table3(c) }},
	{"table4", Azure, func(c *Cloud, r *CloudResults) { r.Table4 = Table4(c) }},
	{"censoring", anyCloud, func(c *Cloud, r *CloudResults) { r.Censoring = CensoringAblation(c) }},
	{"fig7", Azure, func(c *Cloud, r *CloudResults) { r.Figure7 = Figure7(c) }},
	{"fig8", Huawei, func(c *Cloud, r *CloudResults) { r.Figure8 = Figure8(c) }},
	{"fig9", anyCloud, func(c *Cloud, r *CloudResults) { fig := Figure9(c); r.Figure9 = &fig }},
	{"table5", anyCloud, func(c *Cloud, r *CloudResults) { r.Table5 = Table5(c) }},
	{"tenx", anyCloud, func(c *Cloud, r *CloudResults) { tx := TenX(c); r.TenX = &tx }},
}

func coverPair(a, b ArrivalCoverage) []ArrivalCoverage { return []ArrivalCoverage{a, b} }

// extensions are the experiments beyond the paper's tables, by -exp
// name, run on Azure only. fit, if set, is the extension's own fit, run
// as a task beside the paper sections; join, if set, completes its
// table once the paper sections are in: the Overall KM and hazard-head
// rows are Table 3's, and the generative forecast row is Figure 7's
// LSTM, so each quantity has one number. A repeated table the run did
// not select is computed, not recorded.
var extensions = []struct {
	name string
	fit  func(c *Cloud, r *CloudResults)
	join func(c *Cloud, r *CloudResults)
}{
	{name: "joint", fit: func(c *Cloud, r *CloudResults) { j := jointVsStaged(c); r.Joint = &j }},
	{name: "forecast", join: func(c *Cloud, r *CloudResults) {
		r.Forecast = forecastVsGenerative(c, rowsOf(r.Figure7, Figure7, c)[2]) // Naive, SimpleBatch, LSTM
	}},
	{
		name: "heads",
		fit:  func(c *Cloud, r *CloudResults) { r.Heads = []HeadRow{2: pmfRow(c)} },
		join: func(c *Cloud, r *CloudResults) {
			t3 := rowsOf(r.Table3, Table3, c) // CoinFlip, Overall KM, Per-flavor KM, RepeatLifetime, LSTM
			r.Heads[0] = HeadRow{Head: "Overall KM", BCE: t3[1].BCE, OneBestErr: t3[1].OneBestErr}
			r.Heads[1] = HeadRow{Head: "LSTM (hazard head)", BCE: t3[4].BCE, OneBestErr: t3[4].OneBestErr}
		},
	},
}

// rowsOf is rows, or compute(c)'s when the run did not record them.
func rowsOf[T any](rows []T, compute func(*Cloud) []T, c *Cloud) []T {
	if rows == nil {
		return compute(c)
	}
	return rows
}

// JSON is r as indented JSON, the format of testdata/results.small.json.
// encoding/json rejects NaN and ±Inf, so a non-finite number in any
// table is an error here, not a silent cell.
func (r *Results) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	return append(b, '\n'), err
}

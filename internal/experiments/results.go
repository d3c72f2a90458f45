package experiments

import (
	"encoding/json"
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
	Arch      []ArchRow         `json:",omitempty"`
	Heads     []HeadRow         `json:",omitempty"`
}

// Run computes the selected experiments over the clouds and returns the
// record. exps holds cmd/experiments' -exp names ("all" selects every
// one; surrounding space is ignored). After the fits, each cloud's paper
// sections and each extension fit run as parallel tasks; every task
// draws only from its own seeded streams and writes only its own
// fields, so the record does not depend on the worker count.
func Run(exps []string, clouds ...*Cloud) *Results {
	want := map[string]bool{}
	for _, e := range exps {
		want[strings.TrimSpace(e)] = true
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
		papers = append(papers, func() { paperSections(c, r, sel) })
		if c.ID == Azure {
			f, join := extensions(c, r, sel)
			fits, joins = append(fits, f...), append(joins, join)
		}
	}
	tasks := append(fits, papers...) // the fits are the longest tasks
	par.Do(len(tasks), func(i int) { tasks[i]() })
	for _, join := range joins {
		join()
	}
	return res
}

// paperSections computes one cloud's selected tables and figures of the
// paper, each for the cloud the paper reports it on.
func paperSections(c *Cloud, r *CloudResults, sel func(string) bool) {
	azure := c.ID == Azure
	pair := func(a, b ArrivalCoverage) []ArrivalCoverage { return []ArrivalCoverage{a, b} }
	for _, s := range []struct {
		name string
		on   bool
		run  func()
	}{
		{"fig4", azure, func() { r.Figure4 = pair(Figure4(c)) }},
		{"fig5", !azure, func() { r.Figure5 = pair(Figure5(c)) }},
		{"fig6", true, func() { r.Figure6 = pair(Figure6(c)) }},
		{"table2", true, func() { r.Table2 = Table2(c) }},
		{"table3", true, func() { r.Table3 = Table3(c) }},
		{"table4", azure, func() { r.Table4 = Table4(c) }},
		{"censoring", true, func() { r.Censoring = CensoringAblation(c) }},
		{"fig7", azure, func() { r.Figure7 = Figure7(c) }},
		{"fig8", !azure, func() { r.Figure8 = Figure8(c) }},
		{"fig9", true, func() { fig := Figure9(c); r.Figure9 = &fig }},
		{"table5", true, func() { r.Table5 = Table5(c) }},
		{"tenx", true, func() { tx := TenX(c); r.TenX = &tx }},
	} {
		if s.on && sel(s.name) {
			s.run()
		}
	}
}

// extensions returns the selected extension experiments' fits as tasks,
// and the join that completes their tables once the paper sections are
// in: the Multinomial and LSTM architecture rows are Table 2's, the
// Overall KM and hazard-head rows Table 3's, and the generative
// forecast row is Figure 7's LSTM, so each quantity has one number. A
// repeated table the run did not select is computed, not recorded.
func extensions(c *Cloud, r *CloudResults, sel func(string) bool) (fits []func(), join func()) {
	if sel("arch") {
		r.Arch = make([]ArchRow, 4)
		fits = append(fits, func() { r.Arch[3] = transformerRow(c) }, func() { r.Arch[2] = gruRow(c) })
	}
	if sel("joint") {
		r.Joint = new(JointResult)
		fits = append(fits, func() { *r.Joint = jointVsStaged(c) })
	}
	if sel("heads") {
		r.Heads = make([]HeadRow, 3)
		fits = append(fits, func() { r.Heads[2] = pmfRow(c) })
	}
	return fits, func() {
		if sel("forecast") {
			r.Forecast = forecastVsGenerative(c, rowsOf(r.Figure7, Figure7, c)[2]) // Naive, SimpleBatch, LSTM
		}
		if r.Arch != nil {
			t2 := rowsOf(r.Table2, Table2, c) // Uniform, Multinomial, RepeatFlav, LSTM
			for i, t := range []Table2Row{t2[1], t2[3]} {
				r.Arch[i] = ArchRow{Arch: t.System, NLL: t.NLL, OneBestErr: t.OneBestErr}
			}
		}
		if r.Heads != nil {
			t3 := rowsOf(r.Table3, Table3, c) // CoinFlip, Overall KM, Per-flavor KM, RepeatLifetime, LSTM
			r.Heads[0] = HeadRow{Head: "Overall KM", BCE: t3[1].BCE, OneBestErr: t3[1].OneBestErr}
			r.Heads[1] = HeadRow{Head: "LSTM (hazard head)", BCE: t3[4].BCE, OneBestErr: t3[4].OneBestErr}
		}
	}
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

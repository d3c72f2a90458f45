package experiments

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

var (
	tuneOnce   sync.Once
	tuneTrain  *trace.Trace
	tuneDev    *trace.Trace
	tuneDevOff int
)

func tuneData(t *testing.T) (*trace.Trace, *trace.Trace, int) {
	t.Helper()
	tuneOnce.Do(func() {
		cfg := workload.PresetConfig("azure")
		cfg.Days = 4
		cfg.Users = 80
		cfg.BaseRate = 2
		full := cfg.Generate(77)
		tuneDevOff = 3 * trace.PeriodsPerDay
		tuneTrain = full.Slice(trace.Window{Start: 0, End: tuneDevOff}, 0)
		tuneDev = full.Slice(trace.Window{Start: tuneDevOff, End: full.Periods}, 0)
	})
	return tuneTrain, tuneDev, tuneDevOff
}

func TestArrivalGrid(t *testing.T) {
	train, dev, off := tuneData(t)
	results, err := ArrivalGrid(train, dev, off, []float64{0.01, 0.1, 10, 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results %d", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score < results[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	// An absurdly strong ridge should not win: it flattens the rate to
	// the global mean.
	if results[0].Params["l2"] == 10000 {
		t.Errorf("degenerate penalty won the grid: %+v", results)
	}
}

func TestArrivalGridEmpty(t *testing.T) {
	train, dev, off := tuneData(t)
	if _, err := ArrivalGrid(train, dev, off, nil); err == nil {
		t.Fatal("expected empty-grid error")
	}
}

func TestFlavorGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several LSTMs")
	}
	train, dev, off := tuneData(t)
	base := core.TrainConfig{Hidden: 12, Layers: 1, SeqLen: 48, BatchSize: 8, Epochs: 8, Seed: 1}
	results, err := FlavorGrid(train, dev, off, base, []float64{8e-3, 1e-5}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	// A vanishing learning rate cannot win: the network stays at its
	// random initialization.
	if results[0].Params["lr"] == 1e-5 {
		t.Errorf("untrained candidate won: %+v", results)
	}
}

func TestLifetimeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several LSTMs")
	}
	train, dev, off := tuneData(t)
	bins := survival.PaperBins()
	base := core.TrainConfig{Hidden: 12, Layers: 1, SeqLen: 48, BatchSize: 8, Epochs: 8, Seed: 1}
	results, err := LifetimeGrid(train, dev, off, bins, base, []float64{8e-3, 1e-5}, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Params["lr"] == 1e-5 {
		t.Errorf("untrained candidate won: %+v", results)
	}
}

func TestDOHGeomGrid(t *testing.T) {
	train, dev, off := tuneData(t)
	results, err := DOHGeomGrid(train, dev, off, []float64{1.0 / 7.0, 0.9}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	for _, r := range results {
		if r.Score < 0 || r.Score > 1 {
			t.Fatalf("score out of range: %+v", r)
		}
	}
	if _, err := DOHGeomGrid(train, dev, off, []float64{2}, 10); err == nil {
		t.Fatal("expected p-range error")
	}
}

// TestTuneSection: tune is an -exp name Run accepts, and Render prints
// each grid of a cloud, candidates in record order (best first), in the
// section format of -exp tune.
func TestTuneSection(t *testing.T) {
	if !slices.Contains(Names(), "tune") {
		t.Fatalf("Names() = %q lacks tune", Names())
	}
	if _, err := Run([]string{"tune"}); err != nil {
		t.Fatal(err)
	}
	res := &Results{Clouds: []*CloudResults{{
		Cloud: "Azure",
		Tune: []TuneGrid{
			{Grid: "arrival L2", Results: []GridResult{
				{Params: map[string]float64{"l2": 10}, Score: -1.50123},
				{Params: map[string]float64{"l2": 0.01}, Score: -1.48025},
			}},
			{Grid: "flavor LSTM (lr, wd)", Results: []GridResult{
				{Params: map[string]float64{"wd": 0.0001, "lr": 0.003}, Score: 1.622041},
			}},
		},
	}}}
	var b bytes.Buffer
	Render(&b, res)
	want := `arrival L2 grid (Azure, best first):
  map[l2:10]  score -1.50123
  map[l2:0.01]  score -1.48025

flavor LSTM (lr, wd) grid (Azure, best first):
  map[lr:0.003 wd:0.0001]  score 1.62204

`
	if b.String() != want {
		t.Errorf("Render printed\n%s\nwant\n%s", b.String(), want)
	}
}

// TestAllOmitsTune: -exp all is every table and figure of the record,
// and the grid searches are not one of them, so the record (and
// testdata/results.small.json) carries no Tune section.
func TestAllOmitsTune(t *testing.T) {
	for _, r := range results(t).Clouds {
		if r.Tune != nil {
			t.Errorf("%s: -exp all ran the tune grids", r.Cloud)
		}
	}
}

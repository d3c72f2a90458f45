package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func twoFlavors() *FlavorSet {
	return &FlavorSet{Defs: []FlavorDef{
		{Name: "small", CPU: 1, MemGB: 2},
		{Name: "large", CPU: 4, MemGB: 16},
	}}
}

func sample() *Trace {
	return &Trace{
		Flavors: twoFlavors(),
		Periods: 10,
		VMs: []VM{
			{ID: 0, User: 1, Flavor: 0, Start: 0, Duration: 600},
			{ID: 1, User: 1, Flavor: 0, Start: 0, Duration: 700},
			{ID: 2, User: 2, Flavor: 1, Start: 0, Duration: 100},
			{ID: 3, User: 1, Flavor: 1, Start: 0, Duration: 50},
			{ID: 4, User: 3, Flavor: 0, Start: 2, Duration: 4000},
			{ID: 5, User: 3, Flavor: 0, Start: 5, Duration: 86400 * 2},
		},
	}
}

func TestTemporalHelpers(t *testing.T) {
	if HourOfDay(0) != 0 || HourOfDay(PeriodsPerHour) != 1 || HourOfDay(24*PeriodsPerHour) != 0 {
		t.Fatal("HourOfDay wrong")
	}
	if DayOfWeek(0) != 0 || DayOfWeek(PeriodsPerDay*8) != 1 {
		t.Fatal("DayOfWeek wrong")
	}
	if DayOfHistory(PeriodsPerDay*3+5) != 3 {
		t.Fatal("DayOfHistory wrong")
	}
}

func TestPeriodBatches(t *testing.T) {
	tr := sample()
	pb := tr.PeriodBatches()
	if len(pb) != 10 {
		t.Fatalf("got %d period lists", len(pb))
	}
	// Period 0: user1 x2, user2 x1, user1 x1 -> 3 batches (second user-1
	// run is a separate batch since it is non-contiguous).
	if len(pb[0]) != 3 {
		t.Fatalf("period 0 has %d batches, want 3", len(pb[0]))
	}
	if pb[0][0].User != 1 || len(pb[0][0].Indices) != 2 {
		t.Fatalf("first batch wrong: %+v", pb[0][0])
	}
	if pb[0][2].User != 1 || len(pb[0][2].Indices) != 1 {
		t.Fatalf("third batch wrong: %+v", pb[0][2])
	}
	if len(pb[1]) != 0 || len(pb[2]) != 1 {
		t.Fatal("empty/later periods wrong")
	}
}

func TestBatchAndArrivalCounts(t *testing.T) {
	tr := sample()
	bc := tr.BatchCounts()
	if bc[0] != 3 || bc[2] != 1 || bc[5] != 1 || bc[1] != 0 {
		t.Fatalf("batch counts: %v", bc)
	}
	ac := tr.ArrivalCounts()
	if ac[0] != 4 || ac[2] != 1 {
		t.Fatalf("arrival counts: %v", ac)
	}
}

func TestSliceCensorsAtWindowEnd(t *testing.T) {
	tr := sample()
	// Window [0, 4): VM 4 starts at period 2 with duration 4000s; window
	// end is 4*300=1200s; VM4 end = 600+4000 = 4600 >= 1200 -> censored
	// with observed duration 1200-600 = 600.
	sub := tr.Slice(Window{Start: 0, End: 4}, 0)
	if len(sub.VMs) != 5 {
		t.Fatalf("got %d VMs, want 5", len(sub.VMs))
	}
	last := sub.VMs[4]
	if !last.Censored || last.Duration != 600 {
		t.Fatalf("VM4 censoring wrong: %+v", last)
	}
	// VM 0 (600s from period 0) ends at 600 < 1200: uncensored.
	if sub.VMs[0].Censored {
		t.Fatal("VM0 should be uncensored")
	}
}

func TestSliceExtraSeconds(t *testing.T) {
	tr := sample()
	// With a 1-hour extension the same VM survives observation.
	sub := tr.Slice(Window{Start: 0, End: 4}, 3600)
	if sub.VMs[4].Censored {
		t.Fatalf("VM4 should be uncensored with extended horizon: %+v", sub.VMs[4])
	}
}

func TestSliceRebases(t *testing.T) {
	tr := sample()
	sub := tr.Slice(Window{Start: 2, End: 8}, 0)
	if len(sub.VMs) != 2 {
		t.Fatalf("got %d VMs", len(sub.VMs))
	}
	if sub.VMs[0].Start != 0 || sub.VMs[1].Start != 3 {
		t.Fatalf("rebasing wrong: %d %d", sub.VMs[0].Start, sub.VMs[1].Start)
	}
	if sub.Periods != 6 {
		t.Fatalf("periods = %d", sub.Periods)
	}
}

func TestSliceKeepsEarlierCensoring(t *testing.T) {
	tr := sample()
	tr.VMs[0].Censored = true
	tr.VMs[0].Duration = 100 // source observation ended at 100s
	sub := tr.Slice(Window{Start: 0, End: 10}, 0)
	if !sub.VMs[0].Censored || sub.VMs[0].Duration != 100 {
		t.Fatalf("earlier censoring should be kept: %+v", sub.VMs[0])
	}
}

func TestSliceBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sample().Slice(Window{Start: 5, End: 3}, 0)
}

func TestComputeStats(t *testing.T) {
	tr := sample()
	s := tr.ComputeStats()
	if s.VMs != 6 || s.Censored != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.Batches != 5 {
		t.Fatalf("batches = %d, want 5", s.Batches)
	}
	if s.MeanBatch != 6.0/5.0 {
		t.Fatalf("mean batch = %v", s.MeanBatch)
	}
	if s.Days != 10.0/float64(PeriodsPerDay) {
		t.Fatalf("days = %v", s.Days)
	}
}

func TestValidate(t *testing.T) {
	tr := sample()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sample()
	bad.VMs[0].Flavor = 99
	if bad.Validate() == nil {
		t.Fatal("expected flavor error")
	}
	bad2 := sample()
	bad2.VMs[0].Start = -1
	if bad2.Validate() == nil {
		t.Fatal("expected period error")
	}
	for _, d := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad3 := sample()
		bad3.VMs[0].Duration = d
		if bad3.Validate() == nil {
			t.Fatalf("expected duration error for %v", d)
		}
	}
}

func TestSortVMs(t *testing.T) {
	tr := sample()
	tr.VMs[0], tr.VMs[5] = tr.VMs[5], tr.VMs[0]
	tr.SortVMs()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, vm := range tr.VMs {
		if vm.ID != i {
			t.Fatalf("IDs not reassigned: %d at %d", vm.ID, i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, tr.Flavors, tr.Periods)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(tr.VMs) {
		t.Fatalf("got %d VMs", len(got.VMs))
	}
	for i := range tr.VMs {
		if got.VMs[i] != tr.VMs[i] {
			t.Fatalf("VM %d mismatch: %+v vs %+v", i, got.VMs[i], tr.VMs[i])
		}
	}
	// A window length of 0 ends the window with the last start period.
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCSV(&buf, tr.Flavors, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.VMs[len(tr.VMs)-1].Start + 1; got.Periods != want {
		t.Fatalf("inferred %d periods, want %d", got.Periods, want)
	}
}

func TestReadCSVErrors(t *testing.T) {
	fs := twoFlavors()
	if _, err := ReadCSV(strings.NewReader(""), fs, 10); err == nil {
		t.Fatal("expected empty error")
	}
	badRow := "id,user,flavor,start_period,duration_s,censored\nx,1,0,0,5,false\n"
	if _, err := ReadCSV(strings.NewReader(badRow), fs, 10); err == nil {
		t.Fatal("expected parse error")
	}
	outOfRange := "id,user,flavor,start_period,duration_s,censored\n0,1,9,0,5,false\n"
	if _, err := ReadCSV(strings.NewReader(outOfRange), fs, 10); err == nil {
		t.Fatal("expected validate error")
	}
	// ParseFloat reads these; JSON cannot hold them, so Validate refuses.
	for _, d := range []string{"NaN", "+Inf", "Inf", "-Inf"} {
		row := "id,user,flavor,start_period,duration_s,censored\n0,1,0,0," + d + ",false\n"
		if _, err := ReadCSV(strings.NewReader(row), fs, 10); err == nil {
			t.Fatalf("expected validate error for duration %s", d)
		}
	}
}

func TestEndSeconds(t *testing.T) {
	vm := VM{Start: 2, Duration: 100}
	if vm.EndSeconds() != 700 {
		t.Fatalf("EndSeconds = %v", vm.EndSeconds())
	}
}

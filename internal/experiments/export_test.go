package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
)

func TestExportSeries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.tsv")
	iv := []metrics.Interval{{Lo: 1, Median: 2, Hi: 3}, {Lo: 4, Median: 5, Hi: 6}}
	if err := exportSeries(path, iv, []float64{2.5, 5.5}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[0] != "days\tlo\tmedian\thi\tactual" {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "\t1\t2\t3\t2.5") {
		t.Fatalf("row: %q", lines[1])
	}
}

func TestExportSeriesMismatch(t *testing.T) {
	if err := exportSeries(filepath.Join(t.TempDir(), "x"), nil, []float64{1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestExportReuse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.tsv")
	actual := make([]float64, sched.ReuseBuckets)
	actual[0] = 0.5
	res := []ReuseResult{{Generator: "LSTM", Mean: make([]float64, sched.ReuseBuckets)}}
	if err := exportReuse(path, &ReuseFigure{Actual: actual, Generators: res}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	s := string(data)
	if !strings.Contains(s, "bucket\tactual\tLSTM") || !strings.Contains(s, "6+") {
		t.Fatalf("content: %q", s)
	}
}

func TestExportFFAR(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.tsv")
	res := []PackingResult{{
		Source: "Test data",
		FFARs:  []sched.PackResult{{CPUFFAR: 0.9, MemFFAR: 0.5, Limiting: 0.9}},
	}}
	if err := exportFFAR(path, res); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "Test data\t0.9\t0.5\t0.9") {
		t.Fatalf("content: %q", string(data))
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("LSTM (no DOH sampling)"); got != "LSTM__no_DOH_sampling_" {
		t.Fatalf("sanitize = %q", got)
	}
}

// TestExportAll writes both clouds' plot data from the shared record,
// running nothing, and checks every file is there with its rows.
func TestExportAll(t *testing.T) {
	res := results(t)
	dir := t.TempDir()
	if err := ExportAll(dir, res); err != nil {
		t.Fatal(err)
	}
	az, hw := clouds()[0].TestW.Periods(), clouds()[1].TestW.Periods()
	packings := 4 * SmallScale().Tuples // three generators and the test data
	// Each file's data rows.
	want := map[string]int{
		"fig4_azure_batch_arrivals.tsv":                   az,
		"fig6_azure_vm_arrivals.tsv":                      az,
		"fig7_azure_capacity_Naive.tsv":                   az,
		"fig7_azure_capacity_SimpleBatch.tsv":             az,
		"fig7_azure_capacity_LSTM.tsv":                    az,
		"fig9_azure_reuse.tsv":                            sched.ReuseBuckets,
		"fig10_azure_ffar.tsv":                            packings,
		"fig5_huawei_batch_arrivals.tsv":                  hw,
		"fig6_huawei_vm_arrivals.tsv":                     hw,
		"fig8_huawei_capacity_Naive.tsv":                  hw,
		"fig8_huawei_capacity_SimpleBatch.tsv":            hw,
		"fig8_huawei_capacity_LSTM.tsv":                   hw,
		"fig8_huawei_capacity_LSTM__no_DOH_sampling_.tsv": hw,
		"fig9_huawei_reuse.tsv":                           sched.ReuseBuckets,
		"fig10_huawei_ffar.tsv":                           packings,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("%d files exported, want %d", len(entries), len(want))
	}
	for name, rows := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := strings.Count(string(data), "\n") - 1; got != rows {
			t.Errorf("%s: %d data rows, want %d", name, got, rows)
		}
	}
}

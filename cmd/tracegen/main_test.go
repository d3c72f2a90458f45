package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

// The golden files under testdata were printed by the commands whose
// work -in and -report took over, before they were deleted: analyze
// (characterize), visualize -no-color -periods 100000 (render) and
// tracegen -replay (a record file as CSV). trace.csv is the first 800
// VMs of a generated azure trace; records.jsonl holds two records of
// 100 VMs each. Never re-record a golden to make a change pass: the
// modes promise those commands' bytes.
var goldens = []struct {
	args   []string
	golden string
	stderr string
}{
	{[]string{"-in", "history", "-cloud", "mixed", "-days", "2", "-seed", "3", "-report", "characterize"}, "history_characterize.golden", ""},
	{[]string{"-in", "history", "-cloud", "huawei", "-days", "1", "-seed", "7", "-report", "render"}, "history_render.golden", ""},
	{[]string{"-in", "testdata/trace.csv", "-cloud", "azure", "-report", "characterize"}, "csv_characterize.golden", ""},
	{[]string{"-in", "testdata/trace.csv", "-cloud", "azure", "-report", "render"}, "csv_render.golden", ""},
	{[]string{"-in", "testdata/records.jsonl"}, "records_csv.golden", "replayed 2 record(s), 200 VMs from testdata/records.jsonl\n"},
}

func TestReportsMatchGoldens(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(g.args, &stdout, &stderr); code != 0 {
				t.Fatalf("tracegen %s exited %d: %s", strings.Join(g.args, " "), code, stderr.String())
			}
			want, err := os.ReadFile("testdata/" + g.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("tracegen %s differs from testdata/%s", strings.Join(g.args, " "), g.golden)
			}
			if stderr.String() != g.stderr {
				t.Errorf("stderr %q, want %q", stderr.String(), g.stderr)
			}
		})
	}
}

// TestRenderColor: on a terminal, render prints visualize's colored
// cells (run never sees a terminal under test, so render is called
// directly).
func TestRenderColor(t *testing.T) {
	_, cfg, err := workload.Load("huawei")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Days = 1
	var got bytes.Buffer
	if err := render(&got, cfg.Generate(7), true); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/history_render_color.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("colored render differs from testdata/history_render_color.golden")
	}
}

// TestRefusals: a flag value tracegen cannot honour exits 2 and names
// it, and prints no trace. The last row trains a tiny model: an
// arrival-rate scale whose Poisson mean no int holds is refused after
// the fit and before the decode (it once decoded silently as fewer
// VMs than scale 1).
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", "history", "-record", "gen.jsonl"}, "-record with -in"},
		{[]string{"-in", "history", "-report", "svg"}, `-report "svg"`},
		{[]string{"-scale", "0"}, "-scale 0"},
		{[]string{"-days", "3", "-epochs", "1", "-hidden", "4", "-gen-days", "1", "-scale", "1e30"}, "-scale 1e+30"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("tracegen %s exited %d, want 2", strings.Join(c.args, " "), code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("tracegen %s: stderr %q does not name %q", strings.Join(c.args, " "), stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("tracegen %s printed %d bytes", strings.Join(c.args, " "), stdout.Len())
		}
	}
}

// failWriter fails every write, like a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteErrorFails: every report exits 1 when its output cannot be
// written, rather than ending as if the trace had been printed.
func TestWriteErrorFails(t *testing.T) {
	for _, report := range []string{"csv", "characterize", "render"} {
		var stderr bytes.Buffer
		if code := run([]string{"-in", "testdata/trace.csv", "-report", report}, failWriter{}, &stderr); code != 1 {
			t.Errorf("-report %s into a failing writer exited %d, want 1", report, code)
		}
		if !strings.Contains(stderr.String(), "disk full") {
			t.Errorf("-report %s: stderr %q does not name the write error", report, stderr.String())
		}
	}
}

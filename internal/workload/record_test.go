package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func sampleRecord() *Record {
	fs := &trace.FlavorSet{Defs: []trace.FlavorDef{
		{Name: "small", CPU: 1, MemGB: 2},
		{Name: "big", CPU: 8, MemGB: 32},
	}}
	tr := &trace.Trace{
		Flavors: fs,
		Periods: 12,
		VMs: []trace.VM{
			{ID: 0, User: 3, Flavor: 0, Start: 0, Duration: 600},
			{ID: 1, User: 3, Flavor: 1, Start: 2, Duration: 90.5},
			{ID: 2, User: 7, Flavor: 0, Start: 11, Duration: 60, Censored: true},
		},
	}
	return NewRecord("generate", "batched", "f64", "deadbeef00000000", 42, trace.Window{Start: 576, End: 588}, 1.5, tr)
}

func TestRecordRoundTrip(t *testing.T) {
	rec := sampleRecord()
	data, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != 42 || back.Start != 576 || back.Periods != 12 || back.Scale != 1.5 {
		t.Fatalf("header mangled: %+v", back)
	}
	if w := back.Window(); w.Start != 576 || w.End != 588 {
		t.Fatalf("window: %+v", w)
	}
	tr := back.Trace()
	if err := rec.Verify(tr); err != nil {
		t.Fatalf("reconstituted trace fails Verify: %v", err)
	}
	if tr.Flavors == nil || tr.Flavors.K() != 2 || tr.Flavors.Defs[1].Name != "big" {
		t.Fatalf("flavors mangled: %+v", tr.Flavors)
	}
}

func TestRecordVerifyDivergence(t *testing.T) {
	rec := sampleRecord()
	tr := rec.Trace()
	tr.VMs[1].Duration += 1
	err := rec.Verify(tr)
	if err == nil || !strings.Contains(err.Error(), "vm[1]") {
		t.Fatalf("err = %v, want divergence at vm[1]", err)
	}
	short := rec.Trace()
	short.VMs = short.VMs[:2]
	if err := rec.Verify(short); err == nil {
		t.Fatal("short trace should fail Verify")
	}
}

func TestReadRecordHostile(t *testing.T) {
	valid, err := sampleRecord().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(old, new string) string {
		s := strings.Replace(string(valid), old, new, 1)
		if s == string(valid) {
			t.Fatalf("mutation %q not applied", old)
		}
		return s
	}
	cases := []struct {
		name string
		data string
		want string
	}{
		{"empty", ``, "parse record"},
		{"unknown field", `{"version":1,"surprise":true}`, "parse record"},
		{"trailing", string(valid) + `{}`, "trailing data"},
		{"bad version", mutate(`"version":1`, `"version":9`), "unsupported record version"},
		{"count mismatch", mutate(`"count":3`, `"count":4`), "declares 4"},
		{"count huge", mutate(`"count":3`, `"count":99999999999`), "count"},
		{"negative seed ok but bad periods", mutate(`"periods":12`, `"periods":0`), "periods"},
		{"vm out of window", mutate(`"start":11`, `"start":12`), "outside"},
		{"flavor out of range", mutate(`"flavor":1,"start":2`, `"flavor":7,"start":2`), "flavor"},
		{"nan duration", mutate(`"duration_s":90.5`, `"duration_s":"NaN"`), "parse record"},
		{"negative duration", mutate(`"duration_s":90.5`, `"duration_s":-4`), "duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRecord(strings.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestReadRecordSizeCap(t *testing.T) {
	huge := `{"version":1,"source":"x","pad":"` + strings.Repeat("y", MaxRecordBytes) + `"}`
	_, err := ReadRecord(strings.NewReader(huge))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want size-cap error", err)
	}
}

func TestRecorderJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	rc, err := OpenRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	for i := 0; i < 3; i++ {
		if err := rc.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Append(rec); err != nil {
		t.Fatalf("append after close should be a no-op, got %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	for _, r := range recs {
		if err := rec.Verify(r.Trace()); err != nil {
			t.Fatal(err)
		}
	}
	// The zero/nil Recorder is a no-op sink.
	var nilRC *Recorder
	if err := nilRC.Append(rec); err != nil || nilRC.Close() != nil {
		t.Fatal("nil Recorder should be inert")
	}
}

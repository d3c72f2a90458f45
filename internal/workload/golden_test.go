package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden spec files")

// TestPresetGoldenFiles pins every preset's serialized form: the JSON
// under testdata/ is the published grammar, and any change to it is a
// deliberate, reviewed diff (regenerate with go test -args -update).
func TestPresetGoldenFiles(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			data, err := Preset(name).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("preset %q drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", name, path, data, want)
			}
		})
	}
}

// configsEquivalent compares two synth.Configs for semantic byte
// identity despite the func-typed schedule fields: every non-func
// field must be deeply equal, the schedules must agree pointwise on
// every day of the history, and — the final arbiter — both configs
// must generate identical trace bytes from the same seed.
func configsEquivalent(t *testing.T, got, want synth.Config, seed int64) {
	t.Helper()
	gotFlat, wantFlat := got, want
	gotFlat.Growth, wantFlat.Growth = nil, nil
	gotFlat.LifeShift, wantFlat.LifeShift = nil, nil
	if !reflect.DeepEqual(gotFlat, wantFlat) {
		t.Errorf("config fields differ:\n got %+v\nwant %+v", gotFlat, wantFlat)
	}
	if (got.Growth == nil) != (want.Growth == nil) || (got.LifeShift == nil) != (want.LifeShift == nil) {
		t.Fatalf("schedule presence differs: growth %v/%v lifeshift %v/%v",
			got.Growth != nil, want.Growth != nil, got.LifeShift != nil, want.LifeShift != nil)
	}
	for day := 0; day < want.Days; day++ {
		if got.Growth != nil {
			if g, w := got.Growth(day), want.Growth(day); g != w {
				t.Fatalf("growth(%d) = %v, want %v (must be bit-identical)", day, g, w)
			}
		}
		if got.LifeShift != nil {
			if g, w := got.LifeShift(day), want.LifeShift(day); g != w {
				t.Fatalf("lifeshift(%d) = %v, want %v (must be bit-identical)", day, g, w)
			}
		}
	}
	var gotBuf, wantBuf bytes.Buffer
	if err := got.Generate(seed).WriteJSON(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if err := want.Generate(seed).WriteJSON(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("compiled config generates different trace bytes than the hardcoded one")
	}
}

// TestPresetCompilesToHardcoded: the named presets, round-tripped
// through their golden JSON, compile to configs byte-identical to the
// hardcoded synth constructors.
func TestPresetCompilesToHardcoded(t *testing.T) {
	cases := []struct {
		preset string
		want   func() synth.Config
	}{
		{"azure-like", synth.AzureLike},
		{"huawei-like", synth.HuaweiLike},
	}
	for _, tc := range cases {
		t.Run(tc.preset, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", tc.preset+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			configsEquivalent(t, got, tc.want(), 17)
		})
	}
}

// TestMixedPresetTraceGolden pins the bytes the mixed preset generates:
// the SHA-256 of the JSON trace at two seeds. The benchmark fixture is
// this preset, so these constants are never re-recorded to make a
// change pass.
func TestMixedPresetTraceGolden(t *testing.T) {
	spec := Preset("mixed")
	spec.Days = 4
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed int64
		sha  string
	}{
		{1, "dc619d5819875739c2cbc8df72bddb0b9ccd5bad1924749b2c5143008fb460b8"},
		{20210521, "c133ad45f94b1a82c76edc37c883a7b52508ef012112bad3bc5d007152f3a6d9"},
	} {
		var buf bytes.Buffer
		if err := cfg.Generate(tc.seed).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("seed %d: trace sha256 %s, want %s", tc.seed, got, tc.sha)
		}
	}
}

// TestMixedPresetCompiles: the heterogeneous preset compiles and its
// golden file stays parseable end to end.
func TestMixedPresetCompiles(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "mixed.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Cohorts) != 3 {
		t.Fatalf("mixed preset compiled to %d cohorts", len(cfg.Cohorts))
	}
	procs := map[string]bool{}
	for _, co := range spec.Cohorts {
		procs[co.Arrival.Process] = true
	}
	if len(procs) != 3 {
		t.Fatalf("mixed preset should use three distinct arrival processes, got %v", procs)
	}
}

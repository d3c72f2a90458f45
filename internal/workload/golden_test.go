package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
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

// TestPresetCompilesToHardcoded: the azure and huawei presets,
// round-tripped through their golden JSON, compile to the configs the
// hand-written synth constructors they replaced built. The SHA-256 of
// the JSON trace each generates at seed 17 was recorded from those
// constructors before they were deleted; like every simulator digest,
// it is never re-recorded to make a change pass.
func TestPresetCompilesToHardcoded(t *testing.T) {
	cases := []struct {
		preset string
		sha    string
	}{
		{"azure", "a2b3c3ab0493d53ad33b005f9fdaaa36cb1e0cd03a0eac1a58829d8913d93358"},
		{"huawei", "bb69e90f11c5dc1a2ef3e09ce0d00971dd7c6f2252004abbb4ba7e7ccdb6e4c7"},
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
			cfg, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cfg.Generate(17).WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("trace sha256 %s, want %s", got, tc.sha)
			}
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

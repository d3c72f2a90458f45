package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// mutate round-trips a preset through JSON with a field edited, to
// exercise Validate through ParseSpec the way real input arrives.
func parseMutated(t *testing.T, base *Spec, edit func(*Spec)) error {
	t.Helper()
	c := *base
	if base.Cohorts != nil {
		c.Cohorts = append([]CohortSpec{}, base.Cohorts...)
	}
	edit(&c)
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseSpec(data)
	return err
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			spec := Preset(name)
			data, err := spec.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("preset %q does not round-trip: %v", name, err)
			}
			again, err := back.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(again) {
				t.Fatalf("marshal not stable:\n%s\nvs\n%s", data, again)
			}
		})
	}
}

func TestPresetUnknown(t *testing.T) {
	if Preset("no-such-preset") != nil {
		t.Fatal("unknown preset should be nil")
	}
}

func TestParseSpecStrictness(t *testing.T) {
	base := Preset("mixed")
	valid, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"empty", ``, "parse spec"},
		{"not json", `{`, "parse spec"},
		{"unknown field", `{"version":1,"nmae":"x"}`, "parse spec"},
		{"trailing data", string(valid) + `{"version":1}`, "trailing data"},
		{"wrong version", strings.Replace(string(valid), `"version": 1`, `"version": 2`, 1), "unsupported spec version"},
		{"oversized", `{"version":1,"pad":"` + strings.Repeat("x", MaxSpecBytes) + `"}`, "cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	base := Preset("mixed")
	cases := []struct {
		name string
		edit func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "non-empty"},
		{"days cap", func(s *Spec) { s.Days = maxDays + 1 }, "days"},
		{"zero users", func(s *Spec) { s.Users = 0 }, "users"},
		{"bad catalog", func(s *Spec) { s.Flavors.Catalog = "gcp" }, "catalog"},
		{"zero rate", func(s *Spec) { s.Arrival.BaseRate = 0 }, "base_rate"},
		{"diurnal >= 1", func(s *Spec) { s.Arrival.DiurnalAmplitude = 1 }, "diurnal"},
		{"batch mean < 1", func(s *Spec) { s.Batch.SizeMean = 0.5 }, "size_mean"},
		{"prob > 1", func(s *Spec) { s.Batch.TemplateP = 1.5 }, "[0,1]"},
		{"favorite zero", func(s *Spec) { s.Population.FavoriteCount = 0 }, "favorite_count"},
		{"mu order", func(s *Spec) { s.Lifetime.MuMaxSeconds = s.Lifetime.MuMinSeconds - 1 }, "mu_max_s"},
		{"sigma zero", func(s *Spec) { s.Lifetime.Sigma = 0 }, "sigma"},
		{"fractions", func(s *Spec) { s.Cohorts[0].RateFraction = 0.4 }, "sum"},
		{"dup cohort", func(s *Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name }, "duplicate"},
		{"poisson cv", func(s *Spec) { s.Cohorts[0].Arrival.CV = 1 }, "poisson takes no cv"},
		{"cv cap", func(s *Spec) { s.Cohorts[1].Arrival.CV = maxCV + 1 }, "cv"},
		{"bad process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "hawkes" }, "process"},
		{"both flavor filters", func(s *Spec) {
			s.Cohorts[2].FlavorNames = []string{"A1r1.75"}
		}, "both flavor_names and flavor_prefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parseMutated(t, base, tc.edit)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCompileFlavorResolution(t *testing.T) {
	spec := Preset("mixed")
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Cohorts) != 3 {
		t.Fatalf("compiled %d cohorts, want 3", len(cfg.Cohorts))
	}
	// "A8" prefix over azure16 is the four 8-CPU flavors, indices 12-15.
	want := []int{12, 13, 14, 15}
	got := cfg.Cohorts[2].FlavorSubset
	if len(got) != len(want) {
		t.Fatalf("gpu subset %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gpu subset %v, want %v", got, want)
		}
	}

	spec.Cohorts[2].FlavorPrefix = "Z9"
	if _, err := spec.Compile(); err == nil || !strings.Contains(err.Error(), "matches no flavors") {
		t.Fatalf("err = %v, want no-match error", err)
	}
	spec.Cohorts[2].FlavorPrefix = ""
	spec.Cohorts[2].FlavorNames = []string{"A8r7", "nope"}
	if _, err := spec.Compile(); err == nil || !strings.Contains(err.Error(), "unknown flavor") {
		t.Fatalf("err = %v, want unknown-flavor error", err)
	}
}

// TestLoad: a preset name wins, a path is read and parsed, the example
// spec file is the mixed preset, and an oversized or missing file is an
// error.
func TestLoad(t *testing.T) {
	if spec, cfg, err := Load("mixed"); err != nil || spec.Name != "MixedCohorts" || len(cfg.Cohorts) != 3 {
		t.Fatalf("Load(mixed) = %v, %d cohorts, %v", spec, len(cfg.Cohorts), err)
	}
	dir := t.TempDir()
	data, err := Preset("huawei").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "spec.json")
	big := filepath.Join(dir, "big.json")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(big, append(data, bytes.Repeat([]byte(" "), MaxSpecBytes)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if spec, cfg, err := Load(good); err != nil || spec.Name != "HuaweiLike" || cfg.Flavors.K() != 259 {
		t.Fatalf("Load(file) = %v, %v", spec, err)
	}
	example := filepath.Join("..", "..", "examples", "workloads", "mixed.json")
	if spec, _, err := Load(example); err != nil || !reflect.DeepEqual(spec, Preset("mixed")) {
		t.Fatalf("Load(%s) = %+v, %v; want the mixed preset", example, spec, err)
	}
	for path, want := range map[string]string{big: "cap", filepath.Join(dir, "none.json"): "neither a preset"} {
		if _, _, err := Load(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load(%s) err = %v, want substring %q", path, err, want)
		}
	}
}

// TestHangSpecsReturn:the two specs that once hung synth.Generate are
// now rejected with an error naming the cause, or compile and generate.
func TestHangSpecsReturn(t *testing.T) {
	specs := hangSpecs(t)
	dup, err := ParseSpec(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dup.Compile(); err == nil || !strings.Contains(err.Error(), `cohort "gpu" lists flavor "A8r14" twice`) {
		t.Fatalf("err = %v, want repeated-flavor error", err)
	}
	few, err := ParseSpec(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := few.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Generate(1)
	if err := tr.Validate(); err != nil || len(tr.VMs) == 0 {
		t.Fatalf("generated %d VMs, err %v", len(tr.VMs), err)
	}
}

// TestCompileUserSplit: cohorts with users omitted split the spec pool
// by rate fraction.
func TestCompileUserSplit(t *testing.T) {
	spec := Preset("mixed")
	for i := range spec.Cohorts {
		spec.Cohorts[i].Users = 0
	}
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{200, 120, 80} // 400 users split 0.5/0.3/0.2
	for i, co := range cfg.Cohorts {
		if co.Users != want[i] {
			t.Errorf("cohort %q users = %d, want %d", co.Name, co.Users, want[i])
		}
	}
}

// TestCompileCohortInheritance: nil override blocks inherit the base
// blocks wholesale; non-nil blocks replace them.
func TestCompileCohortInheritance(t *testing.T) {
	spec := Preset("mixed")
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	inter := cfg.Cohorts[0] // no overrides: inherits all base blocks
	if inter.BatchSizeMean != spec.Batch.SizeMean || inter.UserZipf != spec.Population.Zipf {
		t.Errorf("interactive cohort should inherit base blocks: %+v", inter)
	}
	batch := cfg.Cohorts[1] // overrides batch + lifetime
	if batch.BatchSizeMean != 4.0 {
		t.Errorf("batch cohort size mean = %v, want 4", batch.BatchSizeMean)
	}
	if batch.UserZipf != spec.Population.Zipf {
		t.Errorf("batch cohort zipf should inherit base, got %v", batch.UserZipf)
	}
}

// TestCompiledSpecDrivesGeneration is the end-to-end acceptance check
// at the synth layer: a parsed three-cohort JSON spec compiles and
// generates a valid, deterministic trace with all cohorts active.
func TestCompiledSpecDrivesGeneration(t *testing.T) {
	data, err := Preset("mixed").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	spec.Days = 3
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Generate(4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, 240, 360, 400}
	seen := make([]bool, 3)
	for _, vm := range tr.VMs {
		for c := 0; c < 3; c++ {
			if vm.User >= bounds[c] && vm.User < bounds[c+1] {
				seen[c] = true
			}
		}
	}
	for c, ok := range seen {
		if !ok {
			t.Errorf("cohort %d generated no VMs", c)
		}
	}
}

func TestSummary(t *testing.T) {
	sum := Preset("mixed").Summary()
	if sum["name"] != "MixedCohorts" || sum["catalog"] != "azure16" {
		t.Fatalf("summary: %v", sum)
	}
	cohorts, ok := sum["cohorts"].([]map[string]any)
	if !ok || len(cohorts) != 3 {
		t.Fatalf("summary cohorts: %v", sum["cohorts"])
	}
	if cohorts[1]["process"] != "gamma" || cohorts[1]["cv"] != 2.0 {
		t.Fatalf("batch cohort summary: %v", cohorts[1])
	}
}

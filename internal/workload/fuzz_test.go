package workload

import (
	"bytes"
	"testing"
)

// FuzzWorkloadSpec hammers the spec parser: arbitrary bytes must never
// panic or allocate proportionally to declared (rather than actual)
// sizes, any spec that parses must round-trip through Marshal and
// compile without panicking, and every spec that compiles must generate
// a valid trace (on a copy clamped to cheap sizes) rather than hang.
func FuzzWorkloadSpec(f *testing.F) {
	for _, name := range PresetNames() {
		data, err := Preset(name).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"name":"x","days":1,"users":1,` +
		`"flavors":{"defs":[{"name":"f","cpu":1,"mem_gb":1}]},` +
		`"arrival":{"base_rate":1,"weekend_dip":1},` +
		`"batch":{"size_mean":1},"population":{"favorite_count":1},` +
		`"lifetime":{"mu_min_s":60,"mu_max_s":60,"sigma":1}}`))
	for _, data := range hangSpecs(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		out, err := spec.Marshal()
		if err != nil {
			t.Fatalf("valid spec failed to marshal: %v", err)
		}
		back, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("marshalled spec failed to re-parse: %v\n%s", err, out)
		}
		_ = spec.Summary()
		// Compile may reject (unknown flavor references resolve against
		// the catalog here), but must not panic, and a compilable spec
		// must stay compilable after the round trip.
		if _, err := spec.Compile(); err != nil {
			return
		}
		if _, err := back.Compile(); err != nil {
			t.Fatalf("round-tripped spec lost compilability: %v", err)
		}
		cfg, err := cheap(spec).Compile()
		if err != nil {
			t.Fatalf("clamped copy of a compilable spec failed to compile: %v", err)
		}
		if err := cfg.Generate(1).Validate(); err != nil {
			t.Fatalf("compiled spec generated an invalid trace: %v", err)
		}
	})
}

// hangSpecs are two specs that pass Validate yet once hung
// synth.Generate forever, rejection-sampling distinct favorite flavors
// from too few: the mixed preset with a cohort listing one flavor twice,
// and a spec asking for more favorites than its catalog has flavors.
func hangSpecs(tb testing.TB) [][]byte {
	dup := Preset("mixed")
	dup.Days = 1
	dup.Cohorts[2].FlavorPrefix = ""
	dup.Cohorts[2].FlavorNames = []string{"A8r14", "A8r14"}
	data, err := dup.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{data, []byte(`{"version":1,"name":"few","days":1,"users":4,` +
		`"flavors":{"defs":[{"name":"a","cpu":1,"mem_gb":1},{"name":"b","cpu":2,"mem_gb":4}]},` +
		`"arrival":{"base_rate":1,"weekend_dip":1},` +
		`"batch":{"size_mean":1},"population":{"favorite_count":3},` +
		`"lifetime":{"mu_min_s":60,"mu_max_s":60,"sigma":1}}`)}
}

// cheap returns a copy of spec that generates in milliseconds: one day,
// at most 64 users per population, a base rate of at most 10, and none
// of the knobs that multiply the rate or batch size by orders of
// magnitude (growth, a day-effect sigma above 1, batch means above 4).
func cheap(spec *Spec) *Spec {
	c := *spec
	c.Days = 1
	c.Users = min(c.Users, 64)
	c.Arrival.BaseRate = min(c.Arrival.BaseRate, 10)
	c.Arrival.DayEffectSigma = min(c.Arrival.DayEffectSigma, 1)
	c.Arrival.Growth = nil
	c.Batch.SizeMean = min(c.Batch.SizeMean, 4)
	c.Cohorts = append([]CohortSpec(nil), spec.Cohorts...)
	for i := range c.Cohorts {
		co := &c.Cohorts[i]
		co.Users = min(co.Users, 64)
		if co.Batch != nil {
			b := *co.Batch
			b.SizeMean = min(b.SizeMean, 4)
			co.Batch = &b
		}
	}
	return &c
}

// FuzzTraceReplay hammers the trace-record parser the same way: no
// panics, validate-before-allocate, and accepted records round-trip
// and reconstitute without violating trace invariants.
func FuzzTraceReplay(f *testing.F) {
	seed, err := sampleRecord().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"source":"generate","seed":1,"start_period":0,"periods":1,"scale":0,"count":0,"vms":[]}`))
	f.Add([]byte(`{"version":9,"count":999999999}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecord(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr := rec.Trace()
		if len(tr.VMs) != rec.Count {
			t.Fatalf("reconstituted %d VMs from a record declaring %d", len(tr.VMs), rec.Count)
		}
		if err := rec.Verify(tr); err != nil {
			t.Fatalf("record does not verify against its own trace: %v", err)
		}
		out, err := rec.Marshal()
		if err != nil {
			t.Fatalf("valid record failed to marshal: %v", err)
		}
		if _, err := ReadRecord(bytes.NewReader(out)); err != nil {
			t.Fatalf("marshalled record failed to re-parse: %v", err)
		}
	})
}

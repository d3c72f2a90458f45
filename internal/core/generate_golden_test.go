package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/rng"
	"repro/internal/trace"
)

// A generateGolden row pins the bytes of Model.Generate: the sha256 of
// the JSON of n traces of window w, one per stream split from seed.
//
// The constants were recorded against the serial decoder Generate used
// to be — its own period / batch / job loop stepping flavorState and
// lifetimeState through a scalar one-step forward, since deleted — and
// held unchanged when Generate became the one-stream case of the fleet
// engine. They are the f64 decode's draw-order reference (with
// TestServedFleetLogitsTierParity holding fleet logits to Net.Forward
// bit for bit): every batched,
// sharded and served f64 path is compared with the one-stream traces,
// and those with these constants. Like the f32 trace hashes
// (TestF32TraceGolden, two of whose constants these rows share) they
// must hold on the assembly and on the portable kernels. Never
// re-record one to make a decode refactor pass.
type generateGolden struct {
	name string
	m    *Model // base with what folded in by Tilted and the job cap set
	w    trace.Window
	seed int64
	n    int
	want string
	// The row's knobs. The engine rows serve base with what's tilt
	// folded in and pass its rate scale per request.
	base *Model
	what WhatIf
}

// golden builds a row decoding base with the what-if folded in by
// Tilted and a per-period job cap of maxJobs (0: the default). A row
// with neither decodes base itself.
func golden(name string, base *Model, what WhatIf, maxJobs int, w trace.Window, seed int64, n int, want string) generateGolden {
	m := base
	if what.EOBFactor != 0 || what.FlavorFactors != nil || what.RateScale != 0 || maxJobs != 0 {
		m = mustTilted(base, what)
		m.MaxJobsPerPeriod = maxJobs
	}
	return generateGolden{name: name, m: m, w: w, seed: seed, n: n, want: want, base: base, what: what}
}

// mustTilted is Tilted for what-ifs a test knows to be valid.
func mustTilted(m *Model, what WhatIf) *Model {
	t, err := Tilted(m, what)
	if err != nil {
		panic(err)
	}
	return t
}

// tinyGoldens are the rows on the untrained tiny model, which need no
// fitted fixture: a first day, a day past the model's two-day history,
// the tilt with a job cap of 5, and a 3× arrival rate.
func tinyGoldens() []generateGolden {
	day := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	tilt := WhatIf{EOBFactor: 0.8, FlavorFactors: []float64{1.2, 0.9, 1}}
	return []generateGolden{
		golden("tiny/day", tinyGenModel(), WhatIf{}, 0, day, 20210521, 8, "74d8a726d32b3ad3b7b6be0a7f50955963d05933acc77e008988ead661e84bc9"),
		golden("tiny/past-history", tinyGenModel(), WhatIf{}, 0, trace.Window{Start: 3 * trace.PeriodsPerDay, End: 4 * trace.PeriodsPerDay}, 20210521, 4, "10b8255cac26731b44e5ede569224fba434c525e38208f8f837029d7c3251781"),
		golden("tiny/tilt+cap5", tinyGenModel(), tilt, 5, trace.Window{Start: 0, End: 2 * trace.PeriodsPerDay}, 5, 9, "7d858846fb08344828274574d65934a92a5e51f11405cf3b64c786bdab001618"),
		golden("tiny/scale3", tinyGenModel(), WhatIf{RateScale: 3}, 0, day, 42, 4, "ee0c3c4d8e315ad657f6f4f827f2ba825be932f172379230fcb086f3c1a4d488"),
	}
}

// trainedGoldens are the rows on the fitted integration fixture: a first
// day, its test window, and the test window with all three knobs set.
func trainedGoldens(f *fixture) []generateGolden {
	day := trace.Window{Start: 0, End: trace.PeriodsPerDay}
	return []generateGolden{
		golden("trained/day", f.model, WhatIf{}, 0, day, 321, 6, "2e5249d2c2763c81fac0d719aeb3a84701e10100741252bf86783d4e077f0998"),
		golden("trained/testW", f.model, WhatIf{}, 0, f.testW, 321, 6, "e9354f7e9e57b05b82c1ee996032bb25a125dc04ffeec86d26b1ac261c181ffd"),
		golden("trained/tilt+scale3+cap5", f.model, WhatIf{EOBFactor: 0.7, RateScale: 3}, 5, f.testW, 7, 3, "61e31958f39bf4e77c0a847340c769f824bd01a654166af5160b591bbf4beb86"),
	}
}

// goldenRow returns the named row of rows.
func goldenRow(t *testing.T, rows []generateGolden, name string) generateGolden {
	t.Helper()
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no golden row %q", name)
	return generateGolden{}
}

// digest is the sha256 of the concatenated trace bytes.
func digest(traces [][]byte) string {
	h := sha256.New()
	for _, b := range traces {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generate decodes the row's streams one Generate call at a time.
func (r generateGolden) generate(t *testing.T) [][]byte {
	out := make([][]byte, 0, r.n)
	for _, g := range splitStreams(r.seed, r.n) {
		out = append(out, traceBytes(t, r.m.Generate(g, r.w)))
	}
	return out
}

// TestGenerateTraceGolden pins Model.Generate's bytes across commits on
// both kernel tiers. A capped row must really hit its cap: each of its
// periods holds at most MaxJobsPerPeriod jobs, and the traces differ
// from the uncapped decode of the same streams (identical draws would
// mean the override never fired).
func TestGenerateTraceGolden(t *testing.T) {
	f := getFixture(t)
	rows := append(tinyGoldens(), trainedGoldens(f)...)
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		for _, r := range rows {
			got := r.generate(t)
			if d := digest(got); d != r.want {
				t.Errorf("%s: Generate traces sha256 %s, want %s", r.name, d, r.want)
			}
			if r.m.MaxJobsPerPeriod == 0 {
				continue
			}
			uncapped, um := r, *r.m
			um.MaxJobsPerPeriod = 0
			uncapped.m = &um
			if digest(uncapped.generate(t)) == digest(got) {
				t.Errorf("%s: the job cap never fired", r.name)
			}
			for i, b := range got {
				tr, err := trace.ReadJSON(bytes.NewReader(b))
				if err != nil {
					t.Fatal(err)
				}
				perPeriod := make(map[int]int)
				for _, vm := range tr.VMs {
					if perPeriod[vm.Start]++; perPeriod[vm.Start] > r.m.MaxJobsPerPeriod {
						t.Fatalf("%s stream %d: period %d holds more than %d jobs", r.name, i, vm.Start, r.m.MaxJobsPerPeriod)
					}
				}
			}
		}
	})
}

// TestConcurrentGenerate runs Model.Generate from 8 goroutines, each on
// its own stream, on a freshly unmarshalled model whose serving caches
// are still nil, so the calls race to build them. Every trace must match
// the tiny/day golden row. scripts/check.sh runs it under -race.
func TestConcurrentGenerate(t *testing.T) {
	r := goldenRow(t, tinyGoldens(), "tiny/day")
	blob, err := r.m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{}
	if err := m.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, r.n)
	errs := make([]error, r.n)
	var wg sync.WaitGroup
	for i, g := range splitStreams(r.seed, r.n) {
		wg.Add(1)
		go func(i int, g *rng.RNG) {
			defer wg.Done()
			var buf bytes.Buffer
			errs[i] = m.Generate(g, r.w).WriteJSON(&buf)
			got[i] = buf.Bytes()
		}(i, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if d := digest(got); d != r.want {
		t.Fatalf("concurrent Generate traces sha256 %s, want %s", d, r.want)
	}
}

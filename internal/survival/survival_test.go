package survival

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPaperBinsLayout(t *testing.T) {
	b := PaperBins()
	if b.J() != 47 {
		t.Fatalf("paper bins J = %d, want 47", b.J())
	}
	if b.Edges[0] != 0 {
		t.Fatal("first edge must be 0")
	}
	if b.Edges[1] != 5*minute {
		t.Fatalf("first bin should end at 5 min: %v", b.Edges[1])
	}
	if b.Edges[12] != hour {
		t.Fatalf("edge 12 should be 1h: %v", b.Edges[12])
	}
	if b.Edges[21] != 10*hour {
		t.Fatalf("edge 21 should be 10h: %v", b.Edges[21])
	}
	if b.Edges[46] != 20*day {
		t.Fatalf("edge 46 should be 20d: %v", b.Edges[46])
	}
	if b.Horizon() != 40*day {
		t.Fatalf("horizon should be 40d: %v", b.Horizon())
	}
	for i := 1; i < len(b.Edges); i++ {
		if b.Edges[i] <= b.Edges[i-1] {
			t.Fatalf("edges not strictly increasing at %d", i)
		}
	}
}

func TestFineBins(t *testing.T) {
	b := FineBins()
	if b.J() != 495 {
		t.Fatalf("fine bins J = %d", b.J())
	}
}

func TestUniformBinsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UniformBins(0, 10)
}

func TestIndex(t *testing.T) {
	b := PaperBins()
	cases := []struct {
		d    float64
		want int
	}{
		{0, 0},
		{299, 0},
		{300, 1}, // exactly 5 min goes into second bin
		{3599, 11},
		{3600, 12},
		{9.5 * hour, 20},
		{25 * hour, 35},
		{19 * day, 45},
		{21 * day, 46},
		{1000 * day, 46}, // beyond horizon clamps to last bin
	}
	for _, c := range cases {
		if got := b.Index(c.d); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestIndexNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PaperBins().Index(-1)
}

func TestIndexEdgesQuick(t *testing.T) {
	b := PaperBins()
	f := func(raw uint32) bool {
		d := float64(raw) // up to ~4e9 s, beyond horizon
		j := b.Index(d)
		if j < 0 || j >= b.J() {
			return false
		}
		if j < b.J()-1 {
			return d >= b.Lo(j) && d < b.Hi(j)
		}
		return d >= b.Lo(j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHazardPMFSurvivalConsistency(t *testing.T) {
	h := []float64{0.1, 0.5, 0.2, 0.9}
	f := HazardToPMF(h)
	var sum float64
	for _, v := range f {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("PMF sums to %v", sum)
	}
	s := HazardToSurvival(h)
	// S(j) = 1 - cumulative PMF up to j (except for the folded tail in
	// the last bin).
	cum := 0.0
	for j := 0; j < len(h)-1; j++ {
		cum += f[j]
		if math.Abs(s[j]-(1-cum)) > 1e-12 {
			t.Errorf("S(%d) = %v, want %v", j, s[j], 1-cum)
		}
	}
}

func TestPMFToHazardRoundTrip(t *testing.T) {
	h := []float64{0.2, 0.4, 0.1, 0.8, 0.3}
	f := HazardToPMF(h)
	h2 := PMFToHazard(f)
	for j := range h {
		if j == len(h)-1 {
			continue // last bin absorbs residual mass
		}
		if math.Abs(h[j]-h2[j]) > 1e-12 {
			t.Errorf("hazard round trip at %d: %v vs %v", j, h[j], h2[j])
		}
	}
}

func TestHazardRoundTripQuick(t *testing.T) {
	f := func(raw [5]uint8) bool {
		h := make([]float64, 5)
		for i, r := range raw {
			h[i] = float64(r) / 300 // hazards in [0, 0.85]
		}
		f2 := HazardToPMF(h)
		h2 := PMFToHazard(f2)
		for j := 0; j < 4; j++ {
			if math.Abs(h[j]-h2[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKaplanMeierUncensored(t *testing.T) {
	// 4 subjects dying in bins 0,0,1,3 of a 4-bin layout.
	b := UniformBins(4, 4)
	obs := []Observation{{Duration: 0.5}, {Duration: 0.2}, {Duration: 1.5}, {Duration: 3.5}}
	h := KaplanMeier(obs, b)
	want := []float64{0.5, 0.5, 0, 1}
	for j := range want {
		if math.Abs(h[j]-want[j]) > 1e-12 {
			t.Errorf("h(%d) = %v, want %v", j, h[j], want[j])
		}
	}
}

func TestKaplanMeierCensoring(t *testing.T) {
	b := UniformBins(3, 3)
	// One event in bin 1; one subject censored in bin 1 (at risk only bin 0).
	obs := []Observation{
		{Duration: 1.5},
		{Duration: 1.5, Censored: true},
	}
	h := KaplanMeier(obs, b)
	if h[0] != 0 {
		t.Errorf("h(0) = %v", h[0])
	}
	// In bin 1 only the event subject is at risk.
	if h[1] != 1 {
		t.Errorf("h(1) = %v, want 1", h[1])
	}
}

func TestKaplanMeierVariants(t *testing.T) {
	b := UniformBins(4, 4)
	obs := []Observation{
		{Duration: 0.5},
		{Duration: 2.5, Censored: true},
		{Duration: 3.5},
	}
	ign := KaplanMeierIgnoreCensored(obs, b)
	// Ignoring censored: 2 subjects, events in bins 0 and 3.
	if ign[0] != 0.5 || ign[3] != 1 {
		t.Errorf("ignore-censored: %v", ign)
	}
	evt := KaplanMeierCensoredAsEvents(obs, b)
	// Censored treated as event in bin 2.
	if evt[2] != 0.5 {
		t.Errorf("censored-as-events h(2) = %v", evt[2])
	}
}

func TestKaplanMeierGrouped(t *testing.T) {
	b := UniformBins(2, 2)
	obs := []Observation{{Duration: 0.5}, {Duration: 1.5}, {Duration: 0.5}}
	groups := []int{0, 0, 1}
	m := KaplanMeierGroupedShrunk(obs, groups, b, 0)
	if len(m) != 3 { // groups 0, 1 and pooled -1
		t.Fatalf("got %d groups", len(m))
	}
	if m[1][0] != 1 {
		t.Errorf("group 1 h(0) = %v", m[1][0])
	}
	if m[-1][0] != 2.0/3.0 {
		t.Errorf("pooled h(0) = %v", m[-1][0])
	}
}

func TestContinuousKMNoCensoring(t *testing.T) {
	obs := []Observation{{Duration: 1}, {Duration: 2}, {Duration: 3}, {Duration: 4}}
	km := NewContinuousKM(obs)
	// Empirical survival steps down by 1/4 at each event.
	checks := []struct{ t, want float64 }{
		{0.5, 1}, {1, 0.75}, {2.5, 0.5}, {3, 0.25}, {4.5, 0},
	}
	for _, c := range checks {
		if got := km.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("S(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestContinuousKMWithCensoring(t *testing.T) {
	// Event at 1 (n=3), censor at 2, event at 3 (n=1 at risk).
	obs := []Observation{{Duration: 1}, {Duration: 2, Censored: true}, {Duration: 3}}
	km := NewContinuousKM(obs)
	if got := km.At(1.5); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("S(1.5) = %v, want 2/3", got)
	}
	if got := km.At(3.5); math.Abs(got-0) > 1e-12 {
		t.Errorf("S(3.5) = %v, want 0", got)
	}
}

// survivalAt is S(t) straight from a discrete hazard.
func survivalAt(t float64, hazard []float64, bins Bins, interp Interpolation) float64 {
	return SurvivalCurveAt(t, HazardToSurvival(hazard), bins, interp)
}

func TestSurvivalAtSteppedAndCDI(t *testing.T) {
	b := UniformBins(2, 2) // bins [0,1), [1,2)
	h := []float64{0.5, 1}
	// S(bin0)=0.5, S(bin1)=0.
	if got := survivalAt(0.5, h, b, Stepped); got != 1 {
		t.Errorf("stepped S(0.5) = %v, want 1 (no terminations until edge)", got)
	}
	if got := survivalAt(1, h, b, Stepped); got != 0.5 {
		t.Errorf("stepped S(1) = %v, want 0.5", got)
	}
	if got := survivalAt(0.5, h, b, CDI); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("CDI S(0.5) = %v, want 0.75", got)
	}
	if got := survivalAt(1.5, h, b, CDI); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("CDI S(1.5) = %v, want 0.25", got)
	}
	if got := survivalAt(-1, h, b, CDI); got != 1 {
		t.Errorf("S(-1) = %v, want 1", got)
	}
	if got := survivalAt(99, h, b, CDI); got != 0 {
		t.Errorf("S beyond horizon = %v, want 0", got)
	}
}

func TestSurvivalAtMonotoneQuick(t *testing.T) {
	b := PaperBins()
	g := rng.New(3)
	h := make([]float64, b.J())
	for i := range h {
		h[i] = g.Float64() * 0.3
	}
	f := func(raw1, raw2 uint32) bool {
		t1 := float64(raw1 % 3456000) // within 40d
		t2 := float64(raw2 % 3456000)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return survivalAt(t1, h, b, CDI) >= survivalAt(t2, h, b, CDI)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleBinDistribution(t *testing.T) {
	g := rng.New(5)
	h := []float64{0.5, 0.5, 1}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[SampleBin(h, g)]++
	}
	// Expected: 0.5, 0.25, 0.25.
	wants := []float64{0.5, 0.25, 0.25}
	for j, w := range wants {
		got := float64(counts[j]) / float64(n)
		if math.Abs(got-w) > 0.02 {
			t.Errorf("bin %d freq %v, want %v", j, got, w)
		}
	}
}

func TestSampleDurationWithinBin(t *testing.T) {
	g := rng.New(6)
	b := UniformBins(4, 4)
	h := []float64{0, 0, 1, 0} // always bin 2
	for i := 0; i < 100; i++ {
		d := SampleDuration(h, b, g, CDI)
		if d < 2 || d >= 3 {
			t.Fatalf("CDI duration %v outside bin [2,3)", d)
		}
	}
	if d := SampleDuration(h, b, g, Stepped); d != 3 {
		t.Fatalf("stepped duration %v, want upper edge 3", d)
	}
}

func TestSurvivalMSEPerfectModel(t *testing.T) {
	// A model that knows the exact lifetime has MSE 0 with a step
	// survival exactly at the lifetime.
	obs := []Observation{{Duration: 5}, {Duration: 10}}
	mse := SurvivalMSE(func(i int, t float64) float64 {
		if t < obs[i].Duration {
			return 1
		}
		return 0
	}, obs, 1, 12)
	if mse != 0 {
		t.Fatalf("perfect model MSE = %v", mse)
	}
}

func TestSurvivalMSECoinFlip(t *testing.T) {
	obs := []Observation{{Duration: 5}}
	mse := SurvivalMSE(func(i int, t float64) float64 { return 0.5 }, obs, 1, 10)
	if math.Abs(mse-0.25) > 1e-12 {
		t.Fatalf("coin-flip MSE = %v, want 0.25", mse)
	}
}

func TestSurvivalMSECensoredLimits(t *testing.T) {
	// Censored at 3: only t in {1,2,3} evaluated, all with truth 0 at
	// t=3? No: truth = 1[t < 3] so t=1,2 truth 1, t=3 truth 0.
	obs := []Observation{{Duration: 3, Censored: true}}
	mse := SurvivalMSE(func(i int, t float64) float64 { return 1 }, obs, 1, 10)
	if math.Abs(mse-1.0/3.0) > 1e-12 {
		t.Fatalf("censored MSE = %v, want 1/3", mse)
	}
}

func TestEmptySurvivalMSE(t *testing.T) {
	if mse := SurvivalMSE(func(int, float64) float64 { return 0 }, nil, 1, 10); mse != 0 {
		t.Fatalf("empty MSE = %v", mse)
	}
}

func TestBinAccessors(t *testing.T) {
	b := UniformBins(4, 8)
	if b.Lo(1) != 2 || b.Hi(1) != 4 {
		t.Fatalf("accessors wrong: %v %v", b.Lo(1), b.Hi(1))
	}
}

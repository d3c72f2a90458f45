package rng

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	g := New(1)
	c1 := g.Split()
	c2 := g.Split()
	same := true
	for i := 0; i < 10; i++ {
		if c1.Float64() != c2.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("split children should differ")
	}
}

func TestPoissonMeanVariance(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 12, 80, 500} {
		g := New(7)
		n := 20000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := float64(g.Poisson(lambda))
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		tol := 4 * math.Sqrt(lambda/float64(n)) * math.Max(1, math.Sqrt(lambda))
		if math.Abs(mean-lambda) > tol {
			t.Errorf("lambda=%v: mean %v too far", lambda, mean)
		}
		if math.Abs(variance-lambda) > 10*tol*math.Sqrt(lambda) {
			t.Errorf("lambda=%v: variance %v too far", lambda, variance)
		}
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	g := New(1)
	if g.Poisson(0) != 0 || g.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

// TestPoissonPanicsOnNaNOrInf: a NaN or +Inf mean panics instead of
// spinning in the rejection sampler, and so does a finite mean of 2^62
// or more instead of returning a count that wrapped negative (1e300 once
// drew math.MinInt64). Each call runs in a goroutine under a deadline,
// so a sampler that loops fails the test rather than hanging.
func TestPoissonPanicsOnNaNOrInf(t *testing.T) {
	for _, lambda := range []float64{math.NaN(), math.Inf(1), 1e300, 1 << 62} {
		panicked := make(chan bool, 1)
		go func() {
			defer func() { panicked <- recover() != nil }()
			New(1).Poisson(lambda)
		}()
		select {
		case p := <-panicked:
			if !p {
				t.Errorf("Poisson(%v) returned instead of panicking", lambda)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Poisson(%v) still running after 5 s", lambda)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	g := New(9)
	p := 1.0 / 7.0
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Geometric(p))
	}
	mean := sum / float64(n)
	want := (1 - p) / p // = 6
	if math.Abs(mean-want) > 0.2 {
		t.Fatalf("geometric mean %v want %v", mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	g := New(1)
	for i := 0; i < 10; i++ {
		if g.Geometric(1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestGeometricBadPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Geometric(0)
}

func TestCategoricalFrequencies(t *testing.T) {
	g := New(11)
	w := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	n := 40000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	for i, c := range counts {
		want := w[i] / 10 * float64(n)
		if math.Abs(float64(c)-want) > 4*math.Sqrt(want) {
			t.Errorf("category %d: count %d want ~%v", i, c, want)
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	g := New(3)
	w := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		if g.Categorical(w) != 1 {
			t.Fatal("zero-weight category sampled")
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestAliasMatchesCategorical(t *testing.T) {
	g := New(13)
	w := []float64{5, 1, 0, 3, 0.5}
	a := NewAlias(w)
	counts := make([]int, len(w))
	n := 100000
	for i := 0; i < n; i++ {
		counts[a.Sample(g)]++
	}
	var total float64
	for _, v := range w {
		total += v
	}
	for i, c := range counts {
		want := w[i] / total * float64(n)
		if w[i] == 0 {
			if c != 0 {
				t.Errorf("zero-weight category %d sampled %d times", i, c)
			}
			continue
		}
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want+1) {
			t.Errorf("alias category %d: %d want ~%v", i, c, want)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := NewAlias([]float64{2.5})
	g := New(1)
	for i := 0; i < 10; i++ {
		if a.Sample(g) != 0 {
			t.Fatal("single category must always be 0")
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 1)
	if w[0] != 1 || math.Abs(w[1]-0.5) > 1e-15 || math.Abs(w[3]-0.25) > 1e-15 {
		t.Fatalf("zipf weights wrong: %v", w)
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatal("zipf weights must be non-increasing")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := New(5)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestLogNormalPositiveQuick(t *testing.T) {
	g := New(23)
	f := func(mu int8, sigmaRaw uint8) bool {
		sigma := float64(sigmaRaw%30) / 10
		return g.LogNormal(float64(mu%5), sigma) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonAlwaysNonNegativeQuick(t *testing.T) {
	g := New(29)
	f := func(raw uint16) bool {
		lambda := float64(raw) / 100
		return g.Poisson(lambda) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaMeanVariance(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 2}, {1, 1}, {2.5, 0.4}, {9, 3},
	} {
		g := New(11)
		n := 40000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := g.Gamma(tc.shape, tc.scale)
			if v <= 0 {
				t.Fatalf("Gamma(%v,%v) produced non-positive %v", tc.shape, tc.scale, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		// Standard error of the mean is sqrt(var/n); allow 5 sigma.
		tol := 5 * math.Sqrt(wantVar/float64(n))
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Gamma(%v,%v): mean %v want %v (tol %v)", tc.shape, tc.scale, mean, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar+tol {
			t.Errorf("Gamma(%v,%v): variance %v want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestGammaPanics(t *testing.T) {
	g := New(1)
	for _, tc := range []struct{ shape, scale float64 }{{0, 1}, {-1, 1}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v,%v) should panic", tc.shape, tc.scale)
				}
			}()
			g.Gamma(tc.shape, tc.scale)
		}()
	}
}

func TestWeibullMeanVariance(t *testing.T) {
	gamma := math.Gamma
	for _, tc := range []struct{ shape, scale float64 }{
		{0.7, 1}, {1, 2}, {1.5, 0.5}, {3, 4},
	} {
		g := New(13)
		n := 40000
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := g.Weibull(tc.shape, tc.scale)
			if v < 0 {
				t.Fatalf("Weibull(%v,%v) produced negative %v", tc.shape, tc.scale, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		wantMean := tc.scale * gamma(1+1/tc.shape)
		wantVar := tc.scale*tc.scale*gamma(1+2/tc.shape) - wantMean*wantMean
		tol := 5 * math.Sqrt(wantVar/float64(n))
		if math.Abs(mean-wantMean) > tol {
			t.Errorf("Weibull(%v,%v): mean %v want %v (tol %v)", tc.shape, tc.scale, mean, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar+tol {
			t.Errorf("Weibull(%v,%v): variance %v want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestWeibullPanics(t *testing.T) {
	g := New(1)
	for _, tc := range []struct{ shape, scale float64 }{{0, 1}, {-1, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Weibull(%v,%v) should panic", tc.shape, tc.scale)
				}
			}()
			g.Weibull(tc.shape, tc.scale)
		}()
	}
}

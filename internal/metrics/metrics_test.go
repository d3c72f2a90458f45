package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantileKnown(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extremes wrong")
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("input mutated")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantileMonotoneQuick(t *testing.T) {
	f := func(raw [6]uint16, qa, qb uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		q1 := float64(qa%101) / 100
		q2 := float64(qb%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictionIntervalsAndCoverage(t *testing.T) {
	// 101 samples of 2 points: point 0 takes values 0..100, point 1 is
	// constant 5.
	samples := make([][]float64, 101)
	for s := range samples {
		samples[s] = []float64{float64(s), 5}
	}
	iv := PredictionIntervals(samples, 0.9)
	if iv[0].Median != 50 {
		t.Fatalf("median = %v", iv[0].Median)
	}
	if math.Abs(iv[0].Lo-5) > 1e-9 || math.Abs(iv[0].Hi-95) > 1e-9 {
		t.Fatalf("interval = %+v", iv[0])
	}
	if iv[1].Lo != 5 || iv[1].Hi != 5 {
		t.Fatalf("constant interval = %+v", iv[1])
	}
	cov := Coverage([]float64{50, 5}, iv)
	if cov != 1 {
		t.Fatalf("coverage = %v", cov)
	}
	cov = Coverage([]float64{200, 5}, iv)
	if cov != 0.5 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestPredictionIntervalsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PredictionIntervals([][]float64{{1, 2}, {1}}, 0.9)
}

func TestCoverageEmptyAndMismatch(t *testing.T) {
	if Coverage(nil, nil) != 0 {
		t.Fatal("empty coverage should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Coverage([]float64{1}, nil)
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
}

func TestCRPSDegenerateForecast(t *testing.T) {
	// A point forecast's CRPS is its absolute error.
	samples := []float64{5, 5, 5, 5}
	if got := CRPS(samples, 7); math.Abs(got-2) > 1e-12 {
		t.Fatalf("CRPS = %v, want 2", got)
	}
	if got := CRPS(samples, 5); math.Abs(got) > 1e-12 {
		t.Fatalf("perfect CRPS = %v", got)
	}
}

func TestCRPSRewardsSharpness(t *testing.T) {
	// Both forecasts centered on the truth; the sharper one scores
	// better.
	truth := 10.0
	narrow := []float64{9.5, 10.5, 9.8, 10.2}
	wide := []float64{5, 15, 7, 13}
	if CRPS(narrow, truth) >= CRPS(wide, truth) {
		t.Fatal("sharper calibrated forecast should score better")
	}
}

func TestCRPSPenalizesBias(t *testing.T) {
	truth := 10.0
	centered := []float64{9, 10, 11}
	biased := []float64{19, 20, 21}
	if CRPS(centered, truth) >= CRPS(biased, truth) {
		t.Fatal("biased forecast should score worse")
	}
}

func TestMeanCRPS(t *testing.T) {
	samples := [][]float64{{1, 10}, {3, 10}}
	got := MeanCRPS(samples, []float64{2, 10})
	// Point 0: E|X-2| = 1, E|X-X'| = (0+2+2+0)/4 = 1 -> 0.5.
	// Point 1: 0.
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("MeanCRPS = %v, want 0.25", got)
	}
}

func TestCRPSPanics(t *testing.T) {
	for _, f := range []func(){
		func() { CRPS(nil, 1) },
		func() { MeanCRPS(nil, nil) },
		func() { MeanCRPS([][]float64{{1}}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/features"
	"repro/internal/glm"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/survival"
)

// tinyModel hand-builds a small consistent Model (no training) so the
// snapshot hardening tests run in milliseconds.
func tinyModel(t testing.TB) *Model {
	t.Helper()
	const k, historyDays = 3, 2
	bins := survival.Bins{Edges: []float64{0, 1, 4, 24}}
	temporal := features.Temporal{HistoryDays: historyDays}
	lifeFeat := features.LifetimeFeatures{Bins: bins.J()}
	flavor := &FlavorModel{
		Net: nn.NewLSTM(nn.Config{
			InputDim: flavorInputDim(k, temporal), HiddenDim: 4, Layers: 1, OutputDim: k + 1,
		}, rng.New(1)),
		K: k, Temporal: temporal, HistoryDays: historyDays,
	}
	lifetime := &LifetimeModel{
		Net: nn.NewLSTM(nn.Config{
			InputDim: lifetimeInputDim(k, temporal, lifeFeat), HiddenDim: 4, Layers: 1, OutputDim: bins.J(),
		}, rng.New(2)),
		Bins: bins, K: k, Temporal: temporal, LifeFeat: lifeFeat, HistoryDays: historyDays,
	}
	arrival := &ArrivalModel{
		Reg:         &glm.PoissonRegression{W: make([]float64, 24+7), Intercept: 0.5},
		Kind:        BatchArrivals,
		HistoryDays: historyDays,
		DOH:         features.DOHSampler{Mode: features.DOHGeometric, HistoryDays: historyDays, GeomP: 1.0 / 7.0},
	}
	return &Model{Arrival: arrival, Flavor: flavor, Lifetime: lifetime}
}

func reencode(t *testing.T, snap ModelSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestModelSnapshotRoundTrip pins the happy path alongside the
// hardening tests below.
func TestModelSnapshotRoundTrip(t *testing.T) {
	m := tinyModel(t)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("round trip changed the snapshot bytes")
	}
}

// TestModelSnapshotRejectsCorruptInput is the core-side panic-audit
// regression suite: each mutation below used to reach a panic (negative
// make, glm length mismatch, enum misuse) or build a model that would
// panic at the first generation step; all must now return errors.
func TestModelSnapshotRejectsCorruptInput(t *testing.T) {
	m := tinyModel(t)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var good ModelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*ModelSnapshot)) []byte {
		snap := good
		snap.BinEdges = append([]float64{}, good.BinEdges...)
		snap.ArrivalW = append([]float64{}, good.ArrivalW...)
		f(&snap)
		return reencode(t, snap)
	}
	cases := map[string][]byte{
		"garbage":   []byte("definitely not gob"),
		"truncated": blob[:len(blob)/2],
		"zero K":    mutate(func(s *ModelSnapshot) { s.K = 0 }),
		"negative K": mutate(func(s *ModelSnapshot) {
			s.K = -7
		}),
		"huge K":            mutate(func(s *ModelSnapshot) { s.K = 1 << 30 }),
		"zero history days": mutate(func(s *ModelSnapshot) { s.HistoryDays = 0 }),
		"no bin edges":      mutate(func(s *ModelSnapshot) { s.BinEdges = nil }),
		"single bin edge":   mutate(func(s *ModelSnapshot) { s.BinEdges = []float64{1} }),
		"NaN bin edge": mutate(func(s *ModelSnapshot) {
			s.BinEdges[1] = math.NaN()
		}),
		"non-increasing bin edges": mutate(func(s *ModelSnapshot) {
			s.BinEdges[1], s.BinEdges[2] = s.BinEdges[2], s.BinEdges[1]
		}),
		"unknown arrival kind": mutate(func(s *ModelSnapshot) { s.ArrivalKind = 9 }),
		"unknown DOH mode":     mutate(func(s *ModelSnapshot) { s.ArrivalDOH = 7 }),
		"unknown interpolation": mutate(func(s *ModelSnapshot) {
			s.Interp = 5
		}),
		"NaN geometric p": mutate(func(s *ModelSnapshot) { s.ArrivalGeomP = math.NaN() }),
		"infinite intercept": mutate(func(s *ModelSnapshot) {
			s.ArrivalB = math.Inf(1)
		}),
		"arrival weights too short": mutate(func(s *ModelSnapshot) {
			s.ArrivalW = s.ArrivalW[:5]
		}),
		"arrival weights too long": mutate(func(s *ModelSnapshot) {
			s.ArrivalW = append(s.ArrivalW, 1, 2, 3)
		}),
		"NaN arrival weight": mutate(func(s *ModelSnapshot) {
			s.ArrivalW[0] = math.NaN()
		}),
		"flavor net garbage": mutate(func(s *ModelSnapshot) {
			s.FlavorNet = []byte("junk")
		}),
		"lifetime net garbage": mutate(func(s *ModelSnapshot) {
			s.LifetimeNet = []byte{0xFF}
		}),
		"metadata/net mismatch": mutate(func(s *ModelSnapshot) {
			// Consistent metadata for K=2 but the embedded nets are K=3.
			s.K = 2
		}),
	}
	for name, data := range cases {
		var back Model
		if err := back.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: corrupt snapshot decoded without error", name)
		}
	}
}

// TestModelTagStability: the tag is a pure function of the weights of
// all three stages — stable across calls, different when the arrival
// intercept or a lifetime weight differs.
func TestModelTagStability(t *testing.T) {
	m := tinyModel(t)
	tag := ModelTag(m)
	if ModelTag(m) != tag {
		t.Fatal("tag not stable")
	}
	if ModelTag(nil) != "" {
		t.Fatal("nil model should tag empty")
	}
	b := m.Arrival.Reg.Intercept
	m.Arrival.Reg.Intercept++
	if ModelTag(m) == tag {
		t.Error("tag ignores the arrival intercept")
	}
	m.Arrival.Reg.Intercept = b
	w := m.Lifetime.Net.Params()[0].Value.Data
	w0 := w[0]
	w[0]++
	if ModelTag(m) == tag {
		t.Error("tag ignores the lifetime weights")
	}
	w[0] = w0
	if ModelTag(m) != tag {
		t.Fatal("tag not restored with the weights")
	}
}

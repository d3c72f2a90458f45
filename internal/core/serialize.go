package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/features"
	"repro/internal/glm"
	"repro/internal/nn"
	"repro/internal/survival"
)

// ModelTag derives a short stable tag from the model's dimensions and
// the weights of all three stages (the arrival coefficients and
// intercept, the flavor net, the lifetime net), the model_tag of a
// workload trace record. Two models trained identically share a tag; any
// weight difference changes it, a what-if folded in by Tilted included,
// so a replay against the wrong model is detectable before the
// byte-compare fails.
func ModelTag(m *Model) string {
	if m == nil || m.Arrival == nil || m.Flavor == nil || m.Lifetime == nil {
		return ""
	}
	h := fnv.New64a()
	var buf [8]byte
	write := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	write(float64(m.Flavor.K), float64(m.Flavor.HistoryDays), m.Arrival.Reg.Intercept)
	write(m.Arrival.Reg.W...)
	for _, n := range []*nn.LSTM{m.Flavor.Net, m.Lifetime.Net} {
		for _, p := range n.Params() {
			write(p.Value.Data...)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// MarshalBinary serializes a trained Model: all three stages plus the
// metadata needed to rebuild the feature encoders. This is the artifact
// a provider could release instead of a proprietary trace (§7).
func (m *Model) MarshalBinary() ([]byte, error) {
	if m.Arrival == nil || m.Flavor == nil || m.Lifetime == nil {
		return nil, fmt.Errorf("core: cannot marshal a partially initialized model")
	}
	fblob, err := m.Flavor.Net.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshal flavor net: %w", err)
	}
	lblob, err := m.Lifetime.Net.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: marshal lifetime net: %w", err)
	}
	snap := ModelSnapshot{
		FlavorNet:    fblob,
		LifetimeNet:  lblob,
		K:            m.Flavor.K,
		HistoryDays:  m.Flavor.HistoryDays,
		BinEdges:     m.Lifetime.Bins.Edges,
		ArrivalW:     m.Arrival.Reg.W,
		ArrivalB:     m.Arrival.Reg.Intercept,
		ArrivalKind:  int(m.Arrival.Kind),
		ArrivalDOH:   int(m.Arrival.DOH.Mode),
		ArrivalGeomP: m.Arrival.DOH.GeomP,
		ArrivalUsed:  m.Arrival.UseDOH,
		Interp:       int(m.Interp),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: marshal model: %w", err)
	}
	return buf.Bytes(), nil
}

// Snapshot field bounds. A model snapshot may come from an untrusted
// file, so every field that sizes an allocation or indexes a table is
// validated before use (FuzzSnapshotDecode drives arbitrary bytes
// through this path and requires error returns, never panics).
const (
	maxSnapshotK           = 1 << 12
	maxSnapshotHistoryDays = 1 << 12
	maxSnapshotBinCount    = 1 << 10
)

// validate rejects snapshot metadata that would panic or poison the
// decoders downstream (glm.Rate length mismatches, negative make sizes,
// out-of-range enums, non-finite bin edges).
func (snap *ModelSnapshot) validate() error {
	if snap.K <= 0 || snap.K > maxSnapshotK {
		return fmt.Errorf("core: snapshot flavor count %d out of range [1, %d]", snap.K, maxSnapshotK)
	}
	if snap.HistoryDays <= 0 || snap.HistoryDays > maxSnapshotHistoryDays {
		return fmt.Errorf("core: snapshot history days %d out of range [1, %d]", snap.HistoryDays, maxSnapshotHistoryDays)
	}
	if len(snap.BinEdges) < 2 || len(snap.BinEdges) > maxSnapshotBinCount {
		return fmt.Errorf("core: snapshot has %d bin edges, want [2, %d]", len(snap.BinEdges), maxSnapshotBinCount)
	}
	prev := math.Inf(-1)
	for i, e := range snap.BinEdges {
		if math.IsNaN(e) || math.IsInf(e, 0) || e <= prev {
			return fmt.Errorf("core: snapshot bin edges not finite and strictly increasing at %d", i)
		}
		prev = e
	}
	if k := ArrivalKind(snap.ArrivalKind); k != BatchArrivals && k != VMArrivals {
		return fmt.Errorf("core: snapshot arrival kind %d unknown", snap.ArrivalKind)
	}
	if mo := features.DOHMode(snap.ArrivalDOH); mo != features.DOHLastDay && mo != features.DOHGeometric {
		return fmt.Errorf("core: snapshot DOH mode %d unknown", snap.ArrivalDOH)
	}
	if it := survival.Interpolation(snap.Interp); it != survival.Stepped && it != survival.CDI {
		return fmt.Errorf("core: snapshot interpolation %d unknown", snap.Interp)
	}
	if math.IsNaN(snap.ArrivalGeomP) || math.IsInf(snap.ArrivalGeomP, 0) {
		return fmt.Errorf("core: snapshot geometric parameter is not finite")
	}
	if math.IsNaN(snap.ArrivalB) || math.IsInf(snap.ArrivalB, 0) {
		return fmt.Errorf("core: snapshot arrival intercept is not finite")
	}
	wantW := 24 + 7
	if snap.ArrivalUsed {
		wantW += snap.HistoryDays
	}
	if len(snap.ArrivalW) != wantW {
		return fmt.Errorf("core: snapshot arrival weights have %d entries, want %d", len(snap.ArrivalW), wantW)
	}
	for i, w := range snap.ArrivalW {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: snapshot arrival weight %d is not finite", i)
		}
	}
	return nil
}

// UnmarshalBinary restores a Model serialized with MarshalBinary. Any
// corrupt or inconsistent snapshot — including one whose embedded
// networks do not match its metadata — yields a wrapped error and
// leaves the receiver untouched; it never panics.
func (m *Model) UnmarshalBinary(data []byte) error {
	var snap ModelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("core: unmarshal model: %w", err)
	}
	if err := snap.validate(); err != nil {
		return err
	}
	var fnet, lnet nn.LSTM
	if err := fnet.UnmarshalBinary(snap.FlavorNet); err != nil {
		return fmt.Errorf("core: unmarshal flavor net: %w", err)
	}
	if err := lnet.UnmarshalBinary(snap.LifetimeNet); err != nil {
		return fmt.Errorf("core: unmarshal lifetime net: %w", err)
	}
	bins := survival.Bins{Edges: snap.BinEdges}
	temporal := features.Temporal{HistoryDays: snap.HistoryDays}
	lifeFeat := features.LifetimeFeatures{Bins: bins.J()}
	// Cross-check the decoded networks against the snapshot metadata:
	// a mismatched pair would panic at the first generation step.
	if got, want := fnet.Cfg.OutputDim, snap.K+1; got != want {
		return fmt.Errorf("core: snapshot flavor net emits %d classes, metadata implies %d", got, want)
	}
	if got, want := fnet.Cfg.InputDim, flavorInputDim(snap.K, temporal); got != want {
		return fmt.Errorf("core: snapshot flavor net consumes %d features, metadata implies %d", got, want)
	}
	if got, want := lnet.Cfg.OutputDim, bins.J(); got != want {
		return fmt.Errorf("core: snapshot lifetime net emits %d bins, metadata implies %d", got, want)
	}
	if got, want := lnet.Cfg.InputDim, lifetimeInputDim(snap.K, temporal, lifeFeat); got != want {
		return fmt.Errorf("core: snapshot lifetime net consumes %d features, metadata implies %d", got, want)
	}
	m.Flavor = &FlavorModel{
		Net: &fnet, K: snap.K, Temporal: temporal, HistoryDays: snap.HistoryDays,
	}
	m.Lifetime = &LifetimeModel{
		Net: &lnet, Bins: bins, K: snap.K, Temporal: temporal,
		LifeFeat:    lifeFeat,
		HistoryDays: snap.HistoryDays,
	}
	m.Arrival = &ArrivalModel{
		Reg:         &glm.PoissonRegression{W: snap.ArrivalW, Intercept: snap.ArrivalB},
		Kind:        ArrivalKind(snap.ArrivalKind),
		UseDOH:      snap.ArrivalUsed,
		HistoryDays: snap.HistoryDays,
		DOH: features.DOHSampler{
			Mode:        features.DOHMode(snap.ArrivalDOH),
			HistoryDays: snap.HistoryDays,
			GeomP:       snap.ArrivalGeomP,
		},
	}
	m.Interp = survival.Interpolation(snap.Interp)
	return nil
}

package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/rng"
)

// paramBlob is one named weight tensor on the snapshot wire format.
// Params are encoded as a slice in construction order, not a map: gob
// walks maps in Go's randomized iteration order, which would make two
// snapshots of identical weights differ byte for byte and break the
// repository-wide byte-identical-output determinism contract.
type paramBlob struct {
	Name   string
	Values []float64
}

// MarshalBinary serializes the network configuration and weights: the
// gob of Cfg, then of the params in construction order.
func (n *LSTM) MarshalBinary() ([]byte, error) {
	blobs := make([]paramBlob, 0, len(n.params))
	for _, p := range n.params {
		vals := make([]float64, len(p.Value.Data))
		copy(vals, p.Value.Data)
		blobs = append(blobs, paramBlob{Name: p.Name, Values: vals})
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(n.Cfg); err != nil {
		return nil, fmt.Errorf("nn: marshal config: %w", err)
	}
	if err := enc.Encode(blobs); err != nil {
		return nil, fmt.Errorf("nn: marshal values: %w", err)
	}
	return buf.Bytes(), nil
}

// Snapshot decode bounds. Snapshots come from disk (checkpoints, model
// files) and may be corrupt or hostile; every dimension is validated
// BEFORE any allocation is sized from it, so arbitrary input yields an
// error, never a panic or an absurd allocation (the FuzzSnapshotDecode
// target enforces this).
const (
	// maxSnapshotDim caps any single config dimension.
	maxSnapshotDim = 1 << 15
	// maxSnapshotParams caps the total scalar parameters a snapshot may
	// ask to restore (64M float64s = 512 MiB).
	maxSnapshotParams = 1 << 26
)

// checkLSTMConfig validates a decoded LSTM config against the snapshot
// bounds: validate() rejects non-positive dims, the caps reject
// dimensions large enough to make construction itself a DoS.
func checkLSTMConfig(c Config) error {
	if err := c.validate(); err != nil {
		return err
	}
	if c.InputDim > maxSnapshotDim || c.HiddenDim > maxSnapshotDim ||
		c.Layers > maxSnapshotDim || c.OutputDim > maxSnapshotDim {
		return fmt.Errorf("nn: snapshot config dimensions exceed limit %d: %+v", maxSnapshotDim, c)
	}
	// Parameter-count bound.
	in, h, od := int64(c.InputDim), int64(c.HiddenDim), int64(c.OutputDim)
	total := (in+h)*4*h + 4*h // layer 0
	total += int64(c.Layers-1) * (2*h*4*h + 4*h)
	total += h*od + od
	if total > maxSnapshotParams {
		return fmt.Errorf("nn: snapshot config implies %d params, limit %d", total, maxSnapshotParams)
	}
	return nil
}

// UnmarshalBinary restores a network previously serialized with
// MarshalBinary; the receiver's architecture is replaced. The config is
// validated with checkLSTMConfig before anything is sized from it, every
// weight must be finite (−∞ is allowed in the head bias only), and a
// failed decode leaves the receiver untouched.
func (n *LSTM) UnmarshalBinary(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("nn: unmarshal config: %w", err)
	}
	if err := checkLSTMConfig(cfg); err != nil {
		return fmt.Errorf("nn: unmarshal: %w", err)
	}
	var blobs []paramBlob
	if err := dec.Decode(&blobs); err != nil {
		return fmt.Errorf("nn: unmarshal values: %w", err)
	}
	values := make(map[string][]float64, len(blobs))
	for _, b := range blobs {
		values[b.Name] = b.Values
	}
	fresh := NewLSTM(cfg, rng.New(0)) // init values are overwritten
	for _, p := range fresh.params {
		vals, ok := values[p.Name]
		if !ok {
			return fmt.Errorf("nn: unmarshal: missing param %q", p.Name)
		}
		if len(vals) != len(p.Value.Data) {
			return fmt.Errorf("nn: unmarshal: param %q has %d values, want %d", p.Name, len(vals), len(p.Value.Data))
		}
		for i, v := range vals { // −∞ in the head bias forbids an output (a what-if)
			if math.IsNaN(v) || math.IsInf(v, 1) || (math.IsInf(v, -1) && p != fresh.by) {
				return fmt.Errorf("nn: unmarshal: param %q value %d is %v", p.Name, i, v)
			}
		}
		copy(p.Value.Data, vals)
	}
	*n = *fresh
	return nil
}

// optStateWire is the optimizer-state snapshot wire format: the Adam
// step counter (which drives bias correction, so it must survive a
// resume bit-exactly) plus per-param first/second moment tensors in
// construction order (a slice, not a map, for the same determinism
// reason as paramBlob).
type optStateWire struct {
	Steps   int
	Moments []momentBlob
}

type momentBlob struct {
	Name string
	M    []float64
	V    []float64
}

// MarshalOptState serializes the Adam optimizer state (step counter and
// the per-param moment estimates) so a resumed run continues the exact
// update trajectory of an uninterrupted one.
func MarshalOptState(opt *Adam, params []*Param) ([]byte, error) {
	w := optStateWire{Steps: opt.t, Moments: make([]momentBlob, 0, len(params))}
	for _, p := range params {
		m := make([]float64, len(p.m.Data))
		copy(m, p.m.Data)
		v := make([]float64, len(p.v.Data))
		copy(v, p.v.Data)
		w.Moments = append(w.Moments, momentBlob{Name: p.Name, M: m, V: v})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("nn: marshal opt state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalOptState restores optimizer state saved by MarshalOptState
// into opt and the given params (matched by name; lengths must agree
// with the params' shapes). Corrupt input yields an error, never a
// panic.
func UnmarshalOptState(data []byte, opt *Adam, params []*Param) error {
	var w optStateWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("nn: unmarshal opt state: %w", err)
	}
	if w.Steps < 0 {
		return fmt.Errorf("nn: unmarshal opt state: negative step counter %d", w.Steps)
	}
	moments := make(map[string]momentBlob, len(w.Moments))
	for _, b := range w.Moments {
		moments[b.Name] = b
	}
	for _, p := range params {
		b, ok := moments[p.Name]
		if !ok {
			return fmt.Errorf("nn: unmarshal opt state: missing moments for param %q", p.Name)
		}
		if len(b.M) != len(p.m.Data) || len(b.V) != len(p.v.Data) {
			return fmt.Errorf("nn: unmarshal opt state: param %q moment sizes %d/%d, want %d/%d",
				p.Name, len(b.M), len(b.V), len(p.m.Data), len(p.v.Data))
		}
	}
	// Validate-then-mutate: nothing above touched opt or params, so a
	// corrupt snapshot leaves the optimizer untouched.
	opt.t = w.Steps
	for _, p := range params {
		b := moments[p.Name]
		copy(p.m.Data, b.M)
		copy(p.v.Data, b.V)
	}
	return nil
}

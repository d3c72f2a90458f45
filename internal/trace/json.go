package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonTrace is the self-describing JSON wire format: unlike the CSV
// form, it carries the flavor catalog and window length, so a trace can
// be reconstructed without out-of-band metadata.
type jsonTrace struct {
	Version int         `json:"version"`
	Periods int         `json:"periods"`
	Flavors []FlavorDef `json:"flavors"`
	VMs     []jsonVM    `json:"vms"`
}

// jsonVM is one VM of the wire format. ReadJSON decodes it; WriteJSON
// appends the same keys in the same order by hand.
type jsonVM struct {
	ID       int     `json:"id"`
	User     int     `json:"user"`
	Flavor   int     `json:"flavor"`
	Start    int     `json:"start"`
	Duration float64 `json:"duration_s"`
	Censored bool    `json:"censored,omitempty"`
}

const jsonVersion = 1

// ReadJSON parses a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: read json: %w", err)
	}
	if jt.Version != jsonVersion {
		return nil, fmt.Errorf("trace: unsupported json version %d", jt.Version)
	}
	t := &Trace{
		Flavors: &FlavorSet{Defs: jt.Flavors},
		Periods: jt.Periods,
	}
	for _, vm := range jt.VMs {
		t.VMs = append(t.VMs, VM{
			ID: vm.ID, User: vm.User, Flavor: vm.Flavor,
			Start: vm.Start, Duration: vm.Duration, Censored: vm.Censored,
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

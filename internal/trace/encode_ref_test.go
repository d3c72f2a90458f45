package trace

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// refCSV and refJSON are the encoders WriteCSV and WriteJSON replaced,
// kept verbatim on encoding/csv and encoding/json: the appenders must
// produce their bytes and fail where they fail (FuzzTraceEncoders).

func refCSV(t *Trace, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "user", "flavor", "start_period", "duration_s", "censored"}); err != nil {
		return err
	}
	for _, vm := range t.VMs {
		rec := []string{
			strconv.Itoa(vm.ID),
			strconv.Itoa(vm.User),
			strconv.Itoa(vm.Flavor),
			strconv.Itoa(vm.Start),
			strconv.FormatFloat(vm.Duration, 'g', -1, 64),
			strconv.FormatBool(vm.Censored),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func refJSON(t *Trace, w io.Writer) error {
	jt := jsonTrace{
		Version: jsonVersion,
		Periods: t.Periods,
		Flavors: t.Flavors.Defs,
		VMs:     make([]jsonVM, len(t.VMs)),
	}
	for i, vm := range t.VMs {
		jt.VMs[i] = jsonVM{
			ID: vm.ID, User: vm.User, Flavor: vm.Flavor,
			Start: vm.Start, Duration: vm.Duration, Censored: vm.Censored,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jt)
}

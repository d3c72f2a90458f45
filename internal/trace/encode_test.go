package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/mat"
)

// encoders pairs each trace writer with the encoding/csv or
// encoding/json encoder it replaced.
var encoders = []struct {
	name       string
	write, ref func(*Trace, io.Writer) error
}{
	{"csv", (*Trace).WriteCSV, refCSV},
	{"json", (*Trace).WriteJSON, refJSON},
}

// dayFlavors is a 16-flavor catalog shaped like the Azure-like one the
// day trace was decoded under.
func dayFlavors() *FlavorSet {
	fs := &FlavorSet{}
	for _, cpu := range []float64{1, 2, 4, 8} {
		for _, ratio := range []float64{1.75, 3.5, 7, 14} {
			fs.Defs = append(fs.Defs, FlavorDef{Name: fmt.Sprintf("A%gr%g", cpu, ratio), CPU: cpu, MemGB: cpu * ratio})
		}
	}
	return fs
}

// dayTrace returns the first n VMs of testdata/day.csv: one day (2 028
// VMs) decoded by a trained model, written by
//
//	go run ./cmd/tracegen -cloud mixed -days 9 -gen-days 1 -epochs 10 -seed 1 -scale 0.67
func dayTrace(tb testing.TB, n int) *Trace {
	tb.Helper()
	f, err := os.Open("testdata/day.csv")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	tr, err := ReadCSV(f, dayFlavors(), PeriodsPerDay)
	if err != nil {
		tb.Fatal(err)
	}
	if n > len(tr.VMs) {
		tb.Fatalf("day trace has %d VMs, want %d", len(tr.VMs), n)
	}
	tr.VMs = tr.VMs[:n]
	return tr
}

// vmRecord is the size of one VM in FuzzTraceEncoders' input: ID,
// User, Flavor and Start as little-endian int64, the duration's float64
// bits, and a byte whose low bit is Censored.
const vmRecord = 5*8 + 1

func packVMs(vms []VM) []byte {
	b := make([]byte, 0, len(vms)*vmRecord)
	for _, vm := range vms {
		for _, v := range []int{vm.ID, vm.User, vm.Flavor, vm.Start} {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vm.Duration))
		if vm.Censored {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// unpackVMs decodes packVMs' layout, dropping a trailing partial record.
func unpackVMs(b []byte) []VM {
	vms := make([]VM, len(b)/vmRecord)
	for i := range vms {
		r := b[i*vmRecord:]
		field := func(k int) uint64 { return binary.LittleEndian.Uint64(r[8*k:]) }
		vms[i] = VM{
			ID: int(field(0)), User: int(field(1)), Flavor: int(field(2)), Start: int(field(3)),
			Duration: math.Float64frombits(field(4)), Censored: r[40]&1 == 1,
		}
	}
	return vms
}

// FuzzTraceEncoders holds WriteCSV and WriteJSON to the bytes and the
// failures of the encoding/csv and encoding/json encoders they replaced,
// over arbitrary VM fields (no Validate: the writers encode what they
// are given) and an arbitrary flavor name. With inDay the fuzzed VMs are
// spliced into the decoded day at index at, so they meet the chunk
// boundaries of a full-size trace while the fuzz input stays small.
func FuzzTraceEncoders(f *testing.F) {
	day := dayTrace(f, 2028).VMs
	f.Add([]byte{}, "A1r1.75", true, uint16(0)) // the decoded day itself
	for _, d := range []float64{
		0, math.Copysign(0, -1), 5e-324, 9.99e-7, 1e-6, 9.99e20, 1e21, math.MaxFloat64,
		-2.5e-7, -1e22, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(packVMs([]VM{
			{ID: 0, User: 1, Flavor: 0, Start: 2, Duration: d},
			{ID: math.MinInt64, User: math.MaxInt64, Flavor: -1, Start: -7, Duration: d, Censored: true},
		}), "small", d == 1e21, uint16(840))
	}
	f.Add(packVMs(sample().VMs), "<a&b>\u2028\xff\"\\", false, uint16(0))
	f.Add([]byte{}, "", false, uint16(0))
	f.Fuzz(func(t *testing.T, packed []byte, name string, inDay bool, at uint16) {
		vms := unpackVMs(packed)
		if inDay {
			k := int(at) % (len(day) + 1)
			vms = append(append(append([]VM(nil), day[:k]...), vms...), day[k:]...)
		}
		tr := &Trace{
			Flavors: &FlavorSet{Defs: []FlavorDef{{Name: name, CPU: 1, MemGB: 2}, {Name: "large", CPU: 4, MemGB: 16}}},
			Periods: PeriodsPerDay,
			VMs:     vms,
		}
		for _, enc := range encoders {
			var got, want bytes.Buffer
			gotErr, wantErr := enc.write(tr, &got), enc.ref(tr, &want)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, reference error %v", enc.name, gotErr, wantErr)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: bytes differ from the reference\n got %q\nwant %q", enc.name, got.Bytes(), want.Bytes())
			}
		}
	})
}

// TestTraceEncodersAllocs pins that no allocation is per VM: each
// writer allocates as often for 10 VMs as for 2 000.
func TestTraceEncodersAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("encoding/json's sync.Pool drops items at random under the race detector")
	}
	small, large := dayTrace(t, 10), dayTrace(t, 2000)
	for _, enc := range encoders {
		few := testing.AllocsPerRun(20, func() { _ = enc.write(small, io.Discard) })
		many := testing.AllocsPerRun(20, func() { _ = enc.write(large, io.Discard) })
		if few != many {
			t.Errorf("%s: %v allocs at 10 VMs, %v at 2000: an allocation is per VM", enc.name, few, many)
		}
	}
}

var errBroken = errors.New("broken pipe")

// brokenWriter accepts limit bytes, then fails the write that crosses
// the limit and every later one, counting those it is offered after the
// first failure.
type brokenWriter struct {
	limit  int
	got    []byte
	failed bool
	late   int
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.late++
		return 0, errBroken
	}
	n := min(len(p), w.limit-len(w.got))
	w.got = append(w.got, p[:n]...)
	if n < len(p) {
		w.failed = true
		return n, errBroken
	}
	return n, nil
}

// TestEncodersStopAtFirstWriteError breaks the writer in the first
// chunk and in a later one: each writer must return that error, offer
// nothing after it, and have written a prefix of its document.
func TestEncodersStopAtFirstWriteError(t *testing.T) {
	tr := dayTrace(t, 2000)
	for _, enc := range encoders {
		var full bytes.Buffer
		if err := enc.ref(tr, &full); err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 100, chunkSize + 1000} {
			w := &brokenWriter{limit: limit}
			if err := enc.write(tr, w); !errors.Is(err, errBroken) {
				t.Errorf("%s, limit %d: error %v, want %v", enc.name, limit, err, errBroken)
			}
			if w.late != 0 {
				t.Errorf("%s, limit %d: %d writes after the failing one", enc.name, limit, w.late)
			}
			if !bytes.HasPrefix(full.Bytes(), w.got) {
				t.Errorf("%s, limit %d: the %d bytes written are not a prefix of the document", enc.name, limit, len(w.got))
			}
		}
	}
}

func BenchmarkWriteCSV(b *testing.B)  { benchmarkWrite(b, (*Trace).WriteCSV) }
func BenchmarkWriteJSON(b *testing.B) { benchmarkWrite(b, (*Trace).WriteJSON) }

// benchmarkWrite encodes a 2 000-VM decoded day into io.Discard.
func benchmarkWrite(b *testing.B, write func(*Trace, io.Writer) error) {
	tr := dayTrace(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(tr, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

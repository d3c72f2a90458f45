package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// chunkSize is the encoders' one buffer: while a trace is written, it
// is held in memory once, decoded, plus one chunk of its encoding.
const chunkSize = 32 << 10

// maxRow bounds one encoded VM in either format. The JSON form is the
// longer: at most 170 bytes, four 20-byte integers, a 25-byte duration
// and 65 bytes of keys and punctuation.
const maxRow = 192

// chunkWriter appends an encoding into one fixed chunk and writes the
// chunk out each time it fills. After the first write error it writes
// nothing more and keeps that error.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newChunkWriter(w io.Writer) chunkWriter {
	return chunkWriter{w: w, buf: make([]byte, 0, chunkSize)}
}

// flush writes the chunk out, unless a write has already failed, and
// returns the first write error.
func (c *chunkWriter) flush() error {
	if c.err == nil && len(c.buf) > 0 {
		n, err := c.w.Write(c.buf)
		if err == nil && n < len(c.buf) {
			err = io.ErrShortWrite
		}
		c.err = err
	}
	c.buf = c.buf[:0]
	return c.err
}

// room makes room for n more bytes, writing the chunk out if they
// would not fit, and reports whether writing may go on.
func (c *chunkWriter) room(n int) bool {
	if len(c.buf)+n > cap(c.buf) {
		c.flush()
	}
	return c.err == nil
}

// write appends p, which may be longer than a chunk, a chunk at a time.
func (c *chunkWriter) write(p []byte) {
	for len(p) > 0 && c.room(1) {
		n := copy(c.buf[len(c.buf):cap(c.buf)], p)
		c.buf, p = c.buf[:len(c.buf)+n], p[n:]
	}
}

// WriteCSV serializes the trace VMs as CSV with a header row. The bytes
// are encoding/csv's: no field of a row can need quoting.
func (t *Trace) WriteCSV(w io.Writer) error {
	c := newChunkWriter(w)
	c.buf = append(c.buf, "id,user,flavor,start_period,duration_s,censored\n"...)
	for i := range t.VMs {
		if !c.room(maxRow) {
			break
		}
		vm := &t.VMs[i]
		b := strconv.AppendInt(c.buf, int64(vm.ID), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(vm.User), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(vm.Flavor), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(vm.Start), 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, vm.Duration, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendBool(b, vm.Censored)
		c.buf = append(b, '\n')
	}
	return c.flush()
}

// WriteJSON serializes the trace (catalog included) as JSON: the bytes
// json.Encoder writes for a jsonTrace, VMs appended by hand in jsonVM's
// key order. A non-finite duration, which JSON cannot hold, fails the
// call before any byte is written.
func (t *Trace) WriteJSON(w io.Writer) error {
	flavors, err := json.Marshal(&t.Flavors.Defs) // a pointer boxes without an allocation
	if err != nil {
		return fmt.Errorf("trace: write json: %w", err)
	}
	for i := range t.VMs {
		if d := t.VMs[i].Duration; math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("trace: write json: VM %d has non-finite duration %v", i, d)
		}
	}
	c := newChunkWriter(w)
	c.buf = append(c.buf, `{"version":`...)
	c.buf = strconv.AppendInt(c.buf, jsonVersion, 10)
	c.buf = append(c.buf, `,"periods":`...)
	c.buf = strconv.AppendInt(c.buf, int64(t.Periods), 10)
	c.buf = append(c.buf, `,"flavors":`...)
	c.write(flavors)
	c.write([]byte(`,"vms":[`))
	for i := range t.VMs {
		if !c.room(maxRow) {
			break
		}
		vm := &t.VMs[i]
		b := c.buf
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(vm.ID), 10)
		b = append(b, `,"user":`...)
		b = strconv.AppendInt(b, int64(vm.User), 10)
		b = append(b, `,"flavor":`...)
		b = strconv.AppendInt(b, int64(vm.Flavor), 10)
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, int64(vm.Start), 10)
		b = append(b, `,"duration_s":`...)
		b = appendJSONFloat(b, vm.Duration)
		if vm.Censored {
			b = append(b, `,"censored":true`...)
		}
		c.buf = append(b, '}')
	}
	c.write([]byte("]}\n"))
	return c.flush()
}

// appendJSONFloat appends a finite f as encoding/json formats a
// float64: the shortest 'f' form, or 'e' below 1e-6 and from 1e21 on,
// with a two-digit negative exponent cut to one (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

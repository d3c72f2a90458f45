package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/server"
	"repro/internal/trace"
)

// clientConns is the number of keep-alive connections the load
// generator holds: at most one per core of the 2-vCPU reference host,
// so that the client never queues behind itself.
const clientConns = 2

// genOp is one POST /generate.
type genOp struct {
	periods int
	json    bool
	seed    int64
	class   int
	due     time.Duration // open loop: offset from the slice start
}

func (o genOp) body() []byte {
	format := "csv"
	if o.json {
		format = "json"
	}
	return []byte(fmt.Sprintf(`{"periods":%d,"seed":%d,"format":%q}`, o.periods, o.seed, format))
}

// sampled is an operation kept for the oracle check.
type sampled struct {
	op   genOp
	body []byte
}

// httpRig is an in-process server.Server behind a real loopback TCP
// listener, plus the client side.
type httpRig struct {
	fx     *fixture
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	client *http.Client
	tracer *rtrace.Tracer
	f32    core.F32Report

	mu      sync.Mutex
	joins   []spanJoin
	samples []sampled
	nextOp  int
}

// spanJoin remembers which harness span a server-side trace belongs to.
type spanJoin struct {
	spanID, op int
	traceID    string
}

// startRig publishes the fixture model in a server at cmd/traced's
// defaults (batched engine, 2 ms window, max batch 64, fidelity monitor
// off) and the given precision, and opens the listener.
func startRig(fx *fixture, precision core.Precision, traced bool, sl *spanLog) (*httpRig, error) {
	r := &httpRig{fx: fx, served: make(chan struct{})}
	if precision == core.PrecisionF32 {
		var err error
		sl.time("core.ValidateF32", -1, -1, func() { r.f32, err = fx.model.ValidateF32() })
		if err != nil {
			return nil, err
		}
	}
	r.srv = server.New(fx.model, fx.cfg.Flavors)
	r.srv.Precision = string(precision)
	if traced {
		// Large enough to hold every request of a traced pass.
		r.tracer = rtrace.NewTracer(1 << 15)
		r.srv.Tracer = r.tracer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.url = "http://" + ln.Addr().String() + "/generate"
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns ErrServerClosed on close()
	}()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}
	return r, nil
}

func (r *httpRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // on timeout the listener is closed anyway
	<-r.served
	r.client.CloseIdleConnections()
	r.srv.Close()
}

var csvHeader = []byte("id,user,flavor,start_period,duration_s,censored\n")

// countRows is the cheap in-loop body check: the response must be a
// whole CSV or JSON document of the expected shape, and the number of
// VM rows is counted without parsing them. The sampled operations get
// the full parse in verify.
func countRows(body []byte, json bool) (int, error) {
	if json {
		if !bytes.HasPrefix(body, []byte(`{"version":1,`)) || !bytes.HasSuffix(body, []byte("}\n")) {
			return 0, errors.New("malformed JSON body")
		}
		return bytes.Count(body, []byte(`{"id":`)), nil
	}
	if !bytes.HasPrefix(body, csvHeader) || body[len(body)-1] != '\n' {
		return 0, errors.New("malformed CSV body")
	}
	return bytes.Count(body, []byte{'\n'}) - 1, nil
}

// do issues one request and checks the response. buf is the caller's
// reusable read buffer. keep asks for a copy of the body.
func (r *httpRig) do(op genOp, buf *bytes.Buffer, keep bool) (vms int, traceID string, err error) {
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(op.body()))
	if err != nil {
		return 0, "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	vms, err = countRows(buf.Bytes(), op.json)
	if err != nil {
		return 0, "", err
	}
	if want, _ := strconv.Atoi(resp.Header.Get("X-Trace-VMs")); want != vms {
		return 0, "", fmt.Errorf("X-Trace-VMs %d, body has %d rows", want, vms)
	}
	if keep {
		r.mu.Lock()
		r.samples = append(r.samples, sampled{op: op, body: append([]byte(nil), buf.Bytes()...)})
		r.mu.Unlock()
	}
	return vms, resp.Header.Get("X-Trace-Id"), nil
}

// runOps drives ops through clientConns workers. With open set, each op
// is released at its due time and its latency counts from then;
// otherwise workers take the next op as soon as they are free.
func (r *httpRig) runOps(ops []genOp, open bool, sampleAt int, sl *spanLog, res *sliceResult) {
	r.mu.Lock()
	opBase := r.nextOp
	r.nextOp += len(ops)
	r.mu.Unlock()

	type outcome struct {
		latNS int64
		vms   int
		bytes int
		err   error
	}
	out := make([]outcome, len(ops))
	start := time.Now()
	run := func(j int, buf *bytes.Buffer) {
		t0 := time.Now()
		vms, traceID, err := r.do(ops[j], buf, j == sampleAt)
		t1 := time.Now()
		from := t0
		if open {
			from = start.Add(ops[j].due)
		}
		out[j] = outcome{latNS: t1.Sub(from).Nanoseconds(), vms: vms, bytes: buf.Len(), err: err}
		if sl != nil {
			id := sl.add("client.roundtrip", t0, t1, -1, opBase+j)
			r.mu.Lock()
			r.joins = append(r.joins, spanJoin{spanID: id, op: opBase + j, traceID: traceID})
			r.mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	if open {
		queue := make(chan int, len(ops)) // one send per op: the dispatcher never blocks
		for c := 0; c < clientConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for j := range queue {
					run(j, &buf)
				}
			}()
		}
		for j, op := range ops {
			due := start.Add(op.due)
			time.Sleep(time.Until(due))
			res.lateMS = append(res.lateMS, float64(time.Since(due).Nanoseconds())/1e6)
			queue <- j
		}
		close(queue)
	} else {
		var next atomic.Int64
		for c := 0; c < clientConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					j := int(next.Add(1)) - 1
					if j >= len(ops) {
						return
					}
					run(j, &buf)
				}
			}()
		}
	}
	wg.Wait()

	for j, o := range out {
		res.ops = append(res.ops, opStat{latNS: o.latNS, class: ops[j].class, ok: o.err == nil})
		res.noteErr(o.err)
		res.bytes += int64(o.bytes)
		res.vms += int64(o.vms)
	}
}

// joinServerSpans hangs the server's own request-trace spans (queue,
// coalesce, decode, encode) under the client round trip that caused
// them, matched by X-Trace-Id.
func (r *httpRig) joinServerSpans(sl *spanLog) {
	if sl == nil || r.tracer == nil {
		return
	}
	byID := map[string]rtrace.Finished{}
	for _, f := range r.tracer.Tail(r.tracer.Capacity()) {
		byID[f.ID] = f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, j := range r.joins {
		addFinished(sl, byID[j.traceID], j.spanID, j.op)
	}
}

func (r *httpRig) traceData() traceData {
	return traceData{engineRetries: r.srv.Metrics().Snapshot().Counters["generate.engine_retries"]}
}

// layerSpanName maps the request tracer's phase names to the layer that
// spends the time.
var layerSpanName = map[string]string{
	"queue":    "server.queue",
	"coalesce": "server.coalesce",
	"decode":   "core.decode",
	"encode":   "trace.encode",
}

func addFinished(sl *spanLog, f rtrace.Finished, parent, op int) {
	for _, s := range f.Spans {
		start := f.Start.Add(time.Duration(s.StartNS))
		sl.addSteps(layerSpanName[s.Name], start, start.Add(time.Duration(s.DurNS)), parent, op, s.Steps)
	}
}

// verifySamples re-decodes each sampled request with the serial oracle.
// At f64 the response must be byte-identical; at f32 it must parse and
// validate as a trace (the f32 decoder is checked against f64 at
// publish, within ValidateF32's tolerances).
func (r *httpRig) verifySamples(exact bool) (checked, mismatched int, digest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.samples {
		checked++
		digest = digestBytes(digest, s.body)
		if exact {
			want := oracleBytes(r.fx, s.op.seed, s.op.periods, s.op.json)
			if !bytes.Equal(want, s.body) {
				mismatched++
			}
			continue
		}
		var tr *trace.Trace
		var err error
		if s.op.json {
			tr, err = trace.ReadJSON(bytes.NewReader(s.body))
		} else {
			tr, err = trace.ReadCSV(bytes.NewReader(s.body), r.fx.cfg.Flavors, s.op.periods)
		}
		if err != nil || tr.Validate() != nil {
			mismatched++
		}
	}
	return checked, mismatched, digest
}

// oracleBytes is what the server must answer for (seed, periods,
// format): the serial reference decoder's trace, encoded.
func oracleBytes(fx *fixture, seed int64, periods int, json bool) []byte {
	tr := core.WithCatalog(fx.model.Generate(rng.New(seed), fx.window(periods)), fx.cfg.Flavors)
	var buf bytes.Buffer
	if json {
		_ = tr.WriteJSON(&buf) // bytes.Buffer writes cannot fail
	} else {
		_ = tr.WriteCSV(&buf)
	}
	return buf.Bytes()
}

// ---- serve_day ----

type serveDay struct {
	seed          int64
	traced, quick bool
	rig           *httpRig
}

func newServeDay(seed int64, traced, quick bool) *serveDay {
	return &serveDay{seed: seed, traced: traced, quick: quick}
}

// serveDayOps is the slice length: 8 one-day requests, about 0.2 s on
// the reference host. Slices are short so that the host is probed often.
const serveDayOps = 8

func (w *serveDay) ops(i, n int) []genOp {
	periods := trace.PeriodsPerDay
	if w.quick {
		periods = 24
	}
	ops := make([]genOp, n)
	for j := range ops {
		ops[j] = genOp{periods: periods, seed: opSeed(w.seed, i, j), class: noClass}
	}
	return ops
}

func (w *serveDay) prepare(fx *fixture, sl *spanLog) error {
	var err error
	w.rig, err = startRig(fx, core.PrecisionF64, w.traced, sl)
	if err != nil {
		return err
	}
	var warm sliceResult
	w.rig.runOps(w.ops(-1, 4), false, -1, nil, &warm)
	return nil
}

func (w *serveDay) slice(i int, sl *spanLog, res *sliceResult) {
	n := serveDayOps
	if w.quick {
		n = 2
	}
	w.rig.runOps(w.ops(i, n), false, sampleIndex(w.seed, i, n), sl, res)
}

func (w *serveDay) finish(sl *spanLog) { w.rig.joinServerSpans(sl) }

func (w *serveDay) traceData() traceData { return w.rig.traceData() }

func (w *serveDay) verify() (int, int, uint64) { return w.rig.verifySamples(true) }

func (w *serveDay) close() { w.rig.close() }

// ---- serve_open_mixed ----

type serveOpen struct {
	seed          int64
	traced, quick bool
	rig           *httpRig
	cohorts       []openCohort
}

func newServeOpen(seed int64, traced, quick bool) *serveOpen {
	return &serveOpen{seed: seed, traced: traced, quick: quick}
}

func (w *serveOpen) prepare(fx *fixture, sl *spanLog) error {
	var err error
	if w.cohorts, err = openCohorts(fx.spec); err != nil {
		return err
	}
	if w.rig, err = startRig(fx, core.PrecisionF32, w.traced, sl); err != nil {
		return err
	}
	var warm sliceResult
	w.rig.runOps(w.ops(-1)[:8], false, -1, nil, &warm)
	return nil
}

func (w *serveOpen) ops(i int) []genOp {
	ops := openSlice(w.seed, i, w.cohorts)
	if w.quick {
		ops = ops[:5]
	}
	return ops
}

func (w *serveOpen) slice(i int, sl *spanLog, res *sliceResult) {
	ops := w.ops(i)
	w.rig.runOps(ops, true, sampleIndex(w.seed, i, len(ops)), sl, res)
}

func (w *serveOpen) finish(sl *spanLog) { w.rig.joinServerSpans(sl) }

func (w *serveOpen) traceData() traceData { return w.rig.traceData() }

func (w *serveOpen) verify() (int, int, uint64) { return w.rig.verifySamples(false) }

func (w *serveOpen) close() { w.rig.close() }

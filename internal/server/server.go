// Package server exposes a trained generative model as an HTTP service:
// downstream systems (scheduler test rigs, capacity dashboards) request
// synthetic traces on demand instead of shipping model files around.
//
//	GET  /healthz             -> {"status":"ok", ...}
//	GET  /model               -> model metadata
//	GET  /metrics             -> JSON metrics snapshot (per-endpoint
//	                             counters + latency histograms, parallel
//	                             layer stats, training-run metadata)
//	POST /generate            -> trace (CSV or JSON), body: GenerateRequest
//
// Every endpoint runs behind instrumentation middleware that records a
// request counter, an error counter (status >= 400), an in-flight
// gauge, and a latency histogram into the server's obs.Registry (metric
// names in DESIGN.md §7).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// GenerateRequest is the POST /generate body.
type GenerateRequest struct {
	// Periods is the number of 5-minute periods to generate (required,
	// bounded by MaxPeriods).
	Periods int `json:"periods"`
	// StartPeriod is the absolute period index the window starts at
	// (temporal-feature phase); defaults to the end of the model's
	// training history.
	StartPeriod int `json:"start_period"`
	// Seed selects the sampling stream; 0 draws a fresh seed.
	Seed int64 `json:"seed"`
	// Scale multiplies the arrival rate (the 10x knob); 0 means 1.
	Scale float64 `json:"scale"`
	// Format is "csv" (default) or "json".
	Format string `json:"format"`
}

// Server wraps a trained model with HTTP handlers. It is safe for
// concurrent use: the model weights are read-only after construction
// and concurrent /generate requests are coalesced into shared decode
// batches by a core.GenEngine (a continuous-batching scheduler per core
// behind a least-loaded router, DESIGN.md §6.2); per-request seeded
// RNGs keep every response byte-identical to the one-stream decode
// (core.Model.Generate) of that seed.
//
// The serving snapshot (model + catalog + engine) can be hot-swapped at
// runtime via Reload (wired to POST /-/reload and SIGHUP by cmd/traced)
// without dropping in-flight /generate batches: streams already decoding
// on the old engine run to completion, and requests that were still
// queued transparently retry on the new engine — same seed, so the
// response bytes are unchanged.
type Server struct {
	// MaxPeriods bounds a single request (default: 4 weeks).
	MaxPeriods int
	// MaxScale bounds the request arrival-rate multiplier (default 1e6):
	// an unbounded scale would turn one request body into an effectively
	// unbounded decode loop.
	MaxScale float64
	// MaxStartPeriod bounds the request start period (default: 1000
	// years of periods), keeping temporal-feature arithmetic far from
	// integer overflow on hostile input.
	MaxStartPeriod int
	// MaxBodyBytes bounds the /generate request body (default 1 MiB).
	MaxBodyBytes int64
	// ReloadFunc, if set, is invoked by POST /-/reload to produce a new
	// serving snapshot; on success the server swaps to it atomically.
	ReloadFunc func() (*core.Model, *trace.FlavorSet, error)
	// Precision selects the decode numeric width ("" or "f64": bit-exact
	// reference; "f32": the float32 fast path, DESIGN.md §6.4). Set
	// before the first request; it survives hot reloads — engines
	// rebuilt on Reload keep it.
	Precision string
	// TrainInfo optionally carries training-run metadata (cloud, epochs,
	// seed, wall time, journal path) surfaced under "train" at /metrics.
	TrainInfo map[string]any
	// Workload optionally carries the declarative workload-spec summary
	// the server was configured from (cmd/traced -cloud),
	// surfaced under "workload" at /metrics. Like TrainInfo it is
	// read-only after startup and survives hot reloads: a reload swaps
	// the model, not the scenario that trained it.
	Workload map[string]any
	// OnTrace, when set (before the first request), observes every
	// successfully served /generate trace together with the request
	// parameters that produced it — the trace record/replay hook
	// (cmd/traced -record wires it to a workload.Recorder). It runs on
	// the request goroutine after generation and must not mutate tr.
	OnTrace func(seed int64, w trace.Window, scale float64, tr *trace.Trace)
	// Tracer, when set (before the first request), threads a request
	// trace through every /generate: the response carries an X-Trace-Id
	// header, the engine records queue/coalesce/decode spans, the
	// handler adds the encode span, and the finished trace lands in the
	// tracer's ring (served by GET /debug/traces) and in the
	// generate.phase.* histograms. nil disables tracing: no IDs, no
	// spans, and a zero-alloc hot path (DESIGN.md §7).
	Tracer *rtrace.Tracer

	// reloading is raised for the duration of a hot reload, flipping
	// GET /readyz to 503 while the snapshot swap is in progress.
	reloading atomic.Bool

	mu      sync.Mutex
	model   *core.Model
	catalog *trace.FlavorSet
	eng     core.GenEngine
	seeds   *rng.RNG // fresh-seed source for requests without a seed

	started time.Time
	served  int64

	reg       *obs.Registry
	inflight  *obs.Gauge
	cancelled *obs.Counter   // requests abandoned via context cancellation
	reloads   *obs.Counter   // successful hot reloads
	reloadErr *obs.Counter   // failed reload attempts
	retried   *obs.Counter   // generates replayed onto a fresh engine
	writeErr  *obs.Counter   // generates whose body failed mid-encode
	sampleLat *obs.Histogram // model sampling phase of /generate
	encodeLat *obs.Histogram // serialization phase of /generate

	// Phase-level latency breakdown, fed from finished request traces
	// (populated only while a Tracer is attached).
	queueLat    *obs.Histogram // admission-queue wait
	coalesceLat *obs.Histogram // admission to first stepped round
	decodeLat   *obs.Histogram // fleet decode rounds
}

// New builds a server around a trained model and its flavor catalog.
func New(model *core.Model, catalog *trace.FlavorSet) *Server {
	return NewWithRegistry(model, catalog, obs.NewRegistry())
}

// NewWithRegistry builds a server publishing its metrics into an
// existing registry, so callers (cmd/traced) can surface training and
// checkpoint telemetry through the same /metrics snapshot.
func NewWithRegistry(model *core.Model, catalog *trace.FlavorSet, reg *obs.Registry) *Server {
	return &Server{
		model:          model,
		catalog:        catalog,
		MaxPeriods:     28 * trace.PeriodsPerDay,
		MaxScale:       1e6,
		MaxStartPeriod: 1000 * 365 * trace.PeriodsPerDay,
		MaxBodyBytes:   1 << 20,
		seeds:          rng.New(time.Now().UnixNano()),
		started:        time.Now(),
		reg:            reg,
		inflight:       reg.Gauge("http.inflight"),
		cancelled:      reg.Counter("http.cancelled"),
		reloads:        reg.Counter("reload.success"),
		reloadErr:      reg.Counter("reload.errors"),
		retried:        reg.Counter("generate.engine_retries"),
		writeErr:       reg.Counter("generate.write_errors"),
		sampleLat:      reg.Histogram("generate.sample.seconds", obs.LatencyBuckets),
		encodeLat:      reg.Histogram("generate.encode.seconds", obs.LatencyBuckets),
		queueLat:       reg.Histogram("generate.phase.queue.seconds", obs.LatencyBuckets),
		coalesceLat:    reg.Histogram("generate.phase.coalesce.seconds", obs.LatencyBuckets),
		decodeLat:      reg.Histogram("generate.phase.decode.seconds", obs.LatencyBuckets),
	}
}

// Metrics exposes the server's registry (for expvar publication and
// tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// snapshot returns a consistent (model, catalog, engine) triple, lazily
// building the configured decode engine for the current model on first
// use (so Precision can be set after New). The same spec is used for
// engines rebuilt on hot-reload, so the configuration survives Reload;
// a bad Precision, or a model whose arrival rate overflows at MaxScale,
// surfaces here as an error rather than at construction. The engine
// runs one decode shard per internal/par worker
// (core.EngineSpec.ShardCount): a scheduling choice that changes no
// response byte, so it is no knob of the server.
func (s *Server) snapshot() (*core.Model, *trace.FlavorSet, core.GenEngine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.model == nil {
		return nil, nil, nil, errors.New("no model published")
	}
	if s.eng == nil {
		if err := s.model.Arrival.CheckScale(s.MaxScale); err != nil {
			return nil, nil, nil, err
		}
		eng, err := core.NewGenEngine(s.model, core.EngineSpec{Obs: s.reg, Precision: core.Precision(s.Precision)})
		if err != nil {
			return nil, nil, nil, err
		}
		s.eng = eng
	}
	return s.model, s.catalog, s.eng, nil
}

// CheckCatalog reports an error, naming both sizes, unless catalog
// lists exactly the flavors model samples. A trace's flavor indices
// run over [0, model.Flavor.K) and a served body labels each VM by its
// catalog entry, so a catalog of another size serves bodies that
// mislabel every VM or that trace.ReadJSON rejects.
func CheckCatalog(model *core.Model, catalog *trace.FlavorSet) error {
	if catalog == nil {
		return fmt.Errorf("server: no flavor catalog for a model of %d flavors", model.Flavor.K)
	}
	if catalog.K() != model.Flavor.K {
		return fmt.Errorf("server: the model samples %d flavors but the catalog lists %d", model.Flavor.K, catalog.K())
	}
	return nil
}

// currentModel returns the serving model without starting an engine.
func (s *Server) currentModel() *core.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Reload atomically swaps the serving snapshot. In-flight batches on
// the old engine decode to completion before it shuts down; requests
// still queued there fail with core.ErrEngineClosed and are retried by
// handleGenerate against the new engine with their original seed, so no
// request is dropped and no response changes bytes. A pair that fails
// CheckCatalog, or whose arrival rate overflows at MaxScale
// (core.ArrivalModel.CheckScale), is refused with its error, and the
// current snapshot keeps serving.
func (s *Server) Reload(model *core.Model, catalog *trace.FlavorSet) error {
	if err := CheckCatalog(model, catalog); err != nil {
		return err
	}
	if err := model.Arrival.CheckScale(s.MaxScale); err != nil {
		return err
	}
	// /readyz reports not-ready for the whole swap (including the old
	// engine's drain), so load balancers stop routing to a replica
	// mid-reload.
	s.reloading.Store(true)
	defer s.reloading.Store(false)
	s.mu.Lock()
	old := s.eng
	s.model = model
	s.catalog = catalog
	s.eng = nil // next request starts an engine for the new model
	s.mu.Unlock()
	s.reloads.Inc()
	if old != nil {
		old.Close()
	}
	return nil
}

// Close shuts down the decode engine (if one was started), failing any
// queued requests with core.ErrEngineClosed. Safe to call more than
// once.
func (s *Server) Close() {
	s.mu.Lock()
	eng := s.eng
	s.mu.Unlock()
	if eng != nil {
		eng.Close()
	}
}

// Handler returns the HTTP mux for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReady))
	mux.HandleFunc("GET /model", s.instrument("model", s.handleModel))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.instrument("traces", s.handleTraces))
	mux.HandleFunc("POST /generate", s.instrument("generate", s.handleGenerate))
	mux.HandleFunc("POST /-/reload", s.instrument("reload", s.handleReload))
	return mux
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-route metrics. The metric
// pointers are resolved once at wiring time so the request path only
// pays atomic updates.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.reg.Counter("http.requests." + route)
	errors := s.reg.Counter("http.errors." + route)
	latency := s.reg.Histogram("http.latency_seconds."+route, obs.LatencyBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			latency.Observe(time.Since(start).Seconds())
		}()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		requests.Inc()
		if sw.status >= 400 {
			errors.Inc()
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	served := s.served
	catalog := s.catalog
	s.mu.Unlock()
	flavors := 0
	if catalog != nil {
		flavors = catalog.K()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"uptime":  time.Since(s.started).Round(time.Second).String(),
		"served":  served,
		"flavors": flavors,
	})
}

// handleReady is the readiness probe, distinct from /healthz (which
// answers "is the process up"): ready means "will a /generate land on a
// published snapshot right now". It reports 503 until the first model
// snapshot is published and for the duration of every hot reload.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.reloading.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "not_ready", "reason": "hot reload in progress",
		})
		return
	}
	if s.currentModel() == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "not_ready", "reason": "no model published",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleTraces serves the tail of the request-trace ring as JSON:
// ?n=<count> clips to the newest n finished traces (default all
// buffered). With no Tracer attached it reports enabled=false rather
// than 404, so probes can distinguish "off" from "wrong URL".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}
	if s.Tracer == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled": false, "count": 0, "traces": []rtrace.Finished{},
		})
		return
	}
	traces := s.Tracer.Tail(n)
	if traces == nil {
		traces = []rtrace.Finished{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  true,
		"count":    s.Tracer.Count(),
		"capacity": s.Tracer.Capacity(),
		"traces":   traces,
	})
}

// Kernels names the kernel tier this process decodes on, as GET /model
// and the startup log report it: "avx2" (the amd64 assembly kernels) or
// "portable" (pure Go: REPRO_NOASM is set, or the CPU lacks AVX2+FMA).
// The bytes served are the same on both.
func Kernels() string {
	if mat.Portable() {
		return "portable"
	}
	return "avx2"
}

func (s *Server) modelMeta() map[string]any {
	m := s.currentModel()
	if m == nil {
		return map[string]any{"status": "no model published"}
	}
	precision := s.Precision
	if precision == "" {
		precision = string(core.PrecisionF64)
	}
	return map[string]any{
		"flavors":        m.Flavor.K,
		"history_days":   m.Flavor.HistoryDays,
		"lifetime_bins":  m.Lifetime.Bins.J(),
		"flavor_params":  m.Flavor.Net.NumParams(),
		"hazard_params":  m.Lifetime.Net.NumParams(),
		"max_periods":    s.MaxPeriods,
		"period_seconds": trace.PeriodSeconds,
		"precision":      precision,
		"kernels":        Kernels(),
	}
}

// handleReload hot-swaps the serving snapshot via ReloadFunc. A failed
// ReloadFunc or a snapshot Reload refuses leaves the current snapshot
// serving untouched and counts in reload.errors.
func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if s.ReloadFunc == nil {
		httpError(w, http.StatusNotImplemented, "no reload source configured")
		return
	}
	model, catalog, err := s.ReloadFunc()
	if err == nil {
		err = s.Reload(model, catalog)
	}
	if err != nil {
		s.reloadErr.Inc()
		httpError(w, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "reloaded",
		"flavors": model.Flavor.K,
	})
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.modelMeta())
}

// handleMetrics serves the JSON observability snapshot: the HTTP and
// generation metrics, the parallel-layer counters, the runtime memory
// statistics, and the model / training-run metadata.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	served := s.served
	s.mu.Unlock()
	payload := map[string]any{
		"uptime_s": time.Since(s.started).Seconds(),
		"served":   served,
		"metrics":  s.reg.Snapshot(),
		"par":      par.Snapshot(),
		"mem":      obs.ReadMemStats(),
		"model":    s.modelMeta(),
		"train":    s.TrainInfo,
	}
	if s.Workload != nil {
		payload["workload"] = s.Workload
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	body := http.MaxBytesReader(w, r.Body, s.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Periods <= 0 {
		httpError(w, http.StatusBadRequest, "periods must be positive")
		return
	}
	if req.Periods > s.MaxPeriods {
		httpError(w, http.StatusBadRequest, "periods %d exceeds limit %d", req.Periods, s.MaxPeriods)
		return
	}
	// The scale knob multiplies the Poisson arrival rate: negative is
	// meaningless, NaN would poison the sampler, and an enormous value
	// would turn one request into an unbounded decode loop.
	if req.Scale < 0 || req.Scale != req.Scale {
		httpError(w, http.StatusBadRequest, "scale must be non-negative")
		return
	}
	if req.Scale > s.MaxScale {
		httpError(w, http.StatusBadRequest, "scale %g exceeds limit %g", req.Scale, s.MaxScale)
		return
	}
	if req.StartPeriod < 0 || req.StartPeriod > s.MaxStartPeriod {
		httpError(w, http.StatusBadRequest, "start_period out of range [0, %d]", s.MaxStartPeriod)
		return
	}
	seed := req.Seed
	if seed == 0 {
		s.mu.Lock()
		seed = s.seeds.Int63()
		s.mu.Unlock()
	}
	// Reject unknown formats before paying for generation.
	switch req.Format {
	case "", "csv", "json":
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q", req.Format)
		return
	}
	// Request tracing: start the trace after validation so the ring only
	// holds requests that reached the pipeline. The trace ID goes out as
	// a response header either way; the engine picks the trace up from
	// the context and records queue/coalesce/decode spans. With no
	// Tracer attached, rt is nil and every call below is a no-op.
	rt := s.Tracer.StartTrace()
	ctx := r.Context()
	if rt != nil {
		w.Header().Set("X-Trace-Id", rt.ID())
		ctx = rtrace.NewContext(ctx, rt)
	}
	// Decode through the shared continuous-batching engine: this request
	// joins whatever streams its shard is already stepping, but its
	// dedicated seeded RNG keeps the result byte-identical to a serial
	// decode.
	// If a hot reload swaps the engine while this request is still
	// queued, the engine fails it with ErrEngineClosed and the loop
	// replays it on the new engine with a fresh RNG at the same seed —
	// the response bytes do not depend on which engine served it (the
	// trace honestly accumulates one queue span per attempt).
	var tr *trace.Trace
	var catalog *trace.FlavorSet
	var window trace.Window
	sampleStart := time.Now()
	for attempt := 0; ; attempt++ {
		model, cat, eng, err := s.snapshot()
		if err != nil {
			s.Tracer.Finish(rt)
			httpError(w, http.StatusInternalServerError, "engine: %v", err)
			return
		}
		start := req.StartPeriod
		if start <= 0 {
			start = model.Flavor.HistoryDays * trace.PeriodsPerDay
		}
		window = trace.Window{Start: start, End: start + req.Periods}
		tr, err = eng.Generate(ctx, rng.New(seed), window, req.Scale)
		if err == nil {
			catalog = cat
			break
		}
		if errors.Is(err, core.ErrEngineClosed) && attempt < 8 {
			s.retried.Inc()
			continue
		}
		s.sampleLat.Observe(time.Since(sampleStart).Seconds())
		s.Tracer.Finish(rt)
		if r.Context().Err() != nil {
			// The client went away mid-decode; the engine aborted the
			// stream and there is nobody left to answer.
			s.cancelled.Inc()
			return
		}
		httpError(w, http.StatusServiceUnavailable, "generate: %v", err)
		return
	}
	s.sampleLat.Observe(time.Since(sampleStart).Seconds())
	tr = core.WithCatalog(tr, catalog)

	s.mu.Lock()
	s.served++
	s.mu.Unlock()

	// Record/replay hook: hand the served trace and the parameters that
	// reproduce it to the recorder before encoding, so a recorded
	// request is replayable even if the client disconnects mid-encode.
	if s.OnTrace != nil {
		s.OnTrace(seed, window, req.Scale, tr)
	}

	w.Header().Set("X-Trace-Seed", fmt.Sprint(seed))
	w.Header().Set("X-Trace-VMs", fmt.Sprint(len(tr.VMs)))
	encodeStart := time.Now()
	var err error
	switch req.Format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv")
		err = tr.WriteCSV(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		err = tr.WriteJSON(w)
	}
	if err != nil {
		// The body has started (usually the client went away): the 200 is
		// sent, and anything written now would only append to the body it
		// cut short. Count the failure and write nothing more.
		s.writeErr.Inc()
	}
	encodeDur := time.Since(encodeStart)
	s.encodeLat.Observe(encodeDur.Seconds())
	if rt != nil {
		rt.Add("encode", encodeStart, encodeDur)
		s.observePhases(s.Tracer.Finish(rt))
	}
}

// observePhases folds a finished request trace's engine spans into the
// phase-level latency histograms (encode is observed directly by
// handleGenerate, traced or not).
func (s *Server) observePhases(f rtrace.Finished) {
	for _, sp := range f.Spans {
		secs := time.Duration(sp.DurNS).Seconds()
		switch sp.Name {
		case "queue":
			s.queueLat.Observe(secs)
		case "coalesce":
			s.coalesceLat.Observe(secs)
		case "decode":
			s.decodeLat.Observe(secs)
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

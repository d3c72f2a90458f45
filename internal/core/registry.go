package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// Engine registry: the decode engines behind one interface, selected by
// name at startup and rebuilt against the new model on hot-reload.
// Every kind produces byte-identical responses for a given (seed,
// window, scale); the kind only chooses how streams share step GEMMs
// and cores.

// GenEngine is a serving decode engine: concurrent Generate calls,
// each byte-identical to the serial Model.Generate of its seed with
// Model.RateScale = scale (0 meaning 1). Close fails in-flight and
// queued requests with ErrEngineClosed where the contract of the
// concrete engine says so, and releases the engine's resources.
type GenEngine interface {
	Generate(ctx context.Context, g *rng.RNG, w trace.Window, scale float64) (*trace.Trace, error)
	Close()
}

// EngineKind names a decode engine in the registry.
type EngineKind string

const (
	// EngineSerial decodes each request on its own goroutine through
	// the serial reference path — no batching, no coalescing. The
	// correctness yardstick and the right choice for rare, huge
	// requests.
	EngineSerial EngineKind = "serial"
	// EngineBatched is continuous batching on every core: one Engine per
	// shard behind the least-loaded router (DESIGN.md §6.2). Shards: 1 is
	// the single-scheduler, single-fleet engine.
	EngineBatched EngineKind = "batched"
	// EngineSharded is the same implementation as EngineBatched; the name
	// is kept so existing configurations and trace records stay valid.
	EngineSharded EngineKind = "sharded"
)

// EngineSpec bundles the knobs NewGenEngine needs. Window, MaxBatch,
// Shards and Obs configure the batched/sharded router and are ignored
// by the serial kind. Precision selects the fleet numeric width for
// every kind ("" means f64, the bit-exact default); it is orthogonal to
// Kind, so the registry is a (kind × precision) matrix.
type EngineSpec struct {
	Kind      EngineKind
	Window    time.Duration // idle coalescing wait, per shard
	MaxBatch  int           // concurrent streams across all shards; <= 0 means 64
	Shards    int           // scheduler shards; <= 0 means one per par worker
	Obs       *obs.Registry // sink for the decode.* shard gauges; may be nil
	Precision Precision     // "" or "f64": bit-exact; "f32": fast path
}

// ShardCount is the number of scheduler shards the batched and sharded
// kinds run for this spec: Shards, or one per internal/par worker when
// that is <= 0, and never more than MaxBatch. It is a pure function of
// the spec and par.Procs(), so it is the same before and after a hot
// reload.
func (spec EngineSpec) ShardCount() int {
	k, _ := spec.shards()
	return k
}

// shards resolves the router's shape: the shard count and each shard's
// stream cap, ceil(MaxBatch / count).
func (spec EngineSpec) shards() (count, perShard int) {
	maxBatch := spec.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxStreams
	}
	count = shardCount(spec.Shards, maxBatch)
	return count, (maxBatch + count - 1) / count
}

// engineBuilders is the registry proper. Keeping it a map (rather
// than a switch) lets tests enumerate kinds and keeps NewGenEngine's
// validation in one place. Builders receive a normalized precision.
var engineBuilders = map[EngineKind]func(m *Model, spec EngineSpec) GenEngine{
	EngineSerial: func(m *Model, spec EngineSpec) GenEngine {
		return &serialEngine{m: m, prec: spec.Precision}
	},
	EngineBatched: func(m *Model, spec EngineSpec) GenEngine { return newEngineRouter(m, spec) },
	EngineSharded: func(m *Model, spec EngineSpec) GenEngine { return newEngineRouter(m, spec) },
}

// NewGenEngine builds the engine named by spec.Kind ("" selects
// batched, the pre-registry default) at spec.Precision ("" selects
// f64). Unknown kinds or precisions are an error — surfaced at
// startup/reload, never mid-request. For f32 the weight conversion
// happens here, before the engine (or its scheduler goroutine) exists.
func NewGenEngine(m *Model, spec EngineSpec) (GenEngine, error) {
	kind := spec.Kind
	if kind == "" {
		kind = EngineBatched
	}
	build, ok := engineBuilders[kind]
	if !ok {
		return nil, fmt.Errorf("core: unknown engine kind %q (have %v)", kind, EngineKinds())
	}
	if !ValidPrecision(string(spec.Precision)) {
		return nil, fmt.Errorf("core: unknown precision %q (have %v)", spec.Precision, Precisions())
	}
	spec.Precision = spec.Precision.normalize()
	// Prepare the serving-weight caches eagerly: the serial f32 engine
	// decodes on concurrent request goroutines and every builder may
	// share the model, so conversion and packing must happen before the
	// engine (or its scheduler goroutine) exists. The serial f64 engine
	// stays on the scalar unpacked reference path by construction.
	if spec.Precision == PrecisionF32 || kind != EngineSerial {
		m.prepareDecode(spec.Precision)
	}
	return build(m, spec), nil
}

// EngineKinds lists the registered kinds, sorted for stable output.
func EngineKinds() []EngineKind {
	kinds := make([]EngineKind, 0, len(engineBuilders))
	for k := range engineBuilders {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// ValidEngineKind reports whether name is a registered engine kind.
func ValidEngineKind(name string) bool {
	_, ok := engineBuilders[EngineKind(name)]
	return ok
}

// serialEngine runs each request through the serial reference decoder
// on the caller's goroutine. It exists so the registry's yardstick is
// literally Model.Generate; the batched engines define byte-identity
// against this path. At PrecisionF32 it decodes through a
// single-stream fleet queue instead — there is no serial f32 decoder,
// and a one-row fleet is the f32 reference all f32 engines match.
type serialEngine struct {
	m    *Model
	prec Precision
}

// Generate implements GenEngine. Cancellation is honored only before
// decoding starts: the serial path has no step boundaries to abort at.
func (e *serialEngine) Generate(ctx context.Context, g *rng.RNG, w trace.Window, scale float64) (*trace.Trace, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Same scale semantics as Engine.admitReq: the request's scale
	// overrides the model's, 0 meaning 1 (via rateScale()). The value
	// copy shares the f32 weight cache by pointer (PrepareF32 already
	// ran in NewGenEngine for f32 specs).
	m := *e.m
	m.RateScale = scale
	decode := m.Generate
	if e.prec.normalize() == PrecisionF32 {
		decode = func(g *rng.RNG, w trace.Window) *trace.Trace {
			out := make([]*trace.Trace, 1)
			m.decodeQueue([]*rng.RNG{g}, 0, 1, w, out, PrecisionF32)
			return out[0]
		}
	}
	if tr := rtrace.FromContext(ctx); tr != nil {
		// The serial path has no queue or coalesce phases: the whole call
		// is one decode span (with no step rounds to count).
		start := time.Now()
		out := decode(g, w)
		tr.Add("decode", start, time.Since(start))
		return out, nil
	}
	return decode(g, w), nil
}

// Close implements GenEngine; the serial engine holds no resources.
func (e *serialEngine) Close() {}

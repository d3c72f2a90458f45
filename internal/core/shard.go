package core

import (
	"context"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// This file is multi-core decode (DESIGN.md §6.2): K independent
// fleetEngines, one per core, offline (GenerateBatch,
// GenerateBatchShardedF32) and behind the serving router
// (engineRouter). A fleetEngine's output is bit-identical per stream
// regardless of batch composition, so which shard decodes a stream is a
// scheduling choice — it changes which streams share a step GEMM, never
// a single output byte; the bytes are those of the one-stream
// Model.Generate of the same RNG.

// shardCount is the decode shard count over `slots` stream slots: one
// per internal/par worker (so REPRO_PROCS=1 is the single-fleet path),
// and never more than one shard per slot.
func shardCount(slots int) int { return min(par.Procs(), slots) }

// GenerateBatchShardedF32 is GenerateBatch on the float32 fast path
// (DESIGN.md §6.4): the same sharding and scheduling, f32 fleet steps.
// shards <= 0 means one shard per par worker, as GenerateBatch has; a
// one-stream call is the f32 oracle every f32 engine is tested against.
// Per-stream results are deterministic per seed and byte-identical at
// any shard count and any REPRO_PROCS, but not byte-identical to the
// f64 path; ValidateF32 bounds the distributional divergence.
func (m *Model) GenerateBatchShardedF32(gs []*rng.RNG, w trace.Window, shards int) []*trace.Trace {
	return m.generateBatchSharded(gs, w, shards, PrecisionF32)
}

// generateBatchSharded deals the streams round-robin by index across
// `shards` fleet engines (<= 0: one per par worker) and runs the shard
// queues concurrently through internal/par. Shard queues write only
// their own streams' output slots, and per-stream bytes never depend on
// batch composition, so each returned trace is the one-stream decode of
// gs[i] at any shard count.
func (m *Model) generateBatchSharded(gs []*rng.RNG, w trace.Window, shards int, prec Precision) []*trace.Trace {
	out := make([]*trace.Trace, len(gs))
	if len(gs) == 0 {
		return out
	}
	k := shardCount(len(gs))
	if shards > 0 {
		k = min(shards, len(gs))
	}
	par.Do(k, func(i int) {
		m.decodeQueue(gs, i, k, w, out, prec)
	})
	return out
}

// engineRouter is the serving engine: K Engines (one scheduler
// goroutine and one fleet each) that run free of each other — no shared
// round, no barrier — and a placement rule. Every Generate goes to the
// shard with the fewest requests in flight (routed and not yet returned;
// ties to the lowest index), so a wave of N concurrent requests spreads
// N/K per core and a lone request always lands on warm shard 0.
//
// Per-shard telemetry lands in EngineSpec.Obs: decode.shards (K),
// decode.shard_occupancy.<k> (requests in flight on shard k right now)
// and decode.streams_per_shard.<k> (requests ever routed to shard k).
// Occupancy moves by ±1 rather than being set, so the draining and the
// fresh engine of a hot reload can share the gauges.
type engineRouter struct {
	shards []*Engine

	mu       sync.Mutex
	inflight []int // per shard, guarded by mu

	occupancy []*obs.Gauge
	assigned  []*obs.Gauge
}

func newEngineRouter(m *Model, spec EngineSpec) *engineRouter {
	caps := spec.shardCaps()
	k := len(caps)
	reg := spec.Obs
	if reg == nil {
		reg = obs.NewRegistry() // private sink keeps Generate guard-free
	}
	r := &engineRouter{
		shards:    make([]*Engine, k),
		inflight:  make([]int, k),
		occupancy: reg.GaugeFamily("decode.shard_occupancy", k),
		assigned:  reg.GaugeFamily("decode.streams_per_shard", k),
	}
	reg.Gauge("decode.shards").Set(int64(k))
	for i := range r.shards {
		r.shards[i] = newEngine(m, caps[i], spec.Precision)
	}
	return r
}

// Generate implements GenEngine with Engine.Generate's contract; the
// shard choice is recorded on the request's trace, if it has one.
func (r *engineRouter) Generate(ctx context.Context, g *rng.RNG, w trace.Window, scale float64) (*trace.Trace, error) {
	r.mu.Lock()
	k := 0
	for i, n := range r.inflight {
		if n < r.inflight[k] {
			k = i
		}
	}
	r.inflight[k]++
	r.occupancy[k].Add(1)
	r.mu.Unlock()
	r.assigned[k].Add(1)
	rtrace.FromContext(ctx).SetShard(k)

	tr, err := r.shards[k].Generate(ctx, g, w, scale)

	// Gauge before delivery: a caller unblocked by its result must never
	// observe its own stream still counted in flight (the /metrics drain
	// check would otherwise race this return).
	r.mu.Lock()
	r.inflight[k]--
	r.occupancy[k].Add(-1)
	r.mu.Unlock()
	return tr, err
}

// Close implements GenEngine. It signals every shard before waiting on
// any, so the drain takes as long as the slowest shard, not their sum.
func (r *engineRouter) Close() {
	for _, e := range r.shards {
		e.stop()
	}
	for _, e := range r.shards {
		e.wg.Wait()
	}
}

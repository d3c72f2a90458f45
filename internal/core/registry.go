package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// GenEngine is a serving decode engine: concurrent Generate calls,
// each byte-identical to the one-stream decode of its seed at the
// engine's precision — Model.Generate with Model.RateScale = scale (0
// meaning 1) at f64, a one-stream GenerateBatchShardedF32 at f32. Close
// fails queued requests with ErrEngineClosed and releases the engine's
// resources.
//
// There is one engine kind: continuous batching on every core, one
// Engine per shard behind the least-loaded router (DESIGN.md §6.2; at
// one internal/par worker it is the single-scheduler, single-fleet
// engine). A caller that wants no scheduler calls Model.Generate, the
// same decoder on one stream.
type GenEngine interface {
	Generate(ctx context.Context, g *rng.RNG, w trace.Window, scale float64) (*trace.Trace, error)
	Close()
}

// EngineBatched is the only value of EngineSpec.Kind besides "". The
// field and the constant exist for callers that name the engine
// explicitly (the repo benchmark does).
const EngineBatched = "batched"

// EngineSpec bundles the knobs NewGenEngine needs. Precision selects
// the fleet numeric width ("" means f64, the bit-exact default). The
// shard count is not among them: it is one per internal/par worker
// (REPRO_PROCS), never more than MaxBatch, because no output byte
// depends on it. Window is accepted and ignored: the idle coalescing
// wait it used to set is deleted (continuous admission is the one
// batching mechanism, DESIGN.md §6.2). Window, Kind and MaxBatch are
// still declared only because the frozen repo benchmark sets them by
// name; they leave with the next PR allowed to edit bench/.
type EngineSpec struct {
	Kind      string        // "" or EngineBatched
	Window    time.Duration // ignored; see above
	MaxBatch  int           // concurrent streams across all shards; <= 0 means 64
	Obs       *obs.Registry // sink for the decode.* shard gauges; may be nil
	Precision Precision     // "" or "f64": bit-exact; "f32": fast path
}

// ShardCount is the number of scheduler shards the engine runs for this
// spec: one per internal/par worker, never more than MaxBatch. It is a
// pure function of the spec and par.Procs(), so it is the same before
// and after a hot reload.
func (spec EngineSpec) ShardCount() int { return len(spec.shardCaps()) }

// shardCaps resolves the router's shape: one stream cap per shard,
// summing to exactly MaxBatch — MaxBatch / count each, and one more on
// the first MaxBatch % count shards.
func (spec EngineSpec) shardCaps() []int {
	maxBatch := spec.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxStreams
	}
	caps := make([]int, shardCount(maxBatch))
	for i := range caps {
		caps[i] = maxBatch / len(caps)
		if i < maxBatch%len(caps) {
			caps[i]++
		}
	}
	return caps
}

// NewGenEngine builds the decode engine at spec.Precision ("" selects
// f64). An unknown kind or precision is an error — surfaced at
// startup/reload, never mid-request. Each shard's scheduler builds its
// fleets as it starts; the serving weights they step on are converted
// (f32) and packed once per model, by whichever shard gets there first.
func NewGenEngine(m *Model, spec EngineSpec) (GenEngine, error) {
	if spec.Kind != "" && spec.Kind != EngineBatched {
		return nil, fmt.Errorf("core: unknown engine kind %q (the one engine kind is %q)", spec.Kind, EngineBatched)
	}
	if !ValidPrecision(string(spec.Precision)) {
		return nil, fmt.Errorf("core: unknown precision %q (have %v)", spec.Precision, Precisions())
	}
	spec.Precision = spec.Precision.normalize()
	return newEngineRouter(m, spec), nil
}

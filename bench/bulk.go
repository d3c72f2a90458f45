package main

import (
	"bytes"
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/trace"
)

// bulkStreams is the wave size: the engine's default max batch, so one
// wave fills one decode batch. Each stream decodes bulkPeriods periods
// (four hours), which keeps a wave near 0.2 s on the reference host so
// that the host is probed often; occupancy, not stream length, is what
// this workload is about.
const (
	bulkStreams = 64
	bulkPeriods = 48
)

type bulk struct {
	seed          int64
	traced, quick bool
	fx            *fixture
	eng           core.GenEngine
	tracer        *rtrace.Tracer
	nextOp        int
	samples       []bulkSample
}

type bulkSample struct {
	seed int64
	csv  []byte
}

func newBulk(seed int64, traced, quick bool) *bulk {
	return &bulk{seed: seed, traced: traced, quick: quick}
}

func (w *bulk) prepare(fx *fixture, sl *spanLog) error {
	w.fx = fx
	var err error
	sl.time("core.NewGenEngine", -1, -1, func() {
		w.eng, err = core.NewGenEngine(fx.model, core.EngineSpec{
			Kind: core.EngineBatched, Window: 2 * time.Millisecond, MaxBatch: bulkStreams,
		})
	})
	if err != nil {
		return err
	}
	if w.traced {
		w.tracer = rtrace.NewTracer(1 << 15)
	}
	var warm sliceResult
	w.wave(-1, 8, nil, &warm)
	return nil
}

func (w *bulk) slice(i int, sl *spanLog, res *sliceResult) {
	n := bulkStreams
	if w.quick {
		n = 8
	}
	w.wave(i, n, sl, res)
}

// wave decodes n streams concurrently; an op is one stream.
func (w *bulk) wave(i, n int, sl *spanLog, res *sliceResult) {
	opBase := w.nextOp
	w.nextOp += n
	window := w.fx.window(bulkPeriods)
	sampleAt := sampleIndex(w.seed, i, n)
	if i < 0 {
		sampleAt = -1
	}
	type outcome struct {
		latNS int64
		tr    *trace.Trace
		err   error
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			rt := w.tracer.StartTrace() // nil when untraced
			if rt != nil {
				ctx = rtrace.NewContext(ctx, rt)
			}
			t0 := time.Now()
			tr, err := w.eng.Generate(ctx, rng.New(opSeed(w.seed, i, j)), window, 0)
			t1 := time.Now()
			out[j] = outcome{latNS: t1.Sub(t0).Nanoseconds(), tr: tr, err: err}
			if rt != nil {
				id := sl.add("core.Generate", t0, t1, -1, opBase+j)
				addFinished(sl, w.tracer.Finish(rt), id, opBase+j)
			}
		}()
	}
	wg.Wait()
	for j, o := range out {
		ok := o.err == nil && o.tr != nil && o.tr.Validate() == nil
		res.ops = append(res.ops, opStat{latNS: o.latNS, class: noClass, ok: ok})
		res.noteErr(o.err)
		if o.tr != nil {
			res.vms += int64(len(o.tr.VMs))
		}
		if ok && j == sampleAt {
			w.samples = append(w.samples, bulkSample{seed: opSeed(w.seed, i, j), csv: w.encode(o.tr)})
		}
	}
}

func (w *bulk) encode(tr *trace.Trace) []byte {
	var buf bytes.Buffer
	_ = core.WithCatalog(tr, w.fx.cfg.Flavors).WriteCSV(&buf) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}

func (w *bulk) finish(*spanLog) {}

func (w *bulk) traceData() traceData { return traceData{} }

// verify: the f64 batched engine must reproduce the serial decoder
// byte for byte.
func (w *bulk) verify() (checked, mismatched int, digest uint64) {
	for _, s := range w.samples {
		checked++
		digest = digestBytes(digest, s.csv)
		if !bytes.Equal(s.csv, oracleBytes(w.fx, s.seed, bulkPeriods, false)) {
			mismatched++
		}
	}
	return checked, mismatched, digest
}

func (w *bulk) close() { w.eng.Close() }

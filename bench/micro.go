package main

import (
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Micro-probes: exported functions of single layers timed in isolation
// at the fixture's shapes (hidden 24 x 2 layers, 16 flavors + EOB, BPTT
// windows of 96 steps x 8 sequences). They say which layer moved when an
// end-to-end number moves; they are not gated.

// timeLoop calls fn in batches of batch calls until d has passed and
// returns the mean nanoseconds per call. One clock read per batch keeps
// the clock out of nanosecond-scale kernels.
func timeLoop(sl *spanLog, name string, d time.Duration, batch int, fn func()) float64 {
	start := time.Now()
	calls := 0
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if time.Since(start) >= d {
			break
		}
	}
	end := time.Now()
	sl.add("micro."+name, start, end, -1, -1)
	return float64(end.Sub(start).Nanoseconds()) / float64(calls)
}

const (
	bpttSteps = 96 // core.TrainConfig's default SeqLen
	bpttBatch = 8  // and BatchSize
)

func seeds(n int, base int64) []*rng.RNG {
	gs := make([]*rng.RNG, n)
	for i := range gs {
		gs[i] = rng.New(base + int64(i))
	}
	return gs
}

// microSize scales the micro-probes: full size for the benchmark, tiny
// for the smoke test.
type microSize struct {
	dur     time.Duration // minimum length of each timing loop
	periods int           // decoded per stream
	streams int           // per batched decode
}

var (
	microFull  = microSize{500 * time.Millisecond, trace.PeriodsPerDay, bulkStreams}
	microQuick = microSize{5 * time.Millisecond, 6, 4}
)

func microProbes(m map[string]float64, fx *fixture, sl *spanLog, size microSize) {
	net := fx.model.Flavor.Net
	cfg := net.Cfg
	d := size.dur
	day := fx.window(size.periods)

	// nn: one batched decode step at 1, 8 and 64 rows, f64 and f32.
	oneHot := func(in []float64, k int) {
		clear(in)
		in[k%(cfg.OutputDim)] = 1
		in[len(in)-1] = 0.5
	}
	fleetStep := func(name string, rows int, f nn.StepFleet) {
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = f.Admit()
		}
		k := 0
		m[name] = timeLoop(sl, name, d, 16, func() {
			for i := range idx {
				oneHot(f.InputRow(i), k+i)
			}
			f.Step(idx)
			k++
		}) / 1e3
	}
	packed := net.Pack()
	for _, rows := range []int{1, 8, 64} {
		fleetStep(fmtRows("nn.fleet_step_us_rows", rows), rows, net.NewFleetPacked(rows, packed))
	}
	net32 := net.Convert32()
	packed32 := net32.Pack()
	for _, rows := range []int{1, 64} {
		fleetStep(fmtRows("nn.fleet32_step_us_rows", rows), rows, net32.NewFleet32Packed(rows, packed32))
	}

	// nn: one BPTT window forward and backward, plain and sharded.
	train := nn.NewLSTM(cfg, rng.New(1))
	xs := make([]*mat.Dense, bpttSteps)
	dys := make([]*mat.Dense, bpttSteps)
	for t := range xs {
		xs[t] = mat.NewDense(bpttBatch, cfg.InputDim)
		for r := 0; r < bpttBatch; r++ {
			oneHot(xs[t].Row(r), t+r)
		}
		dys[t] = mat.NewDense(bpttBatch, cfg.OutputDim)
		dys[t].Fill(0.01)
	}
	var fwd, bwd time.Duration
	windows := 0
	timeLoop(sl, "nn.forward_backward_window", d, 1, func() {
		t0 := time.Now()
		_, cache := train.Forward(xs, nil)
		t1 := time.Now()
		train.ZeroGrads()
		train.Backward(cache, dys)
		fwd += t1.Sub(t0)
		bwd += time.Since(t1)
		windows++
	})
	m["nn.forward_ms_window"] = fwd.Seconds() * 1e3 / float64(windows)
	m["nn.backward_ms_window"] = bwd.Seconds() * 1e3 / float64(windows)
	sharded := nn.NewShardedLSTM(train, bpttBatch)
	shardDys := map[int][]*mat.Dense{}
	for lo := 0; lo < bpttBatch; lo += nn.ShardRows {
		views := make([]*mat.Dense, bpttSteps)
		for t := range views {
			views[t] = dys[t].SliceRows(lo, min(lo+nn.ShardRows, bpttBatch))
		}
		shardDys[lo] = views
	}
	st := train.NewState(bpttBatch)
	m["nn.sharded_window_ms"] = timeLoop(sl, "nn.sharded_window_ms", d, 1, func() {
		sharded.RunWindow(xs, st, func(lo, hi int, _ []*mat.Dense) ([]*mat.Dense, float64, int) {
			return shardDys[lo], 0, hi - lo
		})
	}) / 1e6
	train.ReleaseWorkspace()

	// mat: the recurrent gate GEMM at decode shape (rows x H times the
	// packed H x 4H panel), exp, and the three BPTT GEMM shapes.
	h, gates := cfg.HiddenDim, 4*cfg.HiddenDim
	filled := func(r, c int, v float64) *mat.Dense {
		d := mat.NewDense(r, c)
		d.Fill(v)
		return d
	}
	wh := filled(h, gates, 1e-3)
	whPacked, wh32Packed := wh.Pack(), wh.Dense32().Pack32()
	for _, rows := range []int{1, 64} {
		a, dst := filled(rows, h, 0.5), mat.NewDense(rows, gates)
		name := fmtRows("mat.gemm_decode_ns_rows", rows)
		m[name] = timeLoop(sl, name, d, 256, func() { mat.MulAddPacked(dst, a, whPacked) })
		a32, dst32 := a.Dense32(), mat.NewDense32(rows, gates)
		name = fmtRows("mat.gemm32_decode_ns_rows", rows)
		m[name] = timeLoop(sl, name, d, 256, func() { mat.MulAddPacked32(dst32, a32, wh32Packed) })
	}
	m["mat.gemm_decode_flops_per_call"] = float64(2 * 64 * h * gates) // computed, rows64
	ex, exOut := make([]float64, 4096), make([]float64, 4096)
	for i := range ex {
		ex[i] = float64(i%200)/20 - 5
	}
	m["mat.exp_ns_per_elem"] = timeLoop(sl, "mat.exp_ns_per_elem", d, 16, func() { mat.ExpSlice(exOut, ex) }) / float64(len(ex))
	tb := bpttSteps * bpttBatch
	xAll, gAll := filled(tb, cfg.InputDim, 0.01), filled(tb, gates, 0.01)
	wx, dWx, dH := filled(cfg.InputDim, gates, 1e-3), mat.NewDense(cfg.InputDim, gates), mat.NewDense(tb, h)
	m["mat.gemm_bptt_us"] = timeLoop(sl, "mat.gemm_bptt_us", d, 4, func() { mat.MulAdd(gAll, xAll, wx) }) / 1e3
	m["mat.atb_us"] = timeLoop(sl, "mat.atb_us", d, 4, func() { mat.MulATB(dWx, xAll, gAll) }) / 1e3
	m["mat.abt_us"] = timeLoop(sl, "mat.abt_us", d, 4, func() { mat.MulABT(dH, gAll, wh) }) / 1e3

	// core: the serial oracle against the batched and sharded decoders.
	var serialVMs int
	s := int64(1000)
	serialNS := timeLoop(sl, "core.serial_day", d, 1, func() {
		serialVMs += len(fx.model.Generate(rng.New(s), day).VMs)
		s++
	})
	m["core.serial_us_per_vm"] = serialNS / 1e3 / (float64(serialVMs) / float64(s-1000))
	var batchVMs, batchCalls int
	batchNS := timeLoop(sl, "core.batch64_days", d, 1, func() {
		for _, tr := range fx.model.GenerateBatch(seeds(size.streams, 2000), day) {
			batchVMs += len(tr.VMs)
		}
		batchCalls++
	})
	m["core.batch_speedup_x"] = m["core.serial_us_per_vm"] / (batchNS / 1e3 / (float64(batchVMs) / float64(batchCalls)))
	shards := runtime.NumCPU()
	shardNS := timeLoop(sl, "core.sharded_f32_days", d, 1, func() {
		fx.model.GenerateBatchShardedF32(seeds(size.streams, 3000), day, shards)
	})
	m["core.sharded_f32_streams_per_s"] = float64(size.streams) / (shardNS / 1e9)

	// core: what publishing a snapshot costs a serving process.
	var loadNS, publishNS, startNS time.Duration
	loads := 0
	timeLoop(sl, "core.publish", d, 1, func() {
		t0 := time.Now()
		fresh := &core.Model{}
		if err := fresh.UnmarshalBinary(fx.snapshot); err != nil {
			return // the fixture already round-tripped these bytes
		}
		t1 := time.Now()
		fresh.PrepareF32()
		fresh.PreparePacked()
		fresh.PreparePackedF32()
		_, _ = fresh.ValidateF32() // validated at set-up; timed here
		t2 := time.Now()
		eng, err := core.NewGenEngine(fresh, core.EngineSpec{Kind: core.EngineBatched, Window: 2 * time.Millisecond, MaxBatch: bulkStreams})
		if err == nil {
			eng.Close()
		}
		loadNS += t1.Sub(t0)
		publishNS += t2.Sub(t1)
		startNS += time.Since(t2)
		loads++
	})
	m["core.snapshot_load_ms"] = loadNS.Seconds() * 1e3 / float64(loads)
	m["core.publish_ms"] = publishNS.Seconds() * 1e3 / float64(loads)
	m["core.engine_start_ms"] = startNS.Seconds() * 1e3 / float64(loads)
	m["core.snapshot_kb"] = float64(len(fx.snapshot)) / 1024

	// trace: encoding one generated day.
	dayTrace := core.WithCatalog(fx.model.Generate(rng.New(1), day), fx.cfg.Flavors)
	kvm := float64(len(dayTrace.VMs)) / 1e3
	var csvBytes countWriter
	_ = dayTrace.WriteCSV(&csvBytes) // countWriter cannot fail
	m["trace.bytes_per_vm"] = float64(csvBytes) / float64(len(dayTrace.VMs))
	m["trace.csv_us_per_kvm"] = timeLoop(sl, "trace.csv", d, 1, func() { _ = dayTrace.WriteCSV(io.Discard) }) / 1e3 / kvm
	m["trace.json_us_per_kvm"] = timeLoop(sl, "trace.json", d, 1, func() { _ = dayTrace.WriteJSON(io.Discard) }) / 1e3 / kvm

	// workload / synth / glm: the set-up path.
	specJSON, err := fx.spec.Marshal()
	if err == nil {
		m["workload.parse_compile_us"] = timeLoop(sl, "workload.parse_compile", d, 4, func() {
			if sp, err := workload.ParseSpec(specJSON); err == nil {
				_, _ = sp.Compile() // compiled once already in buildFixture
			}
		}) / 1e3
	}
	synthNS := timeLoop(sl, "synth.generate", d, 1, func() { fx.cfg.Generate(fixtureHistorySeed) })
	m["synth.vms_per_s"] = float64(len(fx.history.VMs)) / (synthNS / 1e9)
	arrival := core.ArrivalOptions{Kind: core.BatchArrivals, UseDOH: true, DOH: fx.model.Arrival.DOH}
	m["glm.fit_ms"] = timeLoop(sl, "glm.fit", d, 1, func() {
		_, _ = core.TrainArrival(fx.history, arrival) // fitted once already in buildFixture
	}) / 1e6
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

func fmtRows(prefix string, rows int) string { return prefix + strconv.Itoa(rows) }

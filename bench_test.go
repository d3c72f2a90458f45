// Package repro's root benchmark suite regenerates every table and
// figure of the paper (see DESIGN.md §3 for the experiment index) and
// additionally benchmarks the hot paths of each substrate, including the
// ablations called out in DESIGN.md §4. Model training happens once per
// cloud outside the timed regions; each benchmark times the experiment
// regeneration itself.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/glm"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/rtrace"
	"repro/internal/sched"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchScale trims the sampling volume so the whole suite completes in
// minutes while exercising every code path.
func benchScale() experiments.Scale {
	s := experiments.SmallScale()
	s.Samples = 10
	s.Tuples = 20
	return s
}

var (
	azureOnce  sync.Once
	azureCloud *experiments.Cloud

	huaweiOnce  sync.Once
	huaweiCloud *experiments.Cloud
)

func benchAzure(b *testing.B) *experiments.Cloud {
	b.Helper()
	azureOnce.Do(func() {
		azureCloud = experiments.NewCloud(experiments.Azure, benchScale())
		azureCloud.Model() // train outside the timed region
	})
	return azureCloud
}

func benchHuawei(b *testing.B) *experiments.Cloud {
	b.Helper()
	huaweiOnce.Do(func() {
		s := benchScale()
		s.Samples = 6
		s.Tuples = 12
		huaweiCloud = experiments.NewCloud(experiments.Huawei, s)
		huaweiCloud.Model()
	})
	return huaweiCloud
}

// --- One benchmark per paper table/figure ---

func BenchmarkTable1Datasets(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(c)
	}
}

func BenchmarkFigure4BatchArrivalsAzure(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure4(c)
	}
}

func BenchmarkFigure5BatchArrivalsHuawei(b *testing.B) {
	c := benchHuawei(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(c)
	}
}

func BenchmarkFigure6NaiveArrivals(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure6(c)
	}
}

func BenchmarkTable2Flavors(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table2(c)
	}
}

func BenchmarkTable3Lifetimes(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table3(c)
	}
}

func BenchmarkTable4SurvivalMSE(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(c)
	}
}

func BenchmarkFigure7CapacityAzure(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(c)
	}
}

func BenchmarkFigure8CapacityHuawei(b *testing.B) {
	c := benchHuawei(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure8(c)
	}
}

func BenchmarkFigure9ReuseDistance(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure9(c)
	}
}

func BenchmarkTable5Packing(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table5(c)
	}
}

func BenchmarkTenXScaling(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.TenX(c)
	}
}

// BenchmarkFigure1Visualize times the batch grouping that backs the
// Figure 1 rendering.
func BenchmarkFigure1Visualize(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Test.PeriodBatches()
	}
}

func BenchmarkCensoringAblation(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.CensoringAblation(c)
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkSynthGenerateDay(b *testing.B) {
	cfg := workload.PresetConfig("azure")
	cfg.Days = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Generate(int64(i))
	}
}

func BenchmarkLSTMStepForward(b *testing.B) {
	net := nn.NewLSTM(nn.Config{InputDim: 64, HiddenDim: 48, Layers: 2, OutputDim: 17}, rng.New(1))
	st := net.NewState(1)
	x := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.StepForward(x, st)
	}
}

func BenchmarkLSTMTrainWindow(b *testing.B) {
	net := nn.NewLSTM(nn.Config{InputDim: 64, HiddenDim: 48, Layers: 2, OutputDim: 17}, rng.New(1))
	g := rng.New(2)
	const steps, batch = 32, 8
	xs := make([]*mat.Dense, steps)
	targets := make([][]int, steps)
	for s := range xs {
		x := mat.NewDense(batch, 64)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[s] = x
		tg := make([]int, batch)
		for i := range tg {
			tg[i] = g.Intn(17)
		}
		targets[s] = tg
	}
	opt := nn.NewAdam(1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		ys, cache := net.Forward(xs, nil)
		dys := make([]*mat.Dense, steps)
		for s, y := range ys {
			_, d, _ := nn.SoftmaxCE(y, targets[s], nil)
			dys[s] = d
		}
		net.Backward(cache, dys)
		opt.Step(net.Params())
	}
}

// --- Parallel execution layer (DESIGN.md "Parallel execution") ---

// benchMatMul times C += A·B at the given worker count. SetBytes counts
// the matrices touched per op so ns/op and MB/s are both reported.
func benchMatMul(b *testing.B, procs int) {
	defer par.SetProcs(par.SetProcs(procs))
	const m, k, n = 256, 256, 256
	g := rng.New(1)
	a := mat.NewDense(m, k)
	bm := mat.NewDense(k, n)
	for i := range a.Data {
		a.Data[i] = g.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = g.NormFloat64()
	}
	dst := mat.NewDense(m, n)
	b.SetBytes(8 * (m*k + k*n + m*n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulAdd(dst, a, bm)
	}
}

func BenchmarkMatMul(b *testing.B)         { benchMatMul(b, 1) }
func BenchmarkMatMulParallel(b *testing.B) { benchMatMul(b, runtime.NumCPU()) }

// benchLSTMTrain times one sharded forward/backward/Adam window at the
// given worker count; compare against BenchmarkLSTMTrainWindow for the
// unsharded baseline. SetBytes counts the input activations per op.
func benchLSTMTrain(b *testing.B, procs int) {
	defer par.SetProcs(par.SetProcs(procs))
	net := nn.NewLSTM(nn.Config{InputDim: 64, HiddenDim: 48, Layers: 2, OutputDim: 17}, rng.New(1))
	g := rng.New(2)
	const steps, batch = 32, 8
	xs := make([]*mat.Dense, steps)
	targets := make([][]int, steps)
	for s := range xs {
		x := mat.NewDense(batch, 64)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[s] = x
		tg := make([]int, batch)
		for i := range tg {
			tg[i] = g.Intn(17)
		}
		targets[s] = tg
	}
	opt := nn.NewAdam(1e-3)
	sharded := nn.NewSharded(net, batch)
	b.SetBytes(8 * steps * batch * 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := net.NewState(batch)
		sharded.RunWindow(xs, st, func(lo, hi int, ys []*mat.Dense) ([]*mat.Dense, float64, int) {
			dys := make([]*mat.Dense, len(ys))
			for s, y := range ys {
				_, d, _ := nn.SoftmaxCE(y, targets[s][lo:hi], nil)
				dys[s] = d
			}
			return dys, 0, 0
		})
		opt.Step(net.Params())
	}
}

func BenchmarkLSTMTrainSharded(b *testing.B)  { benchLSTMTrain(b, 1) }
func BenchmarkLSTMTrainParallel(b *testing.B) { benchLSTMTrain(b, runtime.NumCPU()) }

// benchTrainFitCycle times the repo benchmark's train_fit op mix
// outside its harness: on a 3-day "mixed" history at the fixture's
// size (400 users, base rate 3, hidden 24 × 2), one cycle is a fresh
// flavor-LSTM fit of 3 epochs plus a lifetime-LSTM fit of 1. It is what
// training actually runs — one-row BPTT shards under par.Do — where the
// window benchmarks above use an 8-row batch.
func benchTrainFitCycle(b *testing.B, procs int) {
	defer par.SetProcs(par.SetProcs(procs))
	spec := workload.Preset("mixed")
	spec.Days, spec.Users, spec.Arrival.BaseRate = 3, 400, 3
	cfg, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	history := cfg.Generate(20210521)
	tc := core.TrainConfig{Hidden: 24, Layers: 2, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Epochs = 3
		core.TrainFlavor(history, tc)
		tc.Epochs = 1
		core.TrainLifetime(history, survival.PaperBins(), tc)
	}
}

func BenchmarkTrainFitCycle(b *testing.B)       { benchTrainFitCycle(b, runtime.NumCPU()) }
func BenchmarkTrainFitCycleProcs1(b *testing.B) { benchTrainFitCycle(b, 1) }

func BenchmarkPoissonRegressionIRLS(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainArrival(c.Train, core.ArrivalOptions{Kind: core.BatchArrivals, UseDOH: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoissonRegressionProx is the DESIGN.md §4 solver ablation
// counterpart of the IRLS bench.
func BenchmarkPoissonRegressionProx(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainArrival(c.Train, core.ArrivalOptions{
			Kind: core.BatchArrivals, UseDOH: true, L1: 0.01,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKaplanMeier(b *testing.B) {
	c := benchAzure(b)
	obs := make([]survival.Observation, len(c.Train.VMs))
	for i, vm := range c.Train.VMs {
		obs[i] = survival.Observation{Duration: vm.Duration, Censored: vm.Censored}
	}
	bins := survival.PaperBins()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		survival.KaplanMeier(obs, bins)
	}
}

func BenchmarkGenerateTraceLSTM(b *testing.B) {
	c := benchAzure(b)
	m := c.Model()
	g := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(g.Split(), c.TestW)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "streams/s")
}

// benchGenerateBatch times the continuous-batching decode engine at a
// fixed concurrent stream count on one fleet (GenerateBatch at one par
// worker: the single-core baseline the Sharded rows are read against);
// compare streams/s against BenchmarkGenerateTraceLSTM, one
// Model.Generate at a time (a one-stream fleet).
func benchGenerateBatch(b *testing.B, streams int) {
	c := benchAzure(b)
	defer par.SetProcs(par.SetProcs(1))
	m := c.Model()
	g := rng.New(1)
	gs := make([]*rng.RNG, streams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range gs {
			gs[j] = g.Split()
		}
		m.GenerateBatch(gs, c.TestW)
	}
	b.ReportMetric(float64(b.N*streams)/b.Elapsed().Seconds(), "streams/s")
}

func BenchmarkGenerateBatchLSTM1(b *testing.B)  { benchGenerateBatch(b, 1) }
func BenchmarkGenerateBatchLSTM8(b *testing.B)  { benchGenerateBatch(b, 8) }
func BenchmarkGenerateBatchLSTM64(b *testing.B) { benchGenerateBatch(b, 64) }

// benchGenerateSharded times the offline sharded decode path
// (DESIGN.md §6.2) at a fixed stream count and shard count: GenerateBatch
// at `shards` par workers, one shard each. Compare streams/s against
// BenchmarkGenerateBatchLSTM64 from the same run (the acceptance bar
// was ≥3× at 8 shards on an 8-core host — a host with fewer cores than
// shards time-slices them, so its rows only certify no regression).
func benchGenerateSharded(b *testing.B, streams, shards int) {
	c := benchAzure(b)
	defer par.SetProcs(par.SetProcs(shards))
	m := c.Model()
	g := rng.New(1)
	gs := make([]*rng.RNG, streams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range gs {
			gs[j] = g.Split()
		}
		m.GenerateBatch(gs, c.TestW)
	}
	b.ReportMetric(float64(b.N*streams)/b.Elapsed().Seconds(), "streams/s")
}

func BenchmarkGenerateShardedLSTM64x2(b *testing.B) { benchGenerateSharded(b, 64, 2) }
func BenchmarkGenerateShardedLSTM64x4(b *testing.B) { benchGenerateSharded(b, 64, 4) }
func BenchmarkGenerateShardedLSTM64x8(b *testing.B) { benchGenerateSharded(b, 64, 8) }

// BenchmarkReplayDecode times the trace-replay path end to end
// (DESIGN.md §9): parse a recorded generation from its versioned JSON
// record, regenerate it with Model.Generate from the recorded
// seed/window, and verify VM-by-VM agreement with the recorded bytes.
// Compare against BenchmarkGenerateTraceLSTM to read off the record
// parse + verify overhead on top of raw decode.
func BenchmarkReplayDecode(b *testing.B) {
	c := benchAzure(b)
	m := c.Model()
	const seed = 7
	tr := core.WithCatalog(m.Generate(rng.New(seed), c.TestW), c.Full.Flavors)
	data, err := workload.NewRecord("bench", "serial", "f64",
		core.ModelTag(m), seed, c.TestW, 1, tr).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := workload.ReadRecord(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.Verify(m.Generate(rng.New(rec.Seed), rec.Window())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replays/s")
}

// benchGenerateBatchF32 is benchGenerateBatch on the float32 fast path
// (DESIGN.md §6.4); compare streams/s against the same-shape f64 rows
// (the ISSUE 8 acceptance bar is f32 sharded ≥1.5× f64 at 64 streams).
func benchGenerateBatchF32(b *testing.B, streams int) {
	c := benchAzure(b)
	m := c.Model()
	m.PrepareF32()
	g := rng.New(1)
	gs := make([]*rng.RNG, streams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range gs {
			gs[j] = g.Split()
		}
		m.GenerateBatchShardedF32(gs, c.TestW, 1)
	}
	b.ReportMetric(float64(b.N*streams)/b.Elapsed().Seconds(), "streams/s")
}

func BenchmarkGenerateBatchLSTM64F32(b *testing.B) { benchGenerateBatchF32(b, 64) }

// benchGenerateShardedF32 is benchGenerateSharded on the f32 path.
func benchGenerateShardedF32(b *testing.B, streams, shards int) {
	defer par.SetProcs(par.SetProcs(runtime.GOMAXPROCS(0)))
	c := benchAzure(b)
	m := c.Model()
	m.PrepareF32()
	g := rng.New(1)
	gs := make([]*rng.RNG, streams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range gs {
			gs[j] = g.Split()
		}
		m.GenerateBatchShardedF32(gs, c.TestW, shards)
	}
	b.ReportMetric(float64(b.N*streams)/b.Elapsed().Seconds(), "streams/s")
}

func BenchmarkGenerateShardedLSTM64x2F32(b *testing.B) { benchGenerateShardedF32(b, 64, 2) }
func BenchmarkGenerateShardedLSTM64x4F32(b *testing.B) { benchGenerateShardedF32(b, 64, 4) }

// benchServeDecode times a full request through the continuous-batching
// serve engine, with and without a request trace attached. bench.sh
// reports the Off/On pair as the tracing overhead; DESIGN.md §7 budgets
// it at noise level because the disabled path is a single pointer test
// per stream per round and the enabled path only stamps time.Now() at
// phase boundaries.
func benchServeDecode(b *testing.B, traced bool) {
	c := benchAzure(b)
	prev := par.SetProcs(1)
	eng, err := core.NewGenEngine(c.Model(), core.EngineSpec{MaxBatch: 8})
	par.SetProcs(prev)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	tc := rtrace.NewTracer(256)
	g := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		var rt *rtrace.Trace
		if traced {
			rt = tc.StartTrace()
			ctx = rtrace.NewContext(ctx, rt)
		}
		if _, err := eng.Generate(ctx, g.Split(), c.TestW, 0); err != nil {
			b.Fatal(err)
		}
		if traced {
			tc.Finish(rt)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "streams/s")
}

func BenchmarkServeDecodeTracingOff(b *testing.B) { benchServeDecode(b, false) }
func BenchmarkServeDecodeTracingOn(b *testing.B)  { benchServeDecode(b, true) }

// benchEngineWave64 times waves of 64 concurrent Generate calls through
// the registry's default serving engine — the Monte-Carlo shape — built
// at `procs` par workers, one shard each (0: the host default).
// bench.sh reports the default-K row against the Shards1 row (one
// worker: one scheduler, one 64-row fleet): with ncpu > 1 the ratio is
// what one scheduler per core buys, with ncpu = 1 both rows run the
// same single shard.
func benchEngineWave64(b *testing.B, procs int) {
	c := benchAzure(b)
	const streams = 64
	prev := par.Procs()
	if procs > 0 {
		par.SetProcs(procs)
	}
	eng, err := core.NewGenEngine(c.Model(), core.EngineSpec{MaxBatch: streams})
	par.SetProcs(prev)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	g := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < streams; j++ {
			wg.Add(1)
			go func(g *rng.RNG) {
				defer wg.Done()
				if _, err := eng.Generate(context.Background(), g, c.TestW, 0); err != nil {
					b.Error(err)
				}
			}(g.Split())
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N*streams)/b.Elapsed().Seconds(), "streams/s")
}

func BenchmarkEngineWave64(b *testing.B)        { benchEngineWave64(b, 0) }
func BenchmarkEngineWave64Shards1(b *testing.B) { benchEngineWave64(b, 1) }

func BenchmarkGenerateTraceNaive(b *testing.B) {
	c := benchAzure(b)
	n := c.Naive()
	g := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Generate(g.Split(), c.TestW)
	}
}

func BenchmarkPackBusiestFit(b *testing.B) {
	c := benchAzure(b)
	g := rng.New(1)
	events := sched.Events(c.Test, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Pack(c.Test, events, sched.PackOptions{
			Servers: 20, CPUCap: 64, MemCap: 256, Alg: sched.BusiestFit{},
		}, g)
	}
}

func BenchmarkReuseDistances(b *testing.B) {
	c := benchAzure(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ReuseDistances(c.Test)
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// BenchmarkCategoricalCDF vs BenchmarkCategoricalAlias: the two
// categorical samplers available to the hot generation loop.
func BenchmarkCategoricalCDF(b *testing.B) {
	g := rng.New(1)
	w := rng.ZipfWeights(260, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Categorical(w)
	}
}

func BenchmarkCategoricalAlias(b *testing.B) {
	g := rng.New(1)
	a := rng.NewAlias(rng.ZipfWeights(260, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(g)
	}
}

// BenchmarkLSTMForwardBatched vs BenchmarkLSTMForwardUnbatched: the
// batched training step amortizes loop overhead across sequences.
func BenchmarkLSTMForwardBatched(b *testing.B) {
	benchForward(b, 8)
}

func BenchmarkLSTMForwardUnbatched(b *testing.B) {
	benchForward(b, 1)
}

func benchForward(b *testing.B, batch int) {
	net := nn.NewLSTM(nn.Config{InputDim: 64, HiddenDim: 48, Layers: 2, OutputDim: 17}, rng.New(1))
	g := rng.New(2)
	const steps = 16
	xs := make([]*mat.Dense, steps)
	for s := range xs {
		x := mat.NewDense(batch, 64)
		for i := range x.Data {
			x.Data[i] = g.NormFloat64()
		}
		xs[s] = x
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(xs, nil)
	}
	// Report per-sequence-step cost so batched/unbatched are comparable.
	b.ReportMetric(float64(b.N*steps*batch)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkHazardHead vs BenchmarkPMFHead: hazard parameterization (the
// paper's choice) vs a PMF/softmax head of the same width.
func BenchmarkHazardHead(b *testing.B) {
	logits := mat.NewDense(8, 47)
	targets := mat.NewDense(8, 47)
	mask := mat.NewDense(8, 47)
	g := rng.New(3)
	for i := range logits.Data {
		logits.Data[i] = g.NormFloat64()
		if g.Bernoulli(0.5) {
			targets.Data[i] = 1
		}
		if g.Bernoulli(0.7) {
			mask.Data[i] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.MaskedBCEWithLogits(logits, targets, mask)
	}
}

func BenchmarkPMFHead(b *testing.B) {
	logits := mat.NewDense(8, 47)
	g := rng.New(3)
	for i := range logits.Data {
		logits.Data[i] = g.NormFloat64()
	}
	targets := make([]int, 8)
	for i := range targets {
		targets[i] = g.Intn(47)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.SoftmaxCE(logits, targets, nil)
	}
}

func BenchmarkTraceSliceCensor(b *testing.B) {
	c := benchAzure(b)
	w := trace.Window{Start: 0, End: c.Full.Periods / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Full.Slice(w, 0)
	}
}

func BenchmarkGLMFitLarge(b *testing.B) {
	g := rng.New(1)
	n, d := 2000, 40
	x := mat.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, g.Uniform(0, 1))
		}
		y[i] = float64(g.Poisson(3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := glm.Fit(x, y, glm.Options{Solver: glm.IRLS, L2: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

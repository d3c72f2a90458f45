// Command traced trains the generative model (or loads a serialized
// one) and serves synthetic traces over HTTP — the "trace generation as
// a service" deployment of the model.
//
// Usage:
//
//	traced [-addr :8080] [-cloud azure|huawei|mixed|spec.json] [-days 9] [-seed 1]
//	traced -model model.bin -cloud azure
//	traced -journal run.jsonl -debug-addr :6060
//	traced -precision f32
//	traced -checkpoint-dir ckpt/ -resume
//	traced -cloud mixed
//	traced -cloud examples/workloads/mixed.json -record served.jsonl
//
// -cloud names the scenario through the declarative workload layer
// (DESIGN.md §9): its value is either a workload preset (azure, huawei,
// mixed) or a path to a JSON spec file describing heterogeneous client
// cohorts with per-cohort rate fractions, arrival processes (poisson,
// bursty gamma, weibull), lifetime overrides, and SLO classes. The
// active spec is echoed under "workload" on GET /metrics and survives
// hot reloads unchanged. -record appends every served /generate trace
// — with the seed, window, scale, engine, and model tag that reproduce
// it — to a JSONL file in the versioned record format that
// cmd/tracegen -in and cmd/experiments -replay-trace consume.
//
// With -checkpoint-dir set, training writes an atomic, versioned
// checkpoint (weights + optimizer moments + RNG stream state) every
// epoch; a process killed mid-training restarts with -resume and
// reaches byte-identical final weights (DESIGN.md §8). The trained
// serving snapshot is also published into the checkpoint directory, and
// SIGHUP (or POST /-/reload) hot-swaps the serving model from the newest
// intact published snapshot (or re-reads -model) without dropping
// in-flight /generate requests. Both count reload.success or
// reload.errors on GET /metrics.
//
// Concurrent POST /generate requests are coalesced into shared decode
// batches (continuous batching, DESIGN.md §6.2): a request joins the
// streams its shard is already stepping in the round after it arrives
// and never waits for company; at most 64 streams decode together
// across all shards. The engine runs one continuous-batching scheduler
// per internal/par worker (one per core; REPRO_PROCS=1 is a single
// scheduler) behind a router that sends each request to the shard with
// the fewest in flight (DESIGN.md §6.2). The startup and reload log
// lines and the decode.shards gauge on GET /metrics report the count in
// use. Responses stay byte-identical to the one-stream decode
// (core.Model.Generate) of the same seed regardless of batching or
// shard count.
//
// The startup model and every reloaded one publish through
// server.Server.Reload, the one gate onto the serving engine (DESIGN.md
// §8): a model whose flavor count differs from the -cloud catalog's,
// whose arrival rate overflows at the largest request scale, or, at
// -precision f32, whose f32 decode strays past the published tolerances
// exits at startup, and on reload is refused while the current snapshot
// keeps serving.
//
// -precision f32 serves through the float32 fast path (DESIGN.md
// §6.4): the LSTM step GEMMs run on f32 weight slabs for higher
// decode throughput. Responses remain deterministic per seed and
// identical across shard counts, but differ (within validated
// tolerances) from the f64 reference.
//
// Observability (DESIGN.md §7): -trace-buffer N keeps the last N
// finished request traces in a ring — every /generate answers with an
// X-Trace-Id header and GET /debug/traces serves the span trees (queue,
// coalesce, decode, encode per request); 0 disables tracing entirely.
// Tracing is read-only: enabling it changes no response bytes.
//
// Endpoints: GET /healthz, GET /readyz, GET /model, GET /metrics,
// GET /debug/traces, POST /generate (see internal/server for the
// request schema). -journal writes a JSONL telemetry journal (per-epoch
// training events, phase spans; write failures surface as
// obs.journal_errors on /metrics, and the first one is logged at
// shutdown); the optional -debug-addr listener exposes net/http/pprof
// under /debug/pprof/ and expvar (including the metrics registry and
// parallel layer counters) under /debug/vars. SIGINT/SIGTERM drain
// in-flight requests via http.Server.Shutdown before exiting.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rtrace"
	"repro/internal/server"
	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// servingPrefix names the published serving snapshots inside the
// checkpoint directory: serving-model-<seq>.ckpt, newest wins.
const servingPrefix = "serving-model"

// publishServing atomically writes the trained model as the next
// serving snapshot version in the checkpoint directory.
func publishServing(dir string, m *core.Model) (string, error) {
	blob, err := m.MarshalBinary()
	if err != nil {
		return "", err
	}
	store := &ckpt.Store{Dir: dir}
	seq := 1
	if prev := store.Seqs(servingPrefix); len(prev) > 0 {
		seq = prev[len(prev)-1] + 1
	}
	return store.Save(servingPrefix, seq, blob)
}

// loadServing reads the newest intact serving snapshot from the
// checkpoint directory, skipping corrupt or truncated versions.
func loadServing(dir string) (*core.Model, error) {
	store := &ckpt.Store{Dir: dir}
	blob, seq, skipped, err := store.LoadLatest(servingPrefix)
	if err != nil {
		return nil, fmt.Errorf("load serving snapshot: %w", err)
	}
	if skipped > 0 {
		log.Printf("traced: skipped %d corrupt serving snapshot(s)", skipped)
	}
	m := &core.Model{}
	if err := m.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("decode serving snapshot %d: %w", seq, err)
	}
	return m, nil
}

// reloadSource returns what SIGHUP and POST /-/reload re-read, paired
// with the -cloud catalog: the -model file when one was given, else the
// newest intact serving snapshot in the checkpoint directory; nil when
// there is neither.
func reloadSource(modelPath, ckptDir string, catalog *trace.FlavorSet) func() (*core.Model, *trace.FlavorSet, error) {
	switch {
	case modelPath != "":
		return func() (*core.Model, *trace.FlavorSet, error) {
			m, err := loadModelFile(modelPath)
			return m, catalog, err
		}
	case ckptDir != "":
		return func() (*core.Model, *trace.FlavorSet, error) {
			m, err := loadServing(ckptDir)
			return m, catalog, err
		}
	}
	return nil
}

// loadModelFile reads a model serialized with MarshalBinary from disk.
func loadModelFile(path string) (*core.Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read model: %w", err)
	}
	m := &core.Model{}
	if err := m.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("load model %s: %w", path, err)
	}
	return m, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cloud := flag.String("cloud", "azure", "scenario: a workload preset (azure, huawei, mixed) or a JSON spec file")
	recordPath := flag.String("record", "", "append every served /generate trace to this JSONL file in the workload record/replay format")
	days := flag.Int("days", 9, "history length for training")
	seed := flag.Int64("seed", 1, "data/training seed")
	modelPath := flag.String("model", "", "load a serialized model instead of training")
	hidden := flag.Int("hidden", 24, "LSTM hidden units")
	epochs := flag.Int("epochs", 40, "training epochs")
	precision := flag.String("precision", "f64", "decode numeric width: f64 (bit-exact reference) or f32 (fast path, validated at publish)")
	traceBuffer := flag.Int("trace-buffer", 256, "request traces kept for GET /debug/traces (0 disables request tracing)")
	journalPath := flag.String("journal", "", "write a JSONL telemetry journal (training epochs, phase spans) to this path")
	ckptDir := flag.String("checkpoint-dir", "", "directory for atomic training checkpoints and the published serving snapshot")
	resume := flag.Bool("resume", false, "resume training from the newest matching checkpoint in -checkpoint-dir")
	debugAddr := flag.String("debug-addr", "", "optional debug listener with /debug/pprof/ and /debug/vars")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "drain timeout on SIGINT/SIGTERM")
	flag.Parse()

	// Validate the engine configuration and the scenario before paying
	// for training.
	if !core.ValidPrecision(*precision) {
		log.Fatalf("traced: unknown -precision %q (have %v)", *precision, core.Precisions())
	}
	spec, cfg, err := workload.Load(*cloud)
	if err != nil {
		log.Fatalf("traced: %v", err)
	}
	log.Printf("workload spec %q: %d users, %d cohorts, catalog of %d flavors",
		spec.Name, spec.Users, len(spec.Cohorts), cfg.Flavors.K())

	var journal *obs.Journal
	if *journalPath != "" {
		var err error
		journal, err = obs.OpenJournal(*journalPath)
		if err != nil {
			log.Fatalf("traced: open journal: %v", err)
		}
		defer journal.Close()
		defer func() {
			if n := journal.Dropped(); n > 0 {
				log.Printf("traced: journal lost %d line(s); first error: %v", n, journal.Err())
			}
		}()
		log.Printf("journaling telemetry to %s", *journalPath)
	}

	// One registry carries checkpoint telemetry from training straight
	// through to the serving /metrics snapshot.
	reg := obs.NewRegistry()
	// Journal write failures surface as obs.journal_errors /
	// obs.journal_dropped_lines on /metrics instead of silently
	// truncating the file (nil-safe when journaling is off).
	journal.CountInto(reg)
	var ckSpec *core.CheckpointSpec
	if *ckptDir != "" {
		ckSpec = &core.CheckpointSpec{
			Dir:    *ckptDir,
			Resume: *resume,
			Obs:    reg,
		}
	}

	trainInfo := map[string]any{
		"cloud": cfg.Name,
		"seed":  *seed,
	}
	var model *core.Model
	if *modelPath != "" {
		var err error
		model, err = loadModelFile(*modelPath)
		if err != nil {
			log.Fatalf("traced: %v", err)
		}
		log.Printf("loaded model from %s (%d flavors)", *modelPath, model.Flavor.K)
		trainInfo["source"] = "loaded"
		trainInfo["model_path"] = *modelPath
		journal.Event("model_loaded", map[string]any{"path": *modelPath, "flavors": model.Flavor.K})
	} else {
		cfg.Days = *days
		prep := journal.StartSpan("data_prep")
		history := cfg.Generate(*seed)
		devStart := history.Periods * 85 / 100
		train := history.Slice(trace.Window{Start: 0, End: devStart}, 0)
		dev := history.Slice(trace.Window{Start: devStart, End: history.Periods}, 0)
		prep.End()
		log.Printf("training on %d VMs (%s, %d days)...", len(train.VMs), cfg.Name, *days)
		span := journal.StartSpan("train")
		start := time.Now()
		var err error
		model, err = core.TrainModel(train, core.ModelOptions{
			Bins: survival.PaperBins(),
			Train: core.TrainConfig{
				Hidden: *hidden, Epochs: *epochs, Seed: *seed,
				Dev: dev, DevOffset: devStart,
				Obs:        journal,
				Checkpoint: ckSpec,
			},
			Arrival: core.ArrivalOptions{Checkpoint: ckSpec},
		})
		if err != nil {
			log.Fatalf("traced: train: %v", err)
		}
		span.End()
		wall := time.Since(start).Round(time.Second)
		log.Printf("trained in %v", wall)
		trainInfo["source"] = "trained"
		trainInfo["days"] = *days
		trainInfo["hidden"] = *hidden
		trainInfo["epochs"] = *epochs
		trainInfo["train_vms"] = len(train.VMs)
		trainInfo["train_wall_s"] = wall.Seconds()
		if *ckptDir != "" {
			// Publish the serving snapshot next to the training
			// checkpoints: SIGHUP / POST /-/reload re-reads the newest
			// published version, so a retrained model can be swapped in
			// without restarting the server.
			if path, err := publishServing(*ckptDir, model); err != nil {
				log.Printf("traced: publish serving snapshot: %v", err)
			} else {
				log.Printf("published serving snapshot to %s", path)
			}
		}
	}
	if *journalPath != "" {
		trainInfo["journal"] = *journalPath
	}

	s := server.NewWithRegistry(nil, nil, reg)
	s.TrainInfo = trainInfo
	s.Precision = *precision
	s.Workload = spec.Summary()
	defer s.Close()
	// What decodes, for the startup and reload log lines: the shard count
	// is fixed by the par worker count, so it survives reloads.
	engineDesc := fmt.Sprintf("%s x %d shards, %s, %s kernels", core.EngineBatched, core.EngineSpec{}.ShardCount(), *precision, server.Kernels())

	if *recordPath != "" {
		recorder, err := workload.OpenRecorder(*recordPath)
		if err != nil {
			log.Fatalf("traced: open record sink: %v", err)
		}
		defer recorder.Close()
		prec := *precision
		s.OnTrace = func(tag string, seed int64, w trace.Window, scale float64, tr *trace.Trace) {
			rec := workload.NewRecord("generate", core.EngineBatched, prec, tag, seed, w, scale, tr)
			if err := recorder.Append(rec); err != nil {
				log.Printf("traced: record: %v", err)
			}
		}
		log.Printf("recording served traces to %s", *recordPath)
	}

	if *traceBuffer > 0 {
		s.Tracer = rtrace.NewTracer(*traceBuffer)
		log.Printf("request tracing on: ring of %d traces at GET /debug/traces", *traceBuffer)
	}

	if err := s.Reload(model, cfg.Flavors); err != nil {
		log.Fatalf("traced: refusing to serve the model: %v", err)
	}
	s.ReloadFunc = reloadSource(*modelPath, *ckptDir, cfg.Flavors)
	if s.ReloadFunc != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				m, err := s.Refresh()
				if err != nil {
					log.Printf("traced: SIGHUP reload failed, keeping current model: %v", err)
					journal.Event("reload_failed", map[string]any{"error": err.Error()})
					continue
				}
				log.Printf("SIGHUP: reloaded serving model (%d flavors; decode engine %s)", m.Flavor.K, engineDesc)
				journal.Event("reloaded", map[string]any{"flavors": m.Flavor.K})
			}
		}()
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		expvar.Publish("repro.metrics", expvar.Func(func() any { return s.Metrics().Snapshot() }))
		expvar.Publish("repro.par", expvar.Func(func() any { return par.Snapshot() }))
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("debug listener on %s (/debug/pprof/, /debug/vars)", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("traced: debug listener: %v", err)
			}
		}()
	}

	log.Printf("serving on %s (POST /generate, GET /metrics; decode engine %s)", *addr, engineDesc)
	journal.Event("serving", map[string]any{"addr": *addr})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Trap SIGINT/SIGTERM and drain in-flight requests instead of dying
	// mid-response.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			log.Fatalf("traced: %v", err)
		}
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		log.Printf("signal received; draining for up to %v...", *shutdownTimeout)
		journal.Event("shutdown", map[string]any{"timeout_s": shutdownTimeout.Seconds()})
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("traced: shutdown: %v", err)
		}
		if debugSrv != nil {
			_ = debugSrv.Shutdown(sctx)
		}
		log.Printf("drained; bye")
	}
}
